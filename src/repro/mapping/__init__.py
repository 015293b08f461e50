"""``repro.mapping`` — the paper's contribution (Section 3.3).

Branch-and-bound decomposition of target polynomials into complex
library elements via simplification modulo side relations, candidate
generation by symbolic manipulation, block matching for multi-output
elements, code rewriting, and the full three-step methodology driver.

The searches here are plain functions.  Their results are memoized
in two tiers — the in-process LRU and an optional persistent disk
store — bundled per owner as a :class:`~repro.mapping.cache.CacheTiers`.
The typed, cached front door is :class:`repro.api.MappingSession`,
which owns one tier bundle and exposes the whole methodology.  See
:mod:`repro.mapping.cache` for the digest-keying and serialization
contracts, :func:`shared_cache_stats` / :func:`clear_shared_caches`
for the process-wide pure-function caches, and
:mod:`repro.mapping.batch` (:func:`run_batch`) for mapping whole
(block × library × platform) work sets with dedup and process
fan-out.
"""

from repro.mapping.batch import BatchItem, BatchReport, BatchStats, run_batch
from repro.mapping.cache import (
    CacheTiers,
    clear_shared_caches,
    fingerprint_block,
    fingerprint_library,
    fingerprint_platform,
    shared_cache_stats,
)
from repro.mapping.candidates import (
    CandidateForm,
    all_manipulations,
    structural_hints,
)
from repro.mapping.decompose import (
    DecomposeResult,
    MappingSolution,
    decompose,
    residual_cost,
)
from repro.mapping.flow import (
    FlowReport,
    MappingPass,
    MethodologyFlow,
    SweepEntry,
    SweepReport,
    methodology_blocks,
)
from repro.mapping.match import (
    BlockMatch,
    Instantiation,
    enumerate_instantiations,
    match_block,
)
from repro.mapping.pareto import (
    BlockParetoResult,
    Objectives,
    ParetoPoint,
    pareto_front,
    score_element,
    score_match,
)
from repro.mapping.rewriter import MappedProgram, rewrite

__all__ = [
    "Instantiation",
    "BlockMatch",
    "enumerate_instantiations",
    "match_block",
    "CandidateForm",
    "all_manipulations",
    "structural_hints",
    "decompose",
    "MappingSolution",
    "DecomposeResult",
    "residual_cost",
    "Objectives",
    "ParetoPoint",
    "BlockParetoResult",
    "pareto_front",
    "score_match",
    "score_element",
    "rewrite",
    "MappedProgram",
    "MethodologyFlow",
    "MappingPass",
    "FlowReport",
    "methodology_blocks",
    "SweepEntry",
    "SweepReport",
    "BatchItem",
    "BatchReport",
    "BatchStats",
    "run_batch",
    "CacheTiers",
    "shared_cache_stats",
    "clear_shared_caches",
    "fingerprint_block",
    "fingerprint_library",
    "fingerprint_platform",
]
