"""Workload steps shared by every workload, and the per-layer probes.

:func:`cold_grid` is the one cold compile job: clear every warm state,
extract every repro workload's blocks (``frontend``) and sweep them
(``mapping``).  ``catalog_cold`` times it, ``kernel_verify`` runs it as
set-up and ``serve_mixed`` runs it as the in-process reference the
service must equal.  :func:`grid_layers` and :func:`check_grid` are the
per-layer figures and correctness checks all three read off it.

The probes time one public call per request key on a warm in-process
session: ``stable_digest`` over the request's ``fingerprint_*`` tuple
(the work every warm ``/v1/map`` repeats), a warm ``session.map`` and
``MapResult.to_json``.  The keys are the workload's own request keys,
so the numbers describe that workload's working set.
"""

from __future__ import annotations

import time

from measure import median
import refcheck

__all__ = ["Grid", "cold_grid", "grid_layers", "check_grid", "api_probes",
           "session_cache_layers", "import_probe", "setup_imports"]

#: Where the paper's Table 5 winners are read off a grid.
TABLE5_PLATFORM = "SA-1110"


class Grid:
    """What one cold extract + sweep produced."""

    def __init__(self, session, workloads) -> None:
        self.session = session
        self.workloads = list(workloads)
        self.blocks: dict = {}
        self.reports: dict = {}
        #: ``{(span name, workload): seconds}``, raw and host-scaled.
        self.raw_s: dict = {}
        self.scaled_s: dict = {}
        self.cache: dict = {}

    def terms(self) -> dict:
        """IR size after extraction, per repro workload."""
        return {k: sum(len(p) for b in blocks.values()
                       for p in b.outputs.values())
                for k, blocks in self.blocks.items()}

    def cycles(self) -> dict:
        """The winners' estimated cycles summed per repro workload."""
        return {k: sum(min(p.objectives.cycles for p in e.result.front)
                       for e in report.entries if e.result.front)
                for k, report in self.reports.items()}

    def unmapped(self) -> int:
        return sum(e.result.cycles_winner is None
                   for report in self.reports.values()
                   for e in report.entries)

    def cells(self) -> int:
        return sum(len(r.entries) for r in self.reports.values())


def cold_grid(workloads, platforms, libraries=None, *, tracer, clock=None,
              **config) -> Grid:
    """Extract and sweep ``workloads`` from no warm state.

    A fresh ``MappingSession`` with the disk tier off (``config`` adds
    session settings), after clearing the shared memo, ideal and GCD
    caches.  Every block is extracted before any sweep: the session's
    flow is built over the default workload's blocks, so sweeping
    first would bill an extraction to the mapping layer.  ``clock``
    (a :class:`measure.HostClock`) times each step; without one the
    steps are timed raw.
    """
    from repro.api import MappingSession, SessionConfig
    from repro.mapping.cache import clear_shared_caches
    from repro.symalg.gcdtools import clear_gcd_caches
    from repro.symalg.ideal import clear_ideal_caches

    clear_shared_caches()
    clear_gcd_caches()
    clear_ideal_caches()
    session = MappingSession(SessionConfig(disk_cache=False, **config))
    grid = Grid(session, workloads)
    before = session.stats()
    op = tracer.new_op()
    sweep_kwargs = {"platforms": list(platforms)}
    if libraries is not None:
        sweep_kwargs["libraries"] = list(libraries)

    def step(name, key, call):
        def traced():
            with tracer.span(name, op=op, workload=key):
                return call()
        if clock is None:
            start = time.perf_counter()
            value = traced()
            raw = scaled = time.perf_counter() - start
        else:
            value, raw, scaled = clock.time(traced)
        grid.raw_s[name, key] = raw
        grid.scaled_s[name, key] = scaled
        return value

    for key in grid.workloads:
        grid.blocks[key] = step("frontend.extract", key,
                                lambda: session.blocks(key))
    for key in grid.workloads:
        grid.reports[key] = step(
            "mapping.sweep", key,
            lambda: session.sweep(workload=key, **sweep_kwargs))
    grid.cache = session_cache_layers(before, session.stats())
    return grid


def grid_layers(tracer, grid) -> dict:
    """``frontend.extract_s/terms`` and ``mapping.sweep_s/cycles`` per
    repro workload; times are the median of every traced grid run."""
    terms, cycles = grid.terms(), grid.cycles()
    layers = {}
    for key in grid.workloads:
        layers[f"frontend.extract_s.{key}"] = (
            median(tracer.durations("frontend.extract", workload=key)), "s")
        layers[f"frontend.terms.{key}"] = (terms[key], "count")
        layers[f"mapping.sweep_s.{key}"] = (
            median(tracer.durations("mapping.sweep", workload=key)), "s")
        layers[f"mapping.cycles.{key}"] = (cycles[key], "cycles")
    return layers


def check_grid(root, result, grid) -> set:
    """Check a grid's winners against references it did not produce.

    * The MP3 SA-1110 winners with the grid's fullest library equal the
      paper's Table 5 elements.
    * Every distinct winner's element rows, pushed through its binding,
      equal the block polynomials re-derived with sympy from the
      kernel source, within the session's tolerance.

    Returns the ``(workload, block)`` pairs whose winners failed.
    """
    from repro.workload import workload_named

    bad = set()
    mp3 = grid.reports["mp3"]
    for block, element in refcheck.table5_elements(root).items():
        got = mp3.entry(TABLE5_PLATFORM, block, mp3.libraries[-1]).winner_name
        if not result.check(f"table5:{block}", got == element,
                            f"winner {got}, paper {element}"):
            bad.add(("mp3", block))
    result.check("every cell mapped", grid.unmapped() == 0,
                 f"{grid.unmapped()} unmapped cells")
    tolerance = grid.session.config.tolerance
    for key, report in grid.reports.items():
        sources = refcheck.kernel_sources(workload_named(key))
        derived: dict = {}
        seen = set()
        for entry in report.entries:
            match = entry.result.cycles_winner
            if match is None:
                continue
            ident = (entry.block, match.element.name, match.binding)
            if ident in seen:
                continue
            seen.add(ident)
            if entry.block not in derived:
                derived[entry.block] = refcheck.sympy_outputs(
                    *sources[entry.block])
            distance = refcheck.max_row_distance(
                refcheck.instantiated_rows(match), derived[entry.block])
            if not result.check(
                    f"sympy:{key}/{entry.block}/{match.element.name}",
                    distance <= tolerance,
                    f"max coefficient distance {distance:.3g} "
                    f"(tolerance {tolerance:g})"):
                bad.add((key, entry.block))
    return bad


def api_probes(session, requests, tracer, repeats: int = 3) -> dict:
    """``mapping.cache.digest_ms``, ``api.map_warm_us``, ``api.render_us``.

    ``requests`` are ``(block, library tags, platform, workload)``
    tuples the session has already mapped.  Each key is digested
    ``repeats`` times from a freshly built tuple (as the server builds
    one per request) and the last, warm, time is kept.
    """
    from repro.mapping.cache import (fingerprint_block, fingerprint_library,
                                     fingerprint_platform, stable_digest)

    config = session.config
    digest_s, map_s, render_s = [], [], []
    for block_name, tags, platform_key, workload in requests:
        block = session.catalog.block(block_name, workload)
        library = session.catalog.library(tags)
        platform = session.catalog.platform(platform_key)
        op = tracer.new_op()
        for _ in range(repeats):
            with tracer.span("mapping.cache.digest", op=op):
                start = time.perf_counter()
                key = ("map_block", fingerprint_block(block),
                       fingerprint_library(library),
                       fingerprint_platform(platform), config.tolerance,
                       config.accuracy_budget)
                stable_digest(key)
                elapsed = time.perf_counter() - start
        digest_s.append(elapsed)
        for _ in range(repeats):
            with tracer.span("api.map", op=op):
                start = time.perf_counter()
                result = session.map(block_name, tags, platform_key,
                                     workload=workload)
                elapsed = time.perf_counter() - start
        map_s.append(elapsed)
        for _ in range(repeats):
            with tracer.span("api.render", op=op):
                start = time.perf_counter()
                result.to_json()
                elapsed = time.perf_counter() - start
        render_s.append(elapsed)
    return {
        "mapping.cache.digest_ms": (median(digest_s) * 1e3, "ms"),
        "api.map_warm_us": (median(map_s) * 1e6, "us"),
        "api.render_us": (median(render_s) * 1e6, "us"),
    }


def session_cache_layers(before: dict, after: dict) -> dict:
    """Cache-tier per-layer metrics from two ``stats()`` snapshots
    (an in-process session's or the service's ``caches`` section)."""
    def delta(section, field):
        return after[section].get(field, 0) - before[section].get(field, 0)

    lru_hits = delta("map_block", "hits")
    lru_misses = delta("map_block", "misses")
    disk_hits = delta("disk", "hits")
    disk_misses = delta("disk", "misses")
    memo_hits = sum(after["shared"][n]["hits"] - before["shared"][n]["hits"]
                    for n in after["shared"])
    memo_misses = sum(after["shared"][n]["misses"]
                      - before["shared"][n]["misses"]
                      for n in after["shared"])
    return {
        "mapping.searches": (lru_misses - disk_hits, "count"),
        "mapping.memo_hit_ratio": (_ratio(memo_hits, memo_misses), "ratio"),
        "mapping.cache.lru_hit_ratio": (_ratio(lru_hits, lru_misses),
                                        "ratio"),
        "mapping.cache.evictions": (delta("map_block", "evictions"),
                                    "count"),
        "mapping.cache.disk_hit_ratio": (_ratio(disk_hits, disk_misses),
                                         "ratio"),
        "mapping.cache.disk_writes": (delta("disk", "writes"), "count"),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def setup_imports(ctx, modules, clock, runs: int) -> list:
    """Import times for ``setup_s``: this process's own import plus
    ``runs`` fresh interpreters, each rescaled to the reference host
    speed by ``clock`` (see :class:`measure.HostClock`)."""
    samples = [clock.scale_last(ctx.import_s)]
    for _ in range(runs):
        seconds, raw, scaled = clock.time(
            lambda: import_probe(ctx.root, modules))
        samples.append(seconds * scaled / raw)
    return samples


def import_probe(root, modules) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    import subprocess
    import sys

    code = ("import sys, time\n"
            "sys.path.insert(0, 'src')\n"
            "start = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(time.perf_counter() - start)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])
