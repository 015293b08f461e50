"""The program surface the repo benchmark (``perfbench/``) relies on.

``perfbench/`` is measured against older commits, so it cannot follow
a rename: every ``repro`` name it imports, the ``session.stats()``
sections it reads, and the map key its digest probe builds by hand
must keep working.  This test fails first when one of them breaks.
"""

import ast
import importlib
import pathlib

import pytest

from repro.api import MappingSession, SessionConfig
from repro.mapping.cache import (fingerprint_block, fingerprint_library,
                                 fingerprint_platform, stable_digest)
from repro.mapping.decompose import _map_block_key

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _repro_imports():
    """``(module, name)`` for every ``from repro... import name`` in
    ``perfbench/``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "repro":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_the_probe_names_are_among_the_scanned_imports():
    names = {name for _module, name in _repro_imports()}
    assert {"fingerprint_block", "fingerprint_library", "fingerprint_platform",
            "stable_digest", "clear_shared_caches", "clear_gcd_caches",
            "clear_ideal_caches"} <= names


@pytest.mark.parametrize("module, name", _repro_imports())
def test_every_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_stats_sections_and_probe_key(isolated_cache_env):
    session = MappingSession(SessionConfig(disk_cache=False))
    stats = session.stats()
    for section in ("map_block", "disk", "shared"):
        assert section in stats
    for field in ("hits", "misses", "evictions"):
        assert field in stats["map_block"]
    for cache in stats["shared"].values():
        assert {"hits", "misses"} <= set(cache)

    block = session.catalog.block("inv_mdctL", "mp3")
    library = session.catalog.library(("REF", "LM", "IH", "IPP"))
    platform = session.catalog.platform("SA-1110")
    config = session.config
    # Built exactly as ``perfbench/probes.py:api_probes`` builds it.
    probe_key = ("map_block", fingerprint_block(block),
                 fingerprint_library(library),
                 fingerprint_platform(platform), config.tolerance,
                 config.accuracy_budget)
    key = _map_block_key(block, library, platform, config.tolerance,
                         config.accuracy_budget)
    assert probe_key == key
    assert stable_digest(probe_key) == stable_digest(key)
