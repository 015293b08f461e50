"""``catalog_cold``: cold compile of every repro workload, closed loop.

One caller, one pass after another.  Each pass starts from no warm
state — a fresh ``MappingSession`` with the disk tier off, and the
shared memo, ideal and GCD caches cleared — then extracts every block
of every registered repro workload (``frontend``) and runs the cold
``session.sweep`` over every platform and the paper's library ladder
(``mapping``).  The seed permutes the workload order.  This is the
compile time a CLI user or a cold ``/v1/map`` pays.
"""

from __future__ import annotations

import hashlib
import random
import time

from measure import HostClock, Result, median, self_peak_rss_mb
from probes import (api_probes, check_grid, cold_grid, grid_layers,
                    setup_imports)

IMPORTS = ("repro.api", "repro.mapping.cache", "repro.symalg.gcdtools",
           "repro.symalg.ideal", "repro.workload")


def _summary(grid) -> dict:
    """What must repeat exactly on every pass."""
    return {"terms": grid.terms(), "cycles": grid.cycles(),
            "unmapped": grid.unmapped(),
            "digests": {k: hashlib.sha256(r.to_json().encode()).hexdigest()
                        for k, r in grid.reports.items()},
            "searches": grid.cache["mapping.searches"][0],
            "cells": grid.cells()}


def run(ctx) -> Result:
    from repro.platform.registry import DEFAULT_REGISTRY
    from repro.workload import registered_workloads

    result = Result()
    rng = random.Random(ctx.seed)
    platforms = list(DEFAULT_REGISTRY.names())
    workloads = registered_workloads()
    clock = HostClock()
    setup = setup_imports(ctx, IMPORTS, clock, 2)
    result.samples["setup_runs"] = len(setup)
    ctx.mark_setup_done(median(setup))

    passes = []
    first = last = None
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or (
            len(passes) < 2 and result.attempted < 4):
        order = list(workloads)
        rng.shuffle(order)
        result.attempted += 1
        try:
            grid = cold_grid(order, platforms, tracer=ctx.tracer,
                             clock=clock)
        except Exception as exc:  # a pass that raises is a failed op
            result.failed += 1
            result.check("pass raised", False, repr(exc))
            continue
        # Keep the grids of the first and the latest pass only, so
        # memory does not grow with the number of passes.
        first = first or grid
        last = grid
        passes.append({
            "summary": _summary(grid),
            "raw_s": sum(grid.raw_s.values()),
            "total_s": sum(grid.scaled_s.values()),
            "app_s": max(grid.scaled_s["frontend.extract", k]
                         + grid.scaled_s["mapping.sweep", k] for k in order),
        })
    rss = self_peak_rss_mb()
    if len(passes) < 2:
        raise RuntimeError(f"only {len(passes)} of {result.attempted} "
                           f"passes completed: {result.checks}")

    reference = passes[0]["summary"]
    bad = check_grid(ctx.root, result, first)
    for i, pass_ in enumerate(passes):
        same = pass_["summary"] == reference
        if not same or bad or reference["unmapped"]:
            result.failed += 1
        result.check(f"pass {i} repeats pass 0 (searches, terms, cycles, "
                     "sweep bytes)", same)
    times = [p["total_s"] for p in passes]
    later = median(times[1:])
    drift = abs(times[0] - later) / later
    result.notes["first_vs_later_pass"] = {
        "first_s": times[0], "later_median_s": later, "drift": drift}
    result.notes["host_time_scale"] = clock.summary()
    result.check("first pass agrees with later passes within the op_ms "
                 "bound", drift <= ctx.bound("op_ms"),
                 f"drift {drift:.3f}", gate=False)

    compile_s = median(times)
    cells = reference["cells"]
    mapped_cycles = sum(reference["cycles"].values())
    result.samples["passes"] = len(passes)
    result.e2e = {
        "setup_s": (ctx.setup_s, "s"),
        "op_ms": (compile_s * 1e3, "ms"),
        "rate_per_s": (cells / compile_s, "1/s"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.extra = {
        "compile_s": (compile_s, "s"),
        "compile_s_raw": (median([p["raw_s"] for p in passes]), "s"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "slowest_app_compile_s": (median([p["app_s"] for p in passes]), "s"),
        "grid_cells": (cells, "count"),
    }

    if ctx.tracer.enabled:
        layers = grid_layers(ctx.tracer, last)
        layers.update(last.cache)
        requests = [(e.block, tuple(e.library.split("+")), e.platform, key)
                    for key, report in last.reports.items()
                    for e in report.entries]
        layers.update(api_probes(last.session, requests, ctx.tracer))
        layers["service.coalesced"] = (0, "count")
        layers["service.shed"] = (0, "count")
        result.layers = layers
    return result
