"""``kernel_verify``: the accuracy loop on every winner, closed loop.

One caller.  Set-up extracts every repro workload and warms the maps
with ``session.sweep`` on the SA-1110 with the full library.  Each
timed pass then calls ``session.verify`` on every block (the seed
permutes the order): generated fixed-point code for the winner, run
against the exact float64 reference on the workload's declared
stimulus.  Nearly all of it is ``codegen`` lowering; it does no
extraction, no search and no HTTP.  After each pass the nine winner
kernels are run on their stimulus for a fixed time slice to measure
the generated code's speed.

The traced run interposes spans on the three public ``repro.codegen``
calls ``measure_match`` makes (``lower_match``, ``lower_block``,
``compile_kernel``, plus each compiled kernel's ``run``), so the
per-block breakdown comes from the same ``session.verify`` calls the
untraced run times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import time

from measure import HostClock, Result, geomean, median, self_peak_rss_mb
from probes import (api_probes, check_grid, cold_grid, grid_layers,
                    session_cache_layers, setup_imports)
import refcheck

IMPORTS = ("repro.api", "repro.codegen", "repro.mapping.cache",
           "repro.symalg.gcdtools", "repro.symalg.ideal", "repro.workload")
PLATFORM = "SA-1110"
LIBRARY = "REF+LM+IH+IPP"
#: Seconds each winner kernel runs per pass for ``kernel_vps``.
RUN_SLICE_S = 0.05


@contextlib.contextmanager
def _codegen_spans(tracer):
    """Spans around the codegen calls ``measure_match`` makes."""
    if not tracer.enabled:
        yield
        return
    import repro.codegen.verify as verify

    originals = {name: getattr(verify, name)
                 for name in ("lower_match", "lower_block", "compile_kernel")}

    def lowering(name, fn):
        def traced(*args, **kwargs):
            with tracer.span("codegen.lower", call=name) as span:
                kernel = fn(*args, **kwargs)
                span["instrs"] = len(kernel.instructions)
            return kernel
        return traced

    def compiling(fn):
        def traced(kernel, in_fmt, out_fmt):
            with tracer.span("codegen.compile"):
                compiled = fn(kernel, in_fmt, out_fmt)
            run = compiled.run

            def timed_run(env):
                with tracer.span("codegen.run"):
                    return run(env)
            return dataclasses.replace(compiled, run=timed_run)
        return traced

    verify.lower_match = lowering("lower_match", originals["lower_match"])
    verify.lower_block = lowering("lower_block", originals["lower_block"])
    verify.compile_kernel = compiling(originals["compile_kernel"])
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(verify, name, fn)


def _speed_kernels(session, winners):
    """The winner kernels compiled once, with their stimulus inputs."""
    from repro.codegen import (compile_kernel, element_formats, lower_match,
                               stimulus_for_block)

    kernels = {}
    for (key, block), match in winners.items():
        block_obj = session.catalog.block(block, key)
        kernel = lower_match(block_obj, match)
        compiled = compile_kernel(kernel, *element_formats(match.element))
        envs = [dict(zip(kernel.inputs, vector))
                for vector in stimulus_for_block(block_obj, key)]
        kernels[(key, block)] = (compiled.run, envs)
    return kernels


def _vectors_per_second(run, envs) -> float:
    done = 0
    start = time.perf_counter()
    deadline = start + RUN_SLICE_S
    while True:
        for env in envs:
            run(env)
        done += len(envs)
        now = time.perf_counter()
        if now >= deadline:
            return done / (now - start)


def _check_reference(result, session, winners) -> set:
    """The verifier's float64 reference (the block lowered and compiled
    in double) against CPython running the kernel source itself, on
    the declared stimulus.  Returns the blocks that disagree."""
    from repro.codegen import (compile_kernel, lower_block, parse_format,
                               stimulus_for_block)
    from repro.workload import workload_named

    bad = set()
    double = parse_format("double")
    sources = {}
    for key, block in winners:
        if key not in sources:
            sources[key] = refcheck.kernel_sources(workload_named(key))
        source, inputs = sources[key][block]
        block_obj = session.catalog.block(block, key)
        reference = compile_kernel(lower_block(block_obj), double, double)
        worst = 0.0
        for vector in stimulus_for_block(block_obj, key):
            env = dict(zip(reference.kernel.inputs, vector))
            got = reference.run(env)
            want = refcheck.run_kernel_python(source, inputs, env)
            if set(got) != set(want):
                worst = float("inf")
                break
            worst = max(worst, max(abs(got[k] - want[k])
                                   / max(1.0, abs(want[k])) for k in want))
        if not result.check(f"float64 reference vs CPython:{key}/{block}",
                            worst <= 1e-9,
                            f"max relative difference {worst:.3g}"):
            bad.add((key, block))
    return bad


def run(ctx) -> Result:
    from repro.workload import registered_workloads

    result = Result()
    rng = random.Random(ctx.seed)
    workloads = registered_workloads()
    clock = HostClock()
    imports = setup_imports(ctx, IMPORTS, clock, 1)
    work = []
    for _ in range(2):
        grid = cold_grid(workloads, [PLATFORM], [LIBRARY], tracer=ctx.tracer,
                         clock=clock)
        work.append(sum(grid.scaled_s.values()))
    session = grid.session
    winners = {(key, e.block): e.result.cycles_winner
               for key, report in grid.reports.items()
               for e in report.entries}
    result.samples["setup_runs"] = len(work)
    ctx.mark_setup_done(median(imports) + median(work))

    blocks = list(winners)
    passes, outputs, speed = [], [], []
    kernels = None
    before = session.stats()
    raw_passes = []
    deadline = time.perf_counter() + ctx.seconds
    with _codegen_spans(ctx.tracer):
        while time.perf_counter() < deadline or (
                len(passes) < 2 and result.attempted < 40):
            order = list(blocks)
            rng.shuffle(order)
            per_block, seen, raw = {}, {}, 0.0
            for key, block in order:
                result.attempted += 1

                def call():
                    with ctx.tracer.span("api.verify", op=ctx.tracer.new_op(),
                                         block=block, workload=key):
                        return session.verify(block, workload=key)
                try:
                    verified, raw_s, per_block[block] = clock.time(call)
                except Exception as exc:
                    result.failed += 1
                    result.check(f"verify {key}/{block} raised", False,
                                 repr(exc))
                    continue
                raw += raw_s
                measurement = verified.measurement
                seen[(key, block)] = {
                    "element": measurement.element if measurement else None,
                    "snr_db": measurement.snr_db if measurement else None,
                    "bytes": hashlib.sha256(verified.to_json()).hexdigest(),
                }
            passes.append({"total_s": sum(per_block.values()),
                           "block_s": per_block})
            raw_passes.append(raw)
            outputs.append(seen)
            if kernels is None:
                kernels = _speed_kernels(session, winners)
            rates = {}
            for ident, (run_kernel, envs) in kernels.items():
                vps, raw_s, scaled_s = clock.time(
                    lambda: _vectors_per_second(run_kernel, envs))
                rates[ident] = vps * raw_s / scaled_s
            speed.append(rates)
    after = session.stats()
    rss = self_peak_rss_mb()
    if len(passes) < 2:
        raise RuntimeError(f"only {len(passes)} verify passes completed: "
                           f"{result.checks}")

    first = outputs[0]
    bad = check_grid(ctx.root, result, grid)
    bad |= _check_reference(result, session, winners)
    for ident, out in first.items():
        winner = winners[ident]
        if not result.check(f"verify {ident} measured the winner",
                            winner is not None
                            and out["element"] == winner.element.name,
                            f"measured {out['element']}"):
            bad.add(ident)
    for i, seen in enumerate(outputs):
        for ident, out in seen.items():
            same = out == first.get(ident)
            if not same or ident in bad:
                result.failed += 1
            if not same:
                result.check(f"pass {i} {ident} repeats pass 0", False)

    verify_s = median([p["total_s"] for p in passes])
    tail_s = median([max(p["block_s"].values()) for p in passes])
    kernel_vps = median([geomean(s.values()) for s in speed])
    snr = {block: out["snr_db"] for (_k, block), out in first.items()}
    mapped_cycles = sum(grid.cycles().values())
    result.notes["host_time_scale"] = clock.summary()
    result.samples["passes"] = len(passes)
    result.samples["verify_calls"] = result.attempted
    result.e2e = {
        "setup_s": (ctx.setup_s, "s"),
        "op_ms": (verify_s * 1e3, "ms"),
        "rate_per_s": (kernel_vps, "1/s"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.extra = {
        "verify_s": (verify_s, "s"),
        "verify_s_raw": (median(raw_passes), "s"),
        "kernel_vps": (kernel_vps, "1/s"),
        "kernel_snr_db_min": (min(snr.values()), "dB"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "slowest_block_verify_s": (tail_s, "s"),
    }

    if ctx.tracer.enabled:
        result.layers = _layers(ctx, grid, winners, before, after, snr,
                                speed)
    return result


def _layers(ctx, grid, winners, before, after, snr, speed):
    tracer = ctx.tracer
    layers = grid_layers(tracer, grid)
    layers.update(session_cache_layers(before, after))

    # Per verify call: sum its codegen spans by kind, then take the
    # median over passes for each block.
    op_block = {s["op"]: s["block"] for s in tracer.spans
                if s["name"] == "api.verify"}
    per_op: dict = {}
    for s in tracer.spans:
        if s["op"] in op_block and s["name"].startswith("codegen."):
            entry = per_op.setdefault(s["op"], {"codegen.lower": 0.0,
                                                "codegen.compile": 0.0,
                                                "codegen.run": 0.0})
            entry[s["name"]] += s["end"] - s["start"]
            if s.get("call") == "lower_match":
                entry["instrs"] = s["instrs"]
    by_block: dict = {}
    for op, entry in per_op.items():
        by_block.setdefault(op_block[op], []).append(entry)
    for (key, block), match in winners.items():
        entries = by_block[block]
        for kind, label in (("codegen.lower", "lower_s"),
                            ("codegen.compile", "compile_s"),
                            ("codegen.run", "run_s")):
            layers[f"codegen.{label}.{block}"] = (
                median([e[kind] for e in entries]), "s")
        layers[f"codegen.instrs.{block}"] = (entries[0]["instrs"], "count")
        layers[f"codegen.snr_db.{block}"] = (snr[block], "dB")
        layers[f"codegen.kernel_vps.{block}"] = (
            median([s[(key, block)] for s in speed]), "1/s")

    requests = [(block, tuple(LIBRARY.split("+")), PLATFORM, key)
                for key, block in winners]
    layers.update(api_probes(grid.session, requests, tracer))
    layers["service.coalesced"] = (0, "count")
    layers["service.shed"] = (0, "count")
    return layers
