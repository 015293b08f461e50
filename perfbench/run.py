"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload catalog_cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload is built from ``--seed``,
measured for ``--seconds`` and its outputs are checked against
references the code under test did not produce (see ``refcheck.py``).
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` records spans around each call into a layer and prints
every per-layer metric.  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable table, and the full record (environment,
every check, the workload's own metrics, span totals, and for a traced
run the tracing overhead against the latest untraced run) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog_cold", "kernel_verify", "serve_mixed")


class Context:
    """What a workload module gets: inputs, tracer, bounds, timers."""

    def __init__(self, root: Path, spec: dict, args, tracer, import_s):
        self.root = root
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = tracer
        self.import_s = import_s
        self.setup_s = None
        self.results_dir = HERE / "results"
        self._bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def bound(self, name: str) -> float:
        return self._bounds[name]

    def mark_setup_done(self, setup_s: float) -> None:
        self.setup_s = setup_s


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _metrics(wanted, values: dict, kind: str) -> dict:
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            raise RuntimeError(f"workload produced no {kind} metric {name!r}")
        value, unit = values[name]
        if unit != metric["unit"]:
            raise RuntimeError(f"{name}: unit {unit!r}, BENCHMARK.json "
                               f"says {metric['unit']!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _table(title: str, values: dict) -> list:
    lines = [f"# {title}"]
    for name, (value, unit) in values.items():
        lines.append(f"  {name:<44} {value:>16.6g} {unit}")
    return lines


def _overhead(results_dir: Path, workload: str, seed: int, traced: dict):
    """Traced minus untraced, per end-to-end metric, against the
    untraced run of the same seed if there is one, else the latest."""
    same = results_dir / f"{workload}-seed{seed}-trace0.json"
    candidates = [same] if same.exists() else sorted(
        results_dir.glob(f"{workload}-seed*-trace0.json"),
        key=lambda p: p.stat().st_mtime)
    if not candidates:
        return {"untraced_run": None}
    base = json.loads(candidates[-1].read_text())
    out = {"untraced_run": candidates[-1].name}
    for name, (value, unit) in traced.items():
        if name in base["e2e"]:
            was = base["e2e"][name]["value"]
            out[name] = {"traced": value, "untraced": was,
                         "diff": value - was, "unit": unit,
                         "share": (value - was) / was if was else None}
    return out


def _predictions(workload: str) -> dict:
    """The workload's written rationale and the ROADMAP mapping, so a
    results file can be read without the benchmark's sources."""
    written = json.loads((HERE / "predictions.json").read_text())
    return {"workload": written["workloads"][workload],
            "metrics": written["end_to_end"],
            "layers": written["predictions"],
            "roadmap": written["roadmap"]}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is "
              "missing here", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))

    import measure
    import spans

    workload = importlib.import_module(args.workload)
    start = time.perf_counter()
    for module in workload.IMPORTS:
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    tracer = spans.Tracer() if args.trace else spans.NULL
    ctx = Context(root, spec, args, tracer, import_s)
    ctx.results_dir.mkdir(exist_ok=True)
    # Recorded before the run: serve_mixed narrows this process's CPU
    # affinity to leave the server a CPU of its own.
    environment = measure.environment(root)

    result = workload.run(ctx)
    result.extra["setup_s"] = (ctx.setup_s, "s")
    result.extra["fail_ratio"] = (result.failed / result.attempted, "ratio")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "wall_s": time.perf_counter() - _START,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "samples": result.samples,
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in result.e2e.items()},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.extra.items()},
        "layers": {k: {"value": v, "unit": u}
                   for k, (v, u) in result.layers.items()},
        "checks": result.checks,
        "notes": result.notes,
        "predictions": _predictions(args.workload),
    }
    if args.trace:
        record["span_totals"] = tracer.totals()
        record["tracing_overhead"] = _overhead(
            ctx.results_dir, args.workload, args.seed, result.e2e)
        (ctx.results_dir / f"{stem}.spans.json").write_text(
            json.dumps(tracer.spans))
        wanted = _metrics(spec["per_layer"], result.layers, "per-layer")
    else:
        wanted = _metrics(spec["end_to_end"], result.e2e, "end-to-end")
    (ctx.results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    lines = [f"# {args.workload} seed={args.seed} trace={args.trace} "
             f"nproc={record['environment']['nproc']} "
             f"attempted={result.attempted} failed={result.failed} "
             f"correct={result.correct}"]
    lines += _table("end-to-end (gated)", result.e2e)
    lines += _table(f"{args.workload} metrics", result.extra)
    if result.layers:
        lines += _table("per-layer", result.layers)
    if args.trace and "tracing_overhead" in record:
        for name, entry in record["tracing_overhead"].items():
            if isinstance(entry, dict):
                lines.append(f"  overhead {name:<35} {entry['diff']:>+16.6g} "
                             f"{entry['unit']}")
    for check in result.checks:
        if not check["ok"]:
            label = "FAILED CHECK" if check["gate"] else "ADVISORY"
            lines.append(f"  {label} {check['name']}: {check['detail']}")
    lines.append(f"# results: {ctx.results_dir / (stem + '.json')}")
    print("\n".join(lines))
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": wanted}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
