"""Shared measurement helpers: quantiles, memory, environment record."""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import math
import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

__all__ = [
    "Result",
    "HostClock",
    "SPIN_ITERATIONS",
    "SPIN_REF_S",
    "spin",
    "quantile",
    "median",
    "tail",
    "geomean",
    "self_peak_rss_mb",
    "pid_peak_rss_mb",
    "environment",
]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values, q: float = 0.99) -> dict:
    """``q``-quantile with its sample count and how many samples lie
    beyond it (a tail quantile is trusted only with at least ten
    samples beyond it)."""
    value = quantile(values, q)
    return {"value": value, "q": q, "samples": len(values),
            "beyond": sum(1 for v in values if v > value)}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, from procfs."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Seconds the calibration spin takes at the reference host speed: the
#: fast state of the 2-vCPU machine the bounds were set on.
SPIN_REF_S = 0.015


#: Iterations of one calibration spin.
SPIN_ITERATIONS = 10_000


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """Fixed pure-Python work shaped like the program's (dict updates,
    tuple keys, ``Fraction`` arithmetic); returns its wall seconds.
    ``SPIN_REF_S`` is its time at ``SPIN_ITERATIONS``.

    The collector is off while it runs: the spin shares the process
    with the program's heap, and a gen1/gen2 pass over that heap must
    be billed to the program, not to the spin that rescales it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        x = Fraction(1, 3)
        for i in range(iterations):
            key = (i & 63, i % 7)
            acc[key] = acc.get(key, 0) + (i * 3) % 11
            if not i % 16:
                x = (x * Fraction(3, 7) + Fraction(i % 5, 9)
                     ).limit_denominator(1000)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times operations and rescales each to the reference host speed.

    The shared 2-vCPU host this benchmark was tuned on switches each
    vCPU between a fast and a ~45% slower state for 0.1-15 s at a time
    (a busy co-tenant; the two vCPUs switch nearly independently),
    which moves whole-run medians of closed loops by 15-30%.  A fixed
    spin loop (:func:`spin`, collector off) runs in the same thread
    between consecutive operations; each operation's time is scaled by
    ``SPIN_REF_S`` over the mean of the spins around it.  Raw times are
    kept beside the scaled ones, and :meth:`summary` records how far
    the two drifted apart in the run.
    """

    def __init__(self, iterations: int = SPIN_ITERATIONS, repeats: int = 1,
                 settle_s: float = 0.0, exponent: float = 1.0) -> None:
        #: A shorter spin suits short operations; its reference time is
        #: ``SPIN_REF_S`` in proportion.  With ``repeats`` the fastest
        #: of that many spins counts, after ``settle_s`` of sleep: for
        #: work that another process finishes after ``fn`` returns.
        #: ``exponent`` is how strongly the timed work follows the
        #: spin: the factor is ``(reference / spin) ** exponent``.
        self.iterations = iterations
        self.repeats = repeats
        self.settle_s = settle_s
        self.exponent = exponent
        self.ref_s = SPIN_REF_S * iterations / SPIN_ITERATIONS
        self._last = self._spin()
        self.spins = [self._last]
        self.raw_total = self.scaled_total = 0.0

    def _spin(self) -> float:
        if self.settle_s:
            time.sleep(self.settle_s)
        return min(spin(self.iterations) for _ in range(self.repeats))

    def scale_last(self, seconds: float) -> float:
        """Rescale a time measured just before this clock's last spin."""
        return seconds * self.ref_s / self._last

    def time(self, fn):
        """``(result, raw seconds, scaled seconds)`` of ``fn()``."""
        start = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - start
        after = self._spin()
        self.spins.append(after)
        scaled = raw * (self.ref_s / ((self._last + after) / 2)
                        ) ** self.exponent
        self._last = after
        self.raw_total += raw
        self.scaled_total += scaled
        return value, raw, scaled

    def summary(self) -> dict:
        """Spin count and spread, and scaled over raw time for the
        operations :meth:`time` measured."""
        return {"spins": len(self.spins),
                "spin_median_s": median(self.spins),
                "spin_p10_s": quantile(self.spins, 0.1),
                "spin_p90_s": quantile(self.spins, 0.9),
                "scaled_over_raw": (self.scaled_total / self.raw_total
                                    if self.raw_total else None)}


def _git_sha(root: Path) -> "str | None":
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256(root: Path) -> str:
    """Digest of every ``src/`` Python file: identifies the code under
    test where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> "str | None":
    """Installed version, read without importing the package (an import
    here would add to the peak RSS the workloads report)."""
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "unix_time": time.time(),
    }


class Result:
    """What one workload run produced.

    ``e2e`` holds the gated end-to-end metrics (the names in
    ``BENCHMARK.json``), ``extra`` the workload's own named metrics
    (``compile_s``, ``serve_p99_ms`` ...), ``layers`` the per-layer
    metrics; every value is ``(value, unit)``.  ``checks`` records each
    correctness check; an operation whose output fails one counts in
    ``failed``.
    """

    def __init__(self) -> None:
        self.e2e: dict = {}
        self.extra: dict = {}
        self.layers: dict = {}
        self.checks: list = []
        self.samples: dict = {}
        self.notes: dict = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail="", *, gate=True) -> bool:
        """Record a check.  ``gate=False`` marks a timing comparison:
        reported, but machine noise must not flip ``correct``."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail,
                            "gate": gate})
        return bool(ok)

    @property
    def correct(self) -> bool:
        return (all(c["ok"] for c in self.checks if c["gate"])
                and self.failed == 0)
