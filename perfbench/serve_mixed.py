"""``serve_mixed``: mixed traffic against one service process.

``python -m repro.service --port 0 --cache-dir <tmp>`` runs in its own
process, on a CPU of its own.  Set-up waits for ``/healthz`` and warms
every repro workload's catalog with one ``/v1/sweep`` per workload over
every platform and a seven-rung library ladder: 252 (block, platform,
library) keys, just under the 256-entry map LRU.

One generator process sends the requests, through at most ``nproc``
connections, in four phases:

1. Closed loop, one request at a time, warm ``/v1/map`` and
   ``/v1/pareto`` on the hot set (the gated latency ``op_ms``).  The
   generator's thread moves to the server's CPU for this phase, and a
   short fixed spin is timed there between requests: each request's
   time is rescaled toward the reference host speed by the spins
   around it (:class:`measure.HostClock`, to the measured power
   ``CLOSED_SPEED_EXPONENT``), because each vCPU of the shared host
   switches between a fast and a ~45% slower state for seconds at a
   time.  The server is idle while the spin runs, so the spin takes
   nothing from it.
2. Open loop, Poisson arrivals at a fixed nominal rate, warm requests
   only (``serve_p50_ms``/``serve_p99_ms``, timed from each request's
   scheduled send time, with the generator's lateness next to them).
3. Open-loop ladder rungs (``serve_max_rps``: the highest rate whose
   p99 meets ``LIMIT_MS``) in which a fixed share are ``/v1/map`` with
   a never-seen ``accuracy_budget``: they run the search and write
   through to the LRU and sqlite tiers while the hot keys keep being
   read, so evictions and disk-tier reads occur.
4. Capacity (the gated ``rate_per_s``): the same fixed burst of
   requests, misses included, sent all at once again and again, each
   burst after the last has drained; a spin timed on the server's CPU
   between bursts rescales each burst's time, and the capacity is the
   answers over the bursts' rescaled busy time.  The first burst is a
   warm-up.

The open-loop figures are raw and reported, not gated: queueing
multiplies the host's speed changes, and an open loop leaves no idle
moment to time a spin in.

The mix and the nominal rate are assumptions, not measurements: the
repository has no trace or log of real traffic.  Each share is set by
the job it has to do, see ``KIND_CYCLE`` and ``NOMINAL_RPS``.

Every 200 body is compared byte for byte with the in-process
``MappingSession(...).to_json()`` of the same request, after the timed
phases.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import random
import re
import shutil
import subprocess
import sys
import threading
import time

from measure import HostClock, Result, median, pid_peak_rss_mb, quantile, tail
from probes import (api_probes, check_grid, cold_grid, grid_layers,
                    import_probe, session_cache_layers)

IMPORTS = ("repro.api", "repro.service.client", "repro.resilience",
           "repro.workload")
#: The library ladder of the hot set: REF plus every combination of the
#: paper's LM, IH and IPP passes but LM+IPP.  9 blocks x 4 platforms x
#: 7 rungs = 252 keys, just under the 256-entry map LRU, so the misses'
#: write-through starts evictions and disk-tier reads early.
RUNGS = ("REF", "REF+LM", "REF+IH", "REF+IPP", "REF+LM+IH", "REF+IH+IPP",
         "REF+LM+IH+IPP")
#: Request kinds of the ladder rungs and the capacity bursts in a fixed
#: cycle of 25, restarted in every phase: 15 warm /v1/map ("hit"), 9
#: warm /v1/pareto, 1 /v1/map with a never-seen budget ("miss").
#: Assumed, not observed.  One miss in 25 is enough to push the 252 hot
#: keys past the 256-entry map LRU within the first ladder rung, so
#: evictions and disk reads start; each capacity burst sends two.  Hits
#: and pareto requests share the rest about 5:3 so each endpoint has
#: enough samples for its own p50.
KIND_CYCLE = ("hit", "pareto", "hit", "hit", "pareto") * 4 + (
    "hit", "pareto", "hit", "miss", "hit")
#: The cycle of the closed loop and the nominal phase: the same with
#: its miss sent as a hit.  With misses in it, the disk reads their
#: evictions cascade into (the hot set is just under the LRU size) were
#: a seed- and time-dependent share of the requests, and the nominal
#: p50 moved between 10 and 22 ms from seed to seed; warm-only, these
#: phases time the hot path.
WARM_CYCLE = tuple("hit" if k == "miss" else k for k in KIND_CYCLE)
#: Budget of the j-th miss of a run: a fixed list, so every seed's
#: misses prune the search alike, and each value is new to the server.
MISS_BUDGET = 1e-3
MISS_BUDGET_STEP = 1e-9
#: Shares of ``--seconds`` for the closed loop, the nominal phase, the
#: ladder (split evenly between its rungs) and the capacity bursts.
CLOSED_SHARE = 0.35
NOMINAL_SHARE = 0.15
LADDER_SHARE = 0.1
CAPACITY_SHARE = 0.4
#: Spin length between closed-loop requests: about 3 ms at the
#: reference speed, a fifth of a typical warm request.
CLOSED_SPIN_ITERATIONS = 2_000
#: How strongly a warm request's time follows the host's speed: over
#: 25-request windows of a 90 s closed loop, log request time against
#: log spin time has slope 0.40-0.43 (correlation 0.74-0.75) for four
#: spins (2k and 10k iterations, a json+sha256 spin, with and without
#: a settle), so only part of a request (loopback transport, wake-ups)
#: runs at the vCPU's changing speed.  Full rescaling overcorrected:
#: over ten seeds it spread op_ms 0.196 against 0.175 raw.
CLOSED_SPEED_EXPONENT = 0.4
#: Offered rate of the nominal phase, requests per second.  Assumed:
#: about a quarter of what one server process sustains on a 2-core
#: machine, so the median is mostly service time rather than queueing
#: behind the slow requests of the mix.
NOMINAL_RPS = 15.0
#: The max-rate ladder, requests per second.
LADDER_RPS = (45.0, 65.0, 150.0)
#: One capacity burst: one full cycle, keys walked in hot-set order,
#: so every burst sends the same requests but for its miss's budget.
#: A seeded key order or cache state moved a one-shot capacity figure
#: by up to 20% between seeds; identical bursts after a warm-up burst
#: do not depend on either.
BURST_REQUESTS = len(KIND_CYCLE)
MIN_BURSTS = 3
#: Between bursts the clock waits 10 ms for the server to finish what
#: a burst leaves behind (the miss's write-through), then takes the
#: fastest of three ~5 ms spins.  A single 15 ms spin right after each
#: burst read the host as up to 3x slow and spread the capacity 0.142
#: of its median over five seeds, against 0.061 this way.
BURST_SPIN_ITERATIONS = 3_000
#: p99 limit a ladder rung must meet: well above the slowest single
#: request (an idct8x8 miss, ~0.3 s), so only queueing breaks it.
LIMIT_MS = 1000.0
CLIENT_TIMEOUT_S = 20.0
SETUP_RUNS = 3


class Server:
    """One ``python -m repro.service`` child and its client."""

    def __init__(self, ctx, index: int, cpus):
        from repro.resilience import RetryPolicy
        from repro.service.client import ServiceClient

        self.cache_dir = ctx.results_dir / f"serve-cache-{os.getpid()}-{index}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        # The server inherits the server CPU; this process returns to
        # the generator CPUs once it is spawned.
        generator_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--cache-dir", str(self.cache_dir)],
                cwd=ctx.root, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)
        finally:
            os.sched_setaffinity(0, generator_cpus)
        line = self.proc.stdout.readline()
        found = re.search(r"http://\S+", line)
        if found is None:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = found.group(0)
        # One attempt per request: a refused or failed request is a
        # failure to count, not something to retry away.
        self.policy = RetryPolicy(attempts=1)
        self.client = ServiceClient(self.url, timeout=CLIENT_TIMEOUT_S,
                                    retry=self.policy)
        try:
            self.client.wait_healthy(deadline=60.0)
        except BaseException:
            self.close()
            raise

    def new_client(self):
        from repro.service.client import ServiceClient
        return ServiceClient(self.url, timeout=CLIENT_TIMEOUT_S,
                             retry=self.policy)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _warm(server, workloads) -> dict:
    bodies = {}
    for key in workloads:
        status, body = server.client.request_bytes(
            "POST", "/v1/sweep", {"workload": key, "libraries": list(RUNGS)})
        if status != 200:
            raise RuntimeError(f"warm sweep of {key} answered {status}")
        bodies[key] = body
    return bodies


def _hot_set(workloads, platforms):
    from repro.workload import workload_named

    return [(key, block, platform, rung)
            for key in workloads
            for block in workload_named(key).block_names()
            for platform in platforms
            for rung in RUNGS]


class Mix:
    """Builds request lists over the hot set.

    The mix is stratified so every seed sends the same composition:
    kinds follow a fixed cycle and blocks cycle through the nine blocks
    from the start of each list (the cycle lengths are coprime, so
    every kind meets every block equally often).  A warm request walks
    its block's 28 (platform, library rung) keys, in a seeded
    permutation when given ``rng`` and in hot-set order otherwise.  The
    k-th miss of a list maps its block on platform k mod 4 with the full
    library, under the next budget of the run's fixed miss list.
    """

    def __init__(self, hot, blocks, platforms) -> None:
        self.keys: dict = {}
        for item in hot:
            self.keys.setdefault(item[1], []).append(item)
        self.blocks = blocks
        self.platforms = platforms
        self.budgets = 0

    def requests(self, kinds, count, rng=None) -> list:
        """``count`` requests ``[(kind, path, body)]``."""
        from repro.api.types import canonical_json

        walks = {block: [] for block in self.keys}
        out = []
        misses = 0
        for n in range(count):
            kind = kinds[n % len(kinds)]
            key, block = self.blocks[n % len(self.blocks)]
            if kind == "miss":
                platform = self.platforms[misses % len(self.platforms)]
                rung = RUNGS[-1]
                misses += 1
            else:
                if not walks[block]:
                    keys = self.keys[block]
                    walks[block] = (rng.sample(keys, len(keys)) if rng
                                    else keys[::-1])
                _k, _b, platform, rung = walks[block].pop()
            payload = {"block": block, "workload": key,
                       "platform": platform, "library": rung.split("+")}
            if kind == "miss":
                payload["accuracy_budget"] = (MISS_BUDGET
                                              + self.budgets * MISS_BUDGET_STEP)
                self.budgets += 1
            path = "/v1/pareto" if kind == "pareto" else "/v1/map"
            out.append((kind, path, canonical_json(payload)))
        return out


def _poisson(rng, rate, seconds) -> list:
    """Arrival offsets of a Poisson stream at ``rate`` for ``seconds``."""
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


@contextlib.contextmanager
def _on(cpus):
    """Run the calling thread on ``cpus`` (on Linux, affinity set with
    pid 0 is the calling thread's own)."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _send(client, tracer, kind, path, body) -> dict:
    status, data, error = None, b"", None
    with tracer.span("service.request", op=tracer.new_op(), kind=kind):
        try:
            status, data = client.request_bytes("POST", path, body)
        except Exception as exc:  # counted as a failed request
            error = repr(exc)
    return {"status": status, "body": data, "error": error}


def _closed_loop(server, requests, seconds, tracer, cpus) -> list:
    """Send ``requests`` one at a time until ``seconds`` pass, on the
    server's CPUs, each timed by a :class:`HostClock`; one record per
    request sent."""
    records = []
    with _on(cpus):
        clock = HostClock(CLOSED_SPIN_ITERATIONS,
                          exponent=CLOSED_SPEED_EXPONENT)
        deadline = time.perf_counter() + seconds
        for kind, path, body in requests:
            if time.perf_counter() >= deadline:
                break
            record, raw, scaled = clock.time(
                lambda: _send(server.client, tracer, kind, path, body))
            record.update(raw_s=raw, scaled_s=scaled)
            records.append(record)
    if len(records) == len(requests):
        raise RuntimeError("closed loop ran out of requests")
    return records


def _drive(server, schedule, connections, tracer, cpus, lead=0.05):
    """Send ``schedule``, ``[(due s after start, kind, path, body)]``,
    open-loop from ``connections`` threads on ``cpus``, starting
    ``lead`` seconds after the threads; one record per request, with
    its due and done times."""
    records = [None] * len(schedule)
    lags = [0.0] * len(schedule)
    work: queue.Queue = queue.Queue()

    def worker():
        os.sched_setaffinity(0, cpus)
        client = server.new_client()
        while True:
            item = work.get()
            if item is None:
                return
            index, due = item
            record = _send(client, tracer, *schedule[index][1:])
            record.update(due=due, done=time.perf_counter())
            records[index] = record

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    start = time.perf_counter() + lead
    for index, (offset, *_rest) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags[index] = time.perf_counter() - due
        work.put((index, due))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=CLIENT_TIMEOUT_S + 10)
    return records, lags


def _capacity(server, mix, seconds, connections, tracer, server_cpus,
              generator_cpus):
    """Identical bursts of ``BURST_REQUESTS`` all due at once, each
    after the last has drained, until ``seconds`` pass (at least
    ``MIN_BURSTS`` after the warm-up burst).  Returns the sent requests,
    their records and, per timed burst, ``(answers, seconds from its
    start to its last answer, host-speed factor)``."""
    sent, records, bursts = [], [], []
    # The main thread waits and spins on the server's CPUs; the
    # senders run on the generator's.
    with _on(server_cpus):
        clock = HostClock(BURST_SPIN_ITERATIONS, repeats=3, settle_s=0.01)
        deadline = None
        while deadline is None or (time.perf_counter() < deadline
                                   or len(bursts) < MIN_BURSTS):
            burst = mix.requests(KIND_CYCLE, BURST_REQUESTS)
            schedule = [(0.0, *request) for request in burst]
            (got, _lags), raw, scaled = clock.time(lambda: _drive(
                server, schedule, connections, tracer, generator_cpus,
                lead=0.002))
            sent += burst
            records += got
            if deadline is None:
                # The warm-up burst is sent and checked, not timed.
                deadline = time.perf_counter() + seconds
                continue
            done = [r["done"] for r in got
                    if r is not None and r["status"] == 200]
            span = (max(done) - min(r["due"] for r in got if r is not None)
                    if done else raw)
            bursts.append((len(done), span, scaled / raw))
    return sent, records, bursts


def _latencies_ms(records, indices):
    out = []
    for i in indices:
        r = records[i]
        ok = r is not None and r["status"] == 200
        out.append((r["done"] - r["due"]) * 1e3 if ok else float("inf"))
    return out


def _rung_passes(latencies) -> tuple:
    """``(passes, p99)`` of one ladder rung.  Latency runs from the
    scheduled send time, so a growing backlog lifts the p99 of the
    rung's later requests past the limit; a failed request counts as
    infinitely late."""
    p99 = quantile(latencies, 0.99)
    return p99 <= LIMIT_MS, p99


def _max_rps(ladder) -> float:
    """Highest ladder rate meeting the limit, interpolated on p99 into
    the first failing rung (a continuous read of the same ladder)."""
    best = None
    for rate, (ok, p99) in ladder:
        if ok:
            best = (rate, p99)
            continue
        if best is None:
            # Even the lowest rung misses: scale it by how far it missed.
            return rate * LIMIT_MS / p99 if p99 != float("inf") else \
                rate * 0.5
        prev_rate, prev_p99 = best
        if p99 == float("inf"):
            return prev_rate
        share = (LIMIT_MS - prev_p99) / (p99 - prev_p99)
        return prev_rate + (rate - prev_rate) * share
    return best[0]


def _bucket_p(snapshot_before, snapshot_after, bounds, q):
    """``q``-quantile (ms) of the server-side histogram difference."""
    buckets = [0] * len(bounds)
    for endpoint in ("/v1/map", "/v1/pareto"):
        after = snapshot_after.get(endpoint, {}).get("buckets")
        if after is None:
            continue
        before = snapshot_before.get(endpoint, {}).get("buckets",
                                                       [0] * len(after))
        for i, (a, b) in enumerate(zip(after, before)):
            buckets[i] += a - b
    total = sum(buckets)
    if not total:
        return 0.0
    rank = q * total
    seen = 0
    lower = 0.0
    for bound, count in zip(bounds, buckets):
        upper = float("inf") if bound == "inf" else bound
        if count and seen + count >= rank:
            if upper == float("inf"):
                return lower * 1e3
            return (lower + (upper - lower) * (rank - seen) / count) * 1e3
        seen += count
        lower = upper
    return lower * 1e3


def _class_mean_ms(classes, field) -> float:
    """Mean over (kind, block) classes of each class's median ``field``,
    weighted by the class's share of ``WARM_CYCLE``: the per-request
    time of the warm mix, with a stall or a collector pass moving only
    the samples it hits."""
    total = weights = 0.0
    for (kind, _block), samples in classes.items():
        weight = WARM_CYCLE.count(kind)
        total += weight * median([r[field] for r in samples])
        weights += weight
    return total / weights * 1e3 if weights else 0.0


def run(ctx) -> Result:
    from repro.platform.registry import DEFAULT_REGISTRY
    from repro.workload import registered_workloads, workload_named

    result = Result()
    rng = random.Random(ctx.seed)
    workloads = registered_workloads()
    platforms = list(DEFAULT_REGISTRY.names())
    # The server gets the first CPU to itself and the generator's
    # senders the rest, so they do not compete with the server.
    cpus = sorted(os.sched_getaffinity(0))
    connections = len(cpus)
    server_cpus = {cpus[0]}
    generator_cpus = set(cpus[1:]) or server_cpus
    os.sched_setaffinity(0, generator_cpus)
    imports = [ctx.import_s] + [import_probe(ctx.root, IMPORTS)
                                for _ in range(SETUP_RUNS - 1)]
    spawn = []
    server = None
    try:
        # Raw: spins on the server's CPU at the two ends of each
        # set-up, or between its warm sweeps, did not track it and
        # widened its spread over five seeds (0.094 -> 0.16, and
        # 0.100 -> 0.132).
        for index in range(SETUP_RUNS):
            if server is not None:
                server.close()
            start = time.perf_counter()
            server = Server(ctx, index, server_cpus)
            warm_bodies = _warm(server, workloads)
            spawn.append(time.perf_counter() - start)
        result.samples["setup_runs"] = SETUP_RUNS
        ctx.mark_setup_done(median(imports) + median(spawn))

        hot = _hot_set(workloads, platforms)
        blocks = [(k, b) for k in workloads
                  for b in workload_named(k).block_names()]
        mix = Mix(hot, blocks, platforms)
        stats_before = server.client.stats()["caches"]
        metrics_before = server.client.metrics()

        # ``sent[i]`` is ``(phase, kind, path, body)`` of ``records[i]``.
        closed_s = ctx.seconds * CLOSED_SHARE
        # At least a millisecond a request: more than the loop can send.
        closed = mix.requests(WARM_CYCLE, int(closed_s * 1e3) + 100, rng)
        records = _closed_loop(server, closed, closed_s, ctx.tracer,
                               server_cpus)
        sent = [("closed", *r) for r in closed[:len(records)]]

        lags = {}
        open_phases = [("nominal", NOMINAL_RPS, ctx.seconds * NOMINAL_SHARE,
                        WARM_CYCLE)] + [
            (f"ladder{rate:g}", rate,
             ctx.seconds * LADDER_SHARE / len(LADDER_RPS), KIND_CYCLE)
            for rate in LADDER_RPS]
        for name, rate, seconds, kinds in open_phases:
            offsets = _poisson(rng, rate, seconds)
            requests = mix.requests(kinds, len(offsets), rng)
            got, lags[name] = _drive(
                server, [(t, *r) for t, r in zip(offsets, requests)],
                connections, ctx.tracer, generator_cpus)
            sent += [(name, *r) for r in requests]
            records += got

        burst_sent, burst_records, bursts = _capacity(
            server, mix, ctx.seconds * CAPACITY_SHARE, connections,
            ctx.tracer, server_cpus, generator_cpus)
        sent += [("capacity", *r) for r in burst_sent]
        records += burst_records
        stats_after = server.client.stats()["caches"]
        metrics_after = server.client.metrics()
        rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.close()

    by_phase: dict = {}
    for i, item in enumerate(sent):
        by_phase.setdefault(item[0], []).append(i)
    classes: dict = {}
    for i in by_phase["closed"]:
        if records[i]["status"] == 200:
            block = json.loads(sent[i][3])["block"]
            classes.setdefault((sent[i][1], block), []).append(records[i])
    closed_ms = _class_mean_ms(classes, "scaled_s")
    nominal = by_phase["nominal"]
    lat = _latencies_ms(records, nominal)
    ladder = []
    for name, rate, *_rest in open_phases[1:]:
        ladder.append((rate, _rung_passes(_latencies_ms(
            records, by_phase.get(name, [])) or [float("inf")])))
    max_rps = _max_rps(ladder)
    # Answers over busy time, summed over the bursts: a slow burst
    # every few (one in five here, at the same place in every run) must
    # weigh in, so no median of burst rates.
    answers = sum(n for n, _span, _factor in bursts)
    capacity = answers / sum(span * factor for _n, span, factor in bursts)
    capacity_raw = answers / sum(span for _n, span, _factor in bursts)

    # Correctness: the warm sweeps and every 200 body against the
    # in-process reference; the reference's winners against Table 5
    # and sympy.
    grid = cold_grid(workloads, platforms, RUNGS, tracer=ctx.tracer,
                     map_block_lru=4096)
    session = grid.session
    for key, body in warm_bodies.items():
        same = json.loads(body) == json.loads(grid.reports[key].to_json())
        result.check(f"warm /v1/sweep {key} equals in-process sweep", same)
    bad = check_grid(ctx.root, result, grid)
    expected: dict = {}
    result.attempted = len(sent)
    mismatched = 0
    for (_phase, _kind, path, body), r in zip(sent, records):
        payload = json.loads(body)
        if (r is None or r["status"] != 200
                or (payload["workload"], payload["block"]) in bad):
            result.failed += 1
            continue
        ident = (path, body)
        if ident not in expected:
            expected[ident] = _expected(session, path, body)
        if r["body"] != expected[ident]:
            result.failed += 1
            mismatched += 1
    statuses: dict = {}
    for r in records:
        label = "error" if r is None or r["status"] is None else r["status"]
        statuses[str(label)] = statuses.get(str(label), 0) + 1
    result.notes["statuses"] = statuses
    result.notes["errors"] = sorted({r["error"] for r in records
                                     if r is not None and r["error"]})[:5]
    result.check("every 200 body byte-identical to in-process to_json()",
                 mismatched == 0, f"{mismatched} mismatched bodies")
    mapped_cycles = sum(grid.cycles().values())
    p99 = tail(lat, 0.99)
    lag_p99 = quantile(lags["nominal"], 0.99) * 1e3
    result.samples.update({
        "requests": len(sent),
        "closed_requests": len(by_phase["closed"]),
        "closed_classes": len(classes),
        "nominal_requests": len(nominal),
        "nominal_p99_beyond": p99["beyond"],
        "ladder_requests": {name: len(by_phase.get(name, []))
                            for name, *_rest in open_phases[1:]},
        "capacity_bursts": len(bursts),
        "burst_requests": BURST_REQUESTS,
        "connections": connections,
    })

    def latency_ms(i):
        r = records[i]
        if r is None:
            return None
        seconds = r["raw_s"] if "raw_s" in r else r["done"] - r["due"]
        return round(seconds * 1e3, 3)

    result.notes["requests"] = [
        [sent[i][0], sent[i][1], json.loads(sent[i][3])["block"],
         latency_ms(i)] for i in range(len(sent))]
    result.notes["ladder"] = [{"rps": rate, "passes": ok, "p99_ms": p}
                              for rate, (ok, p) in ladder]
    result.notes["bursts"] = [{"answers": n, "span_s": span,
                               "host_factor": factor}
                              for n, span, factor in bursts]
    result.e2e = {
        "setup_s": (ctx.setup_s, "s"),
        "op_ms": (closed_ms, "ms"),
        "rate_per_s": (capacity, "1/s"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.extra = {
        "serve_closed_ms": (closed_ms, "ms"),
        "serve_closed_raw_ms": (_class_mean_ms(classes, "raw_s"), "ms"),
        "serve_p50_ms": (median(lat), "ms"),
        "serve_p90_ms": (tail(lat, 0.90)["value"], "ms"),
        "serve_p99_ms": (p99["value"], "ms"),
        "serve_max_rps": (max_rps, "1/s"),
        "serve_capacity_rps": (capacity, "1/s"),
        "serve_capacity_raw_rps": (capacity_raw, "1/s"),
        "bench.gen_lag_p99_ms": (lag_p99, "ms"),
        "mapped_cycles": (mapped_cycles, "cycles"),
        "server_peak_rss_mb": (rss, "MB"),
    }

    if ctx.tracer.enabled:
        layers = grid_layers(ctx.tracer, grid)
        layers.update(session_cache_layers(stats_before, stats_after))

        def kind_p50(kind, indices):
            values = [(records[i]["done"] - records[i]["due"]) * 1e3
                      for i in indices if sent[i][1] == kind
                      and records[i] is not None
                      and records[i]["status"] == 200]
            return median(values) if values else 0.0

        ladder_indices = [i for name, *_rest in open_phases[1:]
                          for i in by_phase.get(name, [])]
        layers["service.map_hit_p50_ms"] = (kind_p50("hit", nominal), "ms")
        layers["service.map_miss_p50_ms"] = (
            kind_p50("miss", ladder_indices), "ms")
        layers["service.pareto_p50_ms"] = (kind_p50("pareto", nominal),
                                           "ms")
        bounds = metrics_after["bucket_bounds_seconds"]
        layers["service.server_p50_ms"] = (_bucket_p(
            metrics_before["endpoints"], metrics_after["endpoints"],
            bounds, 0.5), "ms")
        layers["service.server_p99_ms"] = (_bucket_p(
            metrics_before["endpoints"], metrics_after["endpoints"],
            bounds, 0.99), "ms")
        layers["service.coalesced"] = (
            metrics_after["singleflight"]["coalesced"]
            - metrics_before["singleflight"]["coalesced"], "count")
        layers["service.shed"] = (
            metrics_after["admission"]["shed"]
            - metrics_before["admission"]["shed"], "count")
        layers["bench.gen_lag_p99_ms"] = (lag_p99, "ms")
        requests = [(block, tuple(RUNGS[-1].split("+")), platform, key)
                    for key, block, platform, rung in hot
                    if rung == RUNGS[-1]]
        layers.update(api_probes(session, requests, ctx.tracer))
        result.layers = layers
    return result


def _expected(session, path, body) -> bytes:
    payload = json.loads(body)
    kwargs = {"library": tuple(payload["library"]),
              "platform": payload["platform"],
              "workload": payload["workload"]}
    if "accuracy_budget" in payload:
        kwargs["accuracy_budget"] = payload["accuracy_budget"]
    if path == "/v1/pareto":
        return session.pareto(payload["block"], **kwargs).to_json()
    return session.map(payload["block"], **kwargs).to_json()
