"""The sim-burst workload: closed-loop failure-free n=4 atomic-broadcast
bursts in ``LanSimulation``.

No sockets, no HMAC framing, no gateway: codec, stack demux and
protocol CPU dominate the wall time.  A cycle is a fixed list of bursts
(sizes and seeds derived from ``--seed``); the run repeats the cycle
until its time is up.  Every burst is a fresh simulation, so each cycle
does exactly the same protocol work -- the run checks that it does,
counter for counter.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from collections import Counter
from typing import Any

from repro.net.network import LanSimulation

from common import BenchError, add_stack_counters, clear_codec_memos, percentile, speed_now

N = 4
#: Burst sizes (messages) of one cycle, small and large k.  A cycle of
#: 24 bursts lasts about 2-3 s on a 2-core host, so a run holds several.
CYCLE_K = (96, 16, 4) * 8
LARGE_K = max(CYCLE_K)
PAYLOAD_BYTES = 100


def cycle_plan(seed: int) -> list[tuple[int, int, list[bytes]]]:
    """``[(k, sim_seed, payloads), ...]`` for one cycle."""
    rng = random.Random(f"perfbench-sim/{seed}")
    plan = []
    for k in CYCLE_K:
        payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(k)]
        plan.append((k, rng.randrange(1 << 30), payloads))
    return plan


def burst(k: int, sim_seed: int, payloads: list[bytes]) -> dict[str, Any]:
    """One burst: every process submits k/4 messages in one coalescing
    window at t=0; runs until all four processes delivered all k.  Its
    times are scaled to the reference host by a speed measured just
    before it."""
    clear_codec_memos()
    gc.collect()
    speed = speed_now(3)
    t_setup = time.perf_counter()
    sim = LanSimulation(n=N, seed=sim_seed)
    orders: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    marks: list[float] = []
    sim_marks: list[float] = []
    for pid in range(N):
        ab = sim.stacks[pid].create("ab", ("bench",))

        def on_deliver(_instance, delivery, pid=pid) -> None:
            orders[pid].append(delivery.msg_id)
            if pid == 0:
                marks.append(time.perf_counter())
                sim_marks.append(sim.now)

        ab.on_deliver = on_deliver
    setup_s = time.perf_counter() - t_setup
    cpu = time.process_time()
    start = time.perf_counter()
    per_process = k // N
    for pid in range(N):
        stack = sim.stacks[pid]
        ab = stack.instance_at(("bench",))
        with stack.coalesce():
            for payload in payloads[pid * per_process : (pid + 1) * per_process]:
                ab.broadcast(payload)
    reason = sim.run(until=lambda: all(len(o) >= k for o in orders), max_time=600.0)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if reason != "until":
        raise BenchError(f"sim burst k={k} seed={sim_seed} stalled ({reason})")
    if any(order != orders[0] for order in orders[1:]) or len(set(orders[0])) != k:
        raise BenchError(f"sim burst k={k} seed={sim_seed}: processes delivered different orders")
    stats: Counter = Counter()
    for stack in sim.stacks:
        add_stack_counters(stats, stack.stats)
    stats["events"] = sim.loop.events_processed
    stats["agreements"] = sim.stacks[0].instance_at(("bench",)).round
    points = [start] + marks
    return {
        "k": k,
        "speed": speed,
        "setup_s": setup_s * speed,
        "wall_s": wall * speed,
        "cpu_s": cpu * speed,
        "latency_ms": [(m - start) * 1e3 * speed for m in marks],
        "gap_ms": max(b - a for a, b in zip(points, points[1:])) * 1e3 * speed,
        "sim_latency_ms": [t * 1e3 for t in sim_marks],
        "order": orders[0],
        "counters": stats,
    }


def run_cycles(seed: int, seconds: float) -> dict[str, Any]:
    """Repeat the cycle for *seconds*; check each cycle's counters and
    delivery orders equal the first's."""
    plan = cycle_plan(seed)
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    bursts: list[dict] = []
    reference = None
    cycles = 0
    while cycles == 0 or time.perf_counter() < deadline:
        results = [burst(k, sim_seed, payloads) for k, sim_seed, payloads in plan]
        signature = [(r["counters"], r["order"]) for r in results]
        if reference is None:
            reference = signature
        elif signature != reference:
            raise BenchError("sim-burst counters differ between cycles of the same seed")
        bursts.extend(results)
        cycles += 1
    digest = hashlib.sha256(repr([sorted(c.items()) for c, _ in reference]).encode()).hexdigest()
    return {
        "bursts": bursts,
        "cycles": cycles,
        "counters_digest": digest[:16],
        "cpu_s": time.process_time() - cpu0,
        "wall_s": time.perf_counter() - start,
    }


def summarize(window: dict[str, Any]) -> dict[str, Any]:
    bursts = window["bursts"]
    msgs = sum(b["k"] for b in bursts)
    latency = [ms for b in bursts for ms in b["latency_ms"]]
    counters: Counter = Counter()
    for b in bursts:
        counters.update(b["counters"])
    return {
        "setup_s": statistics.median(b["setup_s"] for b in bursts),
        "op_p50_ms": percentile(latency, 0.5),
        "op_p90_ms": percentile(latency, 0.90),
        "op_p99_ms": percentile(latency, 0.99),
        "unavailable_ms": statistics.median(b["gap_ms"] for b in bursts if b["k"] == LARGE_K),
        "sim_msgs_s": msgs / sum(b["wall_s"] for b in bursts),
        "ops_per_cpu_s": LARGE_K / statistics.median(
            b["cpu_s"] for b in bursts if b["k"] == LARGE_K
        ),
        "speed": statistics.median(b["speed"] for b in bursts),
        "sim_p50_ms": percentile([ms for b in bursts for ms in b["sim_latency_ms"]], 0.5),
        "attempted": msgs,
        "failed": 0,
        "acked": msgs,
        "wall_s": window["wall_s"],
        "cpu_s": window["cpu_s"],
        "counters": dict(counters),
        "counters_digest": window["counters_digest"],
        "cycles": window["cycles"],
    }


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    if not trace:
        return summarize(run_cycles(seed, seconds))
    result = summarize(run_cycles(seed, seconds / 2))
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        tracer.reset()
        window = run_cycles(seed, seconds / 2)
        window["trace"] = tracer.window()
    finally:
        tracer.uninstall()
    traced = summarize(window)
    if traced["counters_digest"] != result["counters_digest"]:
        raise BenchError("tracing changed the sim-burst work counters")
    traced["trace"] = window["trace"]
    result["traced"] = traced
    result["tracer"] = tracer
    return result
