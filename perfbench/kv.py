"""The kv-* workloads: a 4-replica group and its gateway in this process,
load from one client process (``client.py``) over two connections.

The system under test is the default ``GroupConfig(4)``: four
``RitasNode`` replicas on loopback TCP plus a ``ClientGateway`` on
replica 0, all on this process's asyncio loop.  Gets are ordered no-op
commands, so gets and puts both pay for agreement.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from repro.apps.state_machine import Command
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway.server import ClientGateway, GatewayServices
from repro.transport.tcp import PeerAddress, RitasNode

from client import step_verdict
from common import (
    BenchError,
    SpeedSampler,
    add_stack_counters,
    clear_codec_memos,
    percentile,
    speed_now,
)

CLIENT = Path(__file__).resolve().with_name("client.py")
N = 4
#: Group boots per run, half before the load and half after it, so the
#: median ``setup_s`` spans the run rather than one moment of it.
BOOTS = 24
#: Replica closed in kv-crash (not the gateway's replica 0).
CRASHED = 3
#: kv-crash closes it this far into the load; its latencies are read on
#: the ops due after the crash, when three replicas run with zero slack.
CRASH_AT = 0.2

#: Offered rate of both workloads, ops/s.  It leaves the group process
#: idle most of the time, even on a slow spell of the host: near
#: saturation the group packs more ops into each agreement, so latency
#: and retained memory (one agreement's state each) follow host speed.
RATE = 15.0
#: Rate ladder of traced kv-light runs, climbed after the RATE step.
LADDER = (240.0, 280.0, 320.0, 360.0, 400.0, 450.0, 500.0, 600.0)
#: Each ladder rung lasts this share of ``--seconds``.
RUNG_SHARE = 0.1
#: Latency limit on p99 for the ladder, ms.
P99_LIMIT_MS = 1000.0


class Group:
    """Four replicas, their kv/lock services and the gateway."""

    def __init__(self, nodes, services, gateway, port):
        self.nodes: list[RitasNode] = nodes
        self.services: list[GatewayServices] = services
        self.gateway: ClientGateway = gateway
        self.port: int = port
        self.crashed: set[int] = set()

    @property
    def live(self) -> list[int]:
        return [pid for pid in range(N) if pid not in self.crashed]

    async def crash(self, pid: int) -> None:
        self.crashed.add(pid)
        await self.nodes[pid].close()

    async def close(self) -> None:
        await self.gateway.close()
        for node in self.nodes:
            await node.close()


async def boot(seed: int) -> tuple[Group, float]:
    """Boot a group and wait until it is ready: an ordered no-op has
    been applied at every replica.  Returns the group and the boot
    time in seconds."""
    clear_codec_memos()
    gc.collect()
    start = time.perf_counter()
    config = GroupConfig(N)
    dealer = TrustedDealer(N, seed=f"perfbench/{seed}".encode())
    blank = [PeerAddress("127.0.0.1", 0)] * N
    nodes = [
        RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=seed) for pid in range(N)
    ]
    for node in nodes:
        await node.listen()
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
        await node.connect()
    services = [GatewayServices.attach(node) for node in nodes]
    gateway = ClientGateway(nodes[0], services[0])
    port = await gateway.listen()
    services[0].kv.rsm.submit(Command("get", ["ready"]))
    deadline = start + 30.0
    while not all(s.kv.rsm.applied for s in services):
        if time.perf_counter() > deadline:
            raise BenchError("group did not become ready within 30 s")
        await asyncio.sleep(0.001)
    return Group(nodes, services, gateway, port), time.perf_counter() - start


async def time_boots(seed: int, count: int) -> list[float]:
    """Boot and close *count* groups; returns their boot times, each
    scaled to the reference host by a speed measured just before it."""
    times = []
    for _ in range(count):
        speed = speed_now()
        group, took = await boot(seed)
        times.append(took * speed)
        await group.close()
    return times


def counters(group: Group) -> dict[str, float]:
    """Work counters from public state, summed over all replicas (a
    closed replica's counters stop at its close)."""
    out: Counter = Counter()
    for pid in range(N):
        node = group.nodes[pid]
        add_stack_counters(out, node.stack.stats)
        out["units_batched"] += node.frames_batched
        out["link_batches"] += node.batches_sent
        out["frames_shed"] += node.frames_shed
        out["connect_attempts"] += node.connect_attempts
    out["agreements"] = group.services[0].kv.rsm.ab.round
    out["retry_after"] = group.gateway.ops_retry_after
    return dict(out)


async def _read_client(proc, on_start) -> dict:
    """Read the client's output: ``START <t0>``, then one JSON line."""
    result = None
    while True:
        line = await proc.stdout.readline()
        if not line:
            break
        text = line.decode().strip()
        if text.startswith("START "):
            on_start(float(text.split()[1]))
        elif text.startswith("{"):
            result = json.loads(text)
    if await proc.wait() != 0 or result is None:
        raise BenchError(f"client exited with code {proc.returncode}")
    return result


async def drive(group: Group, seed: int, steps: list[tuple[float, float]], *,
                crash_at: float | None, ladder: bool = False, tracer=None) -> dict[str, Any]:
    """Run the client against *group*; returns its steps plus the group
    process's CPU, wall and counter deltas over the load."""
    spec = ",".join(f"{rate:g}:{seconds:g}" for rate, seconds in steps)
    args = [sys.executable, str(CLIENT), "--port", str(group.port), "--seed", str(seed),
            "--steps", spec]
    if ladder:
        args += ["--stop-p99-ms", str(P99_LIMIT_MS)]
    proc = await asyncio.create_subprocess_exec(
        *args, stdout=asyncio.subprocess.PIPE, limit=1 << 28
    )
    window: dict[str, Any] = {}
    crash_task: list[asyncio.Task] = []
    sampler = SpeedSampler()

    def on_start(t0: float) -> None:
        sampler.start()
        window["t0"] = t0
        window["cpu0"] = time.process_time()
        window["counters0"] = counters(group)
        if tracer is not None:
            tracer.reset()
        if crash_at is not None:
            crash_task.append(asyncio.create_task(crash_later(t0 + crash_at)))

    async def crash_later(when: float) -> None:
        await asyncio.sleep(max(0.0, when - time.monotonic()))
        window["crash"] = time.monotonic()
        await group.crash(CRASHED)

    try:
        result = await asyncio.wait_for(_read_client(proc, on_start), timeout=150.0)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        for task in crash_task:
            if not task.done():
                task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        await sampler.stop()
    if "t0" not in window:
        raise BenchError("client never started its schedule")
    window["wall"] = time.monotonic() - window["t0"]
    window["cpu"] = time.process_time() - window["cpu0"]
    window["sampler"] = sampler
    window["counters"] = {
        key: value - window["counters0"].get(key, 0)
        for key, value in counters(group).items()
    }
    if tracer is not None:
        window["trace"] = tracer.window()
    window["steps"] = result["steps"]
    return window


async def settle(group: Group) -> None:
    """Wait until every live replica has applied the same log."""
    deadline = time.monotonic() + 20.0
    while True:
        logs = [len(group.services[pid].kv.rsm.applied) for pid in group.live]
        if len(set(logs)) == 1:
            await asyncio.sleep(0.2)
            again = [len(group.services[pid].kv.rsm.applied) for pid in group.live]
            if again == logs:
                return
        if time.monotonic() > deadline:
            raise BenchError(f"live replicas did not converge: applied lengths {logs}")
        await asyncio.sleep(0.05)


def check(group: Group, steps: list[dict]) -> None:
    """Fail loudly unless the run's outputs are correct.

    - every acknowledged op appears exactly once in each live replica's
      applied log, as the command the client sent;
    - live replicas end with equal ``state_digest()``;
    - every get returned exactly the value of the last put to its key
      ordered before it in the gateway replica's applied log (``None``
      when there is none): the gateway reads at the get's apply.
    """
    logs = {}
    for pid in group.live:
        entries: dict[tuple[int, int], list] = {}
        for delivery, command in group.services[pid].kv.rsm.applied:
            entries.setdefault(delivery.msg_id, []).append(command)
        logs[pid] = entries
    state: dict[str, str] = {}
    reads: dict[tuple[int, int], str | None] = {}
    for delivery, command in group.services[0].kv.rsm.applied:
        if command.op == "put":
            state[command.args[0]] = command.args[1].decode()
        elif command.op == "get":
            reads[delivery.msg_id] = state.get(command.args[0])
    for step in steps:
        for op in step["ops"]:
            if op["status"] != "ok":
                continue
            msg_id = tuple(op["id"])
            for pid, entries in logs.items():
                found = entries.get(msg_id, [])
                if len(found) != 1:
                    raise BenchError(
                        f"acked {op['op']} {msg_id} applied {len(found)} times at replica {pid}"
                    )
                command = found[0]
                if command.op != op["op"] or command.args[0] != op["key"]:
                    raise BenchError(f"acked op {msg_id} applied as {command} at replica {pid}")
                if op["op"] == "put" and command.args[1].decode() != op["value"]:
                    raise BenchError(f"acked put {msg_id} applied with another value")
            if op["op"] == "get" and op.get("result") != reads[msg_id]:
                raise BenchError(
                    f"get {op['key']} {msg_id} returned {op.get('result')!r}, "
                    f"the log orders it after {reads[msg_id]!r}"
                )
    digests = {group.services[pid].kv.rsm.state_digest() for pid in group.live}
    if len(digests) != 1:
        raise BenchError(f"live replicas {group.live} disagree on state digest")


def latencies_ms(ops: list[dict], kind: str | None = None,
                 sampler: SpeedSampler | None = None) -> list[float]:
    """Latencies of the acked *ops* (of one *kind*), each scaled by the
    host speed *sampler* measured around it, when one is given."""
    return [
        (op["ack"] - op["due"]) * 1e3
        * (sampler.speed_over(op["due"], op["ack"]) if sampler else 1.0)
        for op in ops
        if op["status"] == "ok" and (kind is None or op["op"] == kind)
    ]


def longest_gap_ms(ops: list[dict], after: float) -> float:
    """Longest time between consecutive acks at or after *after*
    (the first gap starts at *after*)."""
    acks = sorted(op["ack"] for op in ops if op["status"] == "ok" and op["ack"] >= after)
    if not acks:
        return float("inf")
    points = [after] + acks
    return max(b - a for a, b in zip(points, points[1:])) * 1e3


def max_rate(steps: list[dict]) -> float:
    """Highest offered rate meeting the p99 limit with no backlog,
    linearly interpolated on p99 between the last passing rung and the
    first failing one (a failure by lost ops or backlog takes the last
    passing rung); 0 when the first rung already fails."""
    passed = [s for s in steps if s["passed"]]
    if not passed:
        return 0.0
    best = passed[-1]
    failed = [s for s in steps if not s["passed"]]
    if not failed or not best["p99_ms"] < P99_LIMIT_MS < failed[0]["p99_ms"] < float("inf"):
        return best["rate"]
    nxt = failed[0]
    share = (P99_LIMIT_MS - best["p99_ms"]) / (nxt["p99_ms"] - best["p99_ms"])
    return best["rate"] + share * (nxt["rate"] - best["rate"])


def step_line(step: dict) -> str:
    lat = latencies_ms(step["ops"])
    return (
        f"step rate={step['rate']:g}/s ops={len(step['ops'])} "
        f"p50={percentile(lat, 0.5):.1f}ms p99={percentile(lat, 0.99):.1f}ms"
    )


async def load(workload: str, seed: int, seconds: float, load_s: float,
               crash_at: float | None, trace: bool) -> tuple[float, dict, list[dict]]:
    """Boot a group, run the RATE step on it (then, for a
    traced kv-light, the rate ladder), check it and close it.  Returns
    the boot time, the step's window and the ladder's steps.  The group
    is unreachable once this returns, so later boots start on a heap
    that no longer holds its logs."""
    speed = speed_now()
    group, took = await boot(seed)
    took *= speed
    try:
        window = await drive(group, seed, [(RATE, load_s)], crash_at=crash_at)
        await settle(group)
        check(group, window["steps"])
        ladder = []
        if trace and workload == "kv-light":
            first = window["steps"][0]
            first["passed"], first["p99_ms"] = step_verdict(first["ops"], P99_LIMIT_MS)
            ladder.append(first)
            if first["passed"]:
                rungs = [(r, seconds * RUNG_SHARE) for r in LADDER]
                climbed = await drive(group, seed + 1, rungs, crash_at=None, ladder=True)
                await settle(group)
                check(group, climbed["steps"])
                ladder += climbed["steps"]
    finally:
        await group.close()
    return took, window, ladder


async def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run.  Untraced: RATE for *seconds*.  Traced:
    two halves at that rate, untraced then traced, and for kv-light the
    rate ladder in between (on the untraced group)."""
    load_s = seconds / 2 if trace else seconds
    crash_at = CRASH_AT * load_s if workload == "kv-crash" else None
    boots = await time_boots(seed, BOOTS // 2 - 1)
    took, window, ladder = await load(workload, seed, seconds, load_s, crash_at, trace)
    boots.append(took)
    boots += await time_boots(seed, BOOTS // 2)
    result = summarize(window, boots)
    if ladder:
        result["max_rate_ops_s"] = max_rate(ladder)
        result["steps"] = [step_line(s) + f" passed={s['passed']}" for s in ladder]
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.watch_idle(asyncio.get_running_loop())
            group, _ = await boot(seed)
            tracer.gateway_port = group.port
            try:
                traced = await drive(group, seed, [(RATE, load_s)], crash_at=crash_at,
                                     tracer=tracer)
                await settle(group)
                check(group, traced["steps"])
            finally:
                await group.close()
        finally:
            tracer.uninstall()
        result["traced"] = summarize(traced, boots)
        result["tracer"] = tracer
    return result


def summarize(window: dict[str, Any], boots: list[float]) -> dict[str, Any]:
    """Figures of a one-step window (the load the metrics are read on),
    scaled to the reference host: each op's latency by the speed sampled
    around it, CPU by the speed over the window."""
    (step,) = window["steps"]
    ops = step["ops"]
    acked = [op for op in ops if op["status"] == "ok"]
    if not acked:
        raise BenchError("no op was acknowledged")
    start = window.get("crash", step["t0"])
    measured = [op for op in ops if op["due"] >= start]
    sampler = window["sampler"]
    speed = sampler.speed()
    lat = latencies_ms(measured, sampler=sampler)
    return {
        "setup_s": statistics.median(boots),
        "op_p50_ms": percentile(lat, 0.5),
        "op_p90_ms": percentile(lat, 0.90),
        "op_p99_ms": percentile(lat, 0.99),
        "get_p50_ms": percentile(latencies_ms(measured, "get", sampler), 0.5),
        "put_p50_ms": percentile(latencies_ms(measured, "put", sampler), 0.5),
        "unavailable_ms": longest_gap_ms(ops, start) * speed,
        "attempted": len(ops),
        "failed": len(ops) - len(acked),
        "acked": len(acked),
        "ops_per_cpu_s": len(acked) / (window["cpu"] * speed),
        "speed": speed,
        "wall_s": window["wall"],
        "cpu_s": window["cpu"],
        "counters": window["counters"],
        "gen_lag_p99_ms": percentile([(op["sent"] - op["due"]) * 1e3 for op in ops], 0.99),
        "trace": window.get("trace"),
        "steps": [step_line(step)],
    }
