"""Benchmark entry point.

    python3 perfbench/run.py --workload kv-light --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout (the package is
imported from ``src/``), checks its outputs, and prints one JSON object
as the last line of stdout::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the workload twice, each for half of ``--seconds``:
untraced, then with the per-layer wrappers of ``layers.py``, and
reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-<seed>.json`` (Chrome trace format,
opens in https://ui.perfetto.dev).  See ``perfbench/README.md`` for
what each metric means and which layer change should move it.

Exits non-zero, printing no result, when a check fails or the source
tree is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv-light", "kv-crash", "sim-burst")


def end_to_end(r: dict) -> dict[str, tuple[float, str]]:
    from common import peak_rss_mb

    return {
        "setup_s": (r["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (r["op_p50_ms"], "ms"),
        "ops_per_cpu_s": (r["ops_per_cpu_s"], "1/s"),
    }


def per_layer(r: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics.  Counts from public state, host CPU and client
    figures come from the untraced half; self times and the counts only
    the wrappers see (codec calls, HMACs, link frames, gateway wakeups)
    come from the traced half."""
    from common import REFERENCE_S

    t = r["traced"]
    tracer = r["tracer"]
    window = t["trace"]
    c = r["counters"]
    layers = window["layers_s"]
    wall = window["wall_s"]
    calls = tracer.calls

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_op(value: float) -> float:
        return value / r["acked"]

    def traced_per_op(value: float) -> float:
        return value / t["acked"]

    def self_ms(layer: str) -> float:
        return traced_per_op(layers[layer] * 1e3) * t["speed"]

    encodes = sum(n for name, n in calls.items() if name.startswith("encode"))
    decodes = sum(
        n for name, n in calls.items() if name.startswith("decode") or name == "frame_fastpath"
    )
    broadcasts = c.get("rb_broadcasts", 0) + c.get("eb_broadcasts", 0)
    cost_a = r["cpu_s"] / r["acked"] * r["speed"]
    cost_b = t["cpu_s"] / t["acked"] * t["speed"]
    tc = t["counters"]
    units = tracer.link_frames - tc.get("link_batches", 0) + tc.get("units_batched", 0)
    m = {
        "gateway.self_ms_per_op": (self_ms("gateway"), "ms"),
        "gateway.reqs_per_wakeup": (
            ratio(tracer.gateway_reqs, calls.get("ClientGateway._handle_frames", 0)), "count"),
        "gateway.retry_after": (c.get("retry_after", 0), "count"),
        "apps.self_ms_per_op": (self_ms("apps"), "ms"),
        "ab.ops_per_agreement": (ratio(r["acked"], c["agreements"]), "count"),
        "ab.agreements": (c["agreements"], "count"),
        "bc.rounds_per_decision": (ratio(c.get("bc_rounds", 0), c.get("bc_decisions", 0)), "count"),
        "mvc.default_decisions": (c.get("mvc_default", 0), "count"),
        "consensus.self_ms_per_op": (self_ms("consensus"), "ms"),
        "rb.broadcasts_per_op": (per_op(c.get("rb_broadcasts", 0)), "count"),
        "eb.broadcasts_per_op": (per_op(c.get("eb_broadcasts", 0)), "count"),
        "agreement_cost": (ratio(c.get("agreement_broadcasts", 0), broadcasts), "ratio"),
        "broadcast.self_ms_per_op": (self_ms("broadcast"), "ms"),
        "stack.frames_per_op": (per_op(c["frames"]), "count"),
        "stack.bytes_per_op": (per_op(c["bytes"]), "B"),
        "stack.ooc_stored_per_op": (per_op(c.get("ooc_stored", 0)), "count"),
        "stack.self_ms_per_op": (self_ms("stack"), "ms"),
        "wire.encodes_per_op": (traced_per_op(encodes), "count"),
        "wire.decodes_per_op": (traced_per_op(decodes), "count"),
        "wire.self_ms_per_op": (self_ms("wire"), "ms"),
        "mac.hmacs_per_op": (traced_per_op(tracer.hmacs), "count"),
        "mac.self_ms_per_op": (self_ms("mac"), "ms"),
        "tcp.link_frames_per_op": (traced_per_op(tracer.link_frames), "count"),
        "tcp.link_bytes_per_op": (traced_per_op(tracer.link_bytes), "B"),
        "tcp.units_per_link_frame": (ratio(units, tracer.link_frames), "count"),
        "tcp.frames_shed": (c.get("frames_shed", 0), "count"),
        "tcp.reconnects": (c.get("connect_attempts", 0), "count"),
        "tcp.self_ms_per_op": (self_ms("tcp"), "ms"),
        "sim.events_per_op": (per_op(c.get("events", 0)), "count"),
        "sim.loop_self_ms_per_op": (self_ms("net"), "ms"),
        "sim.simulated_p50_ms": (r.get("sim_p50_ms", 0.0), "ms"),
        "host.cpu_ms_per_op": (cost_a * 1e3, "ms"),
        "host.cpu_busy_ratio": (r["cpu_s"] / r["wall_s"], "ratio"),
        "host.reference_ms": (REFERENCE_S / r["speed"] * 1e3, "ms"),
        "client.gen_lag_p99_ms": (r.get("gen_lag_p99_ms", 0.0), "ms"),
        "op_p90_ms": (r["op_p90_ms"], "ms"),
        "op_p99_ms": (r["op_p99_ms"], "ms"),
        "get_p50_ms": (r.get("get_p50_ms", 0.0), "ms"),
        "put_p50_ms": (r.get("put_p50_ms", 0.0), "ms"),
        "unavailable_ms": (r["unavailable_ms"], "ms"),
        "ops_failed_ratio": (r["failed"] / r["attempted"], "ratio"),
        "max_rate_ops_s": (r.get("max_rate_ops_s", 0.0), "ops/s"),
        "sim_msgs_s": (r.get("sim_msgs_s", 0.0), "msgs/s"),
        "trace.overhead_ratio": (cost_b / cost_a - 1.0, "ratio"),
        "trace.other_ratio": (window["other_s"] / wall, "ratio"),
        "trace.idle_ratio": (window["idle_s"] / wall, "ratio"),
    }
    return m


def run(args: argparse.Namespace) -> dict:
    if args.workload == "sim-burst":
        import sim

        return sim.run(args.seed, args.seconds, bool(args.trace))
    import kv

    return asyncio.run(kv.run(args.workload, args.seed, args.seconds, bool(args.trace)))


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from common import BenchError

    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(result)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        result["tracer"].write_chrome_trace(str(trace_path))
        window = result["traced"]["trace"]
        print(f"trace: {trace_path.relative_to(ROOT)}")
        print("self time (s): " + json.dumps(
            {**window["layers_s"], "idle": window["idle_s"], "other": window["other_s"],
             "wall": window["wall_s"]}))
    else:
        metrics = end_to_end(result)
    for step in result.get("steps", ()):
        print(step)
    if "counters_digest" in result:
        print(f"counters_digest: {result['counters_digest']} ({result['cycles']} cycles)")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
