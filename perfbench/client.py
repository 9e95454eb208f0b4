"""Open-loop KV client for the benchmark, run as its own process.

    python3 perfbench/client.py --port P --seed S --steps 40:20 [--stop-p99-ms 1000]

Each step of ``--steps RATE:SECONDS,...`` is a Poisson schedule built
from the seed, conditioned on its count: RATE x SECONDS ops at
independent uniform instants, so every seed offers the same number of
ops.  50/50 get/put, Zipf(1.1) keys over 1000 keys, 32-byte values that
are unique per op.  Ops go out on at most two connections
at their due instants, whatever earlier ops are doing, and each op is
timed from its due instant, so a stall of the generator or the server
shows up in every op queued behind it.  How late the generator itself
sent each op is recorded too.

The client speaks the gateway protocol through the public functions of
``repro.gateway.protocol`` only.  Before the first op it prints
``START <t0>`` (``time.monotonic`` seconds, shared by every process on
the host); at the end it prints one JSON object with every op.

With ``--stop-p99-ms`` the steps form a rate ladder: the client stops
after the first step whose p99 latency exceeds the limit, that lost an
op, or that built a backlog.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from bisect import bisect_left
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import percentile  # noqa: E402
from repro.gateway.protocol import (  # noqa: E402
    FrameReader,
    decode_response,
    encode_request,
)

CONNECTIONS = 2
KEY_SPACE = 1000
ZIPF_S = 1.1
VALUE_BYTES = 32
READ_FRACTION = 0.5
#: After a step's last due instant, ops still unanswered this long are
#: counted as timed out.
DRAIN_S = 10.0


def build_schedule(seed: int, step: int, rate: float, seconds: float) -> list[tuple]:
    """``[(at, conn, op, key, value), ...]`` for one step; a pure
    function of its arguments."""
    rng = random.Random(f"perfbench-kv/{seed}/{step}/{rate}")
    cdf: list[float] = []
    total = 0.0
    for rank in range(1, KEY_SPACE + 1):
        total += rank**-ZIPF_S
        cdf.append(total)
    ops = []
    for at in sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds))):
        conn = rng.randrange(CONNECTIONS)
        key = f"k{bisect_left(cdf, rng.random() * total):03d}"
        if rng.random() < READ_FRACTION:
            ops.append((at, conn, "get", key, None))
        else:
            value = f"{rate:g}/{step}/{len(ops)}/".encode().ljust(VALUE_BYTES, b".")
            ops.append((at, conn, "put", key, value))
    return ops


def step_verdict(records: list[dict], limit_ms: float) -> tuple[bool, float]:
    """``(passed, p99_ms)`` of one ladder step: every op acked, p99 within
    *limit_ms*, and the last third's median latency no more than twice
    the first third's plus 100 ms (no growing backlog)."""
    lat = [(r["ack"] - r["due"]) * 1e3 for r in records if r["status"] == "ok"]
    if not lat or len(lat) != len(records):
        return False, float("inf")
    p99 = percentile(lat, 0.99)
    third = max(1, len(lat) // 3)
    backlog = percentile(lat[-third:], 0.5) > 2 * percentile(lat[:third], 0.5) + 100
    return p99 <= limit_ms and not backlog, p99


async def run_step(conns, seed: int, step: int, rate: float, seconds: float, t0: float):
    loop = asyncio.get_running_loop()
    schedule = build_schedule(seed, step, rate, seconds)
    records: list[dict] = []
    inflight: dict[int, dict] = {}
    done = asyncio.Event()
    sending = True

    async def read_responses(reader: asyncio.StreamReader) -> None:
        frames = FrameReader()
        while True:
            data = await reader.read(65536)
            if not data:
                return
            now = loop.time()
            for body in frames.feed(data):
                request_id, status, detail = decode_response(body)
                record = inflight.pop(request_id, None)
                if record is None:
                    continue
                record["ack"] = now
                record["status"] = status
                if status == "ok":
                    record["id"] = [detail[0], detail[1]]
                    if record["op"] == "get":
                        result = detail[2]
                        record["result"] = None if result is None else result.decode()
            if not sending and not inflight:
                done.set()

    readers = [asyncio.create_task(read_responses(reader)) for reader, _ in conns]
    try:
        base = step * 1_000_000
        for index, (at, conn, op, key, value) in enumerate(schedule):
            due = t0 + at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            record = {"op": op, "key": key, "due": due, "status": "timeout"}
            if value is not None:
                record["value"] = value.decode()
                frame = encode_request(base + index, "put", [key, value])
            else:
                frame = encode_request(base + index, "get", [key])
            record["sent"] = loop.time()
            inflight[base + index] = record
            records.append(record)
            conns[conn][1].write(frame)
        sending = False
        if inflight:
            end = t0 + seconds + DRAIN_S
            try:
                await asyncio.wait_for(done.wait(), timeout=max(0.1, end - loop.time()))
            except asyncio.TimeoutError:
                pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return records


async def main(args: argparse.Namespace) -> dict:
    steps = []
    for item in args.steps.split(","):
        rate, seconds = item.split(":")
        steps.append((float(rate), float(seconds)))
    conns = [
        await asyncio.open_connection("127.0.0.1", args.port) for _ in range(CONNECTIONS)
    ]
    loop = asyncio.get_running_loop()
    out: dict = {"steps": []}
    try:
        for step, (rate, seconds) in enumerate(steps):
            t0 = loop.time() + 0.05
            if step == 0:
                print(f"START {t0!r}", flush=True)
            records = await run_step(conns, args.seed, step, rate, seconds, t0)
            result = {"rate": rate, "seconds": seconds, "t0": t0, "ops": records}
            out["steps"].append(result)
            if args.stop_p99_ms:
                passed, p99 = step_verdict(records, args.stop_p99_ms)
                result["passed"] = passed
                result["p99_ms"] = p99
                if not passed:
                    break
                # Let the group settle before the next rung.
                await asyncio.sleep(0.5)
    finally:
        for _, writer in conns:
            writer.close()
        await asyncio.gather(*(w.wait_closed() for _, w in conns), return_exceptions=True)
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", required=True, help="RATE:SECONDS[,RATE:SECONDS...]")
    parser.add_argument("--stop-p99-ms", type=float, default=0.0)
    result = asyncio.run(main(parser.parse_args()))
    print(json.dumps(result), flush=True)
