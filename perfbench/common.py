"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import asyncio
import bisect
import math
import resource
import statistics
import time
from collections import Counter

#: Times are scaled to a host on which one reference call takes this
#: long (see ``reference_call``).
REFERENCE_S = 0.002


def clear_codec_memos() -> None:
    """Drop the process-global codec memos, where the codec has them, so
    no measurement is served from an earlier one's entries."""
    from repro.core import wire

    for name in ("encode_memo_clear", "fastpath_memo_clear"):
        clear = getattr(wire, name, None)
        if clear is not None:
            clear()


def add_stack_counters(out: Counter, stats) -> None:
    """Add one ``Stack.stats`` to *out*: frames, bytes, out-of-context
    stores, broadcasts by kind and by purpose, binary-consensus
    decisions and rounds, and MVC default decisions."""
    out["frames"] += stats.frames_sent
    out["bytes"] += stats.bytes_sent
    out["ooc_stored"] += stats.ooc_stored
    for (kind, purpose), count in stats.broadcasts.items():
        out[f"{kind}_broadcasts"] += count
        out[f"{purpose}_broadcasts"] += count
    for (protocol, rounds), count in stats.consensus_rounds.items():
        if protocol == "bc":
            out["bc_decisions"] += count
            out["bc_rounds"] += rounds * count
    out["mvc_default"] += stats.decisions.get("mvc-default", 0)


class BenchError(Exception):
    """A run failed: a correctness check, a stall, or a broken setup."""


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values*, ``q`` in (0, 1]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def reference_call() -> float:
    """Seconds one call of a fixed pure-Python routine takes now.

    The shared host runs this process at speeds up to 2x apart, flipping
    within seconds and drifting over minutes.  The routine does
    interpreter work like the protocol's (tuples, dict updates, bytes
    formatting) and none of the program's code, so a measured time
    multiplied by ``REFERENCE_S / reference_call()`` taken beside it
    reads the same on a fast and a slow spell, and still moves when the
    program's own work does."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    size = 0
    for i in range(2500):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + 1
        size += len(b"%d:%d" % key)
    return time.perf_counter() - start


def speed_now(calls: int = 5) -> float:
    """Factor that scales a time measured right now to the reference
    host: ``REFERENCE_S`` over the median of *calls* reference calls."""
    return REFERENCE_S / statistics.median(reference_call() for _ in range(calls))


class SpeedSampler:
    """Times one reference call every 0.25 s on the running asyncio loop,
    beside a load that runs on the same loop, so a time can be scaled by
    the speed of the moments it spans."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(0.25)
            took = reference_call()
            self.at.append(time.monotonic())
            self.took.append(took)

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
        if not self.took:
            self.at.append(time.monotonic())
            self.took.append(reference_call())

    def speed(self) -> float:
        """Scale factor over the whole sampling."""
        return REFERENCE_S / statistics.median(self.took)

    def speed_over(self, start: float, end: float) -> float:
        """Scale factor of the ``time.monotonic()`` span [start, end]:
        over the calls within 0.5 s of it, or the nearest call."""
        lo = bisect.bisect_left(self.at, start - 0.5)
        hi = bisect.bisect_right(self.at, end + 0.5)
        if lo == hi:
            nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - start))
            return REFERENCE_S / self.took[nearest]
        return REFERENCE_S / statistics.median(self.took[lo:hi])
