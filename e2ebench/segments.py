"""Quiet segments: the part of a timed window the host left alone.

On a shared KVM host the hypervisor runs other guests on our vCPUs in
waves; ``/proc/stat`` counts that time as ``steal``.  A stolen interval
stretches every request in flight and the gateway's CPU time with it
(other guests also evict its caches), so a window's figures move with
the host, not with the program.

The window is cut into segments of at least ``SEGMENT_S`` (serving) or
into single steps (training).  A segment is *quiet* when the host stole
at most ``QUIET_STEAL_PER_S`` ticks per second in it, summed over all
vCPUs.  The rate-like end-to-end metrics (``rows_per_s``, ``p50_ms``,
``cpu_us_per_row``) come from the quiet segments; when fewer than
``MIN_SHARE`` of the segments are quiet, from that share of the least
stolen ones.  A slower program is slower in quiet segments too, so the
filter removes the host's noise, not the program's cost.  Whole-window
figures are printed beside them for reference.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field

SEGMENT_S = 0.5
QUIET_STEAL_PER_S = 5.0
MIN_SHARE = 0.2


@dataclass
class Segment:
    start: float
    end: float
    steal: int                  # host steal ticks in the segment
    cpu_s: float                # the program's CPU time in the segment
    rows: int = 0               # rows finished in the segment
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def from_samples(samples: list[tuple[float, int, int]],
                 operations: list[tuple[float, float, int]]) -> list[Segment]:
    """Cut sampler readings ``(time, steal, cpu_ns)`` into segments.

    ``operations`` are ``(sent, received, rows)``; an operation's rows
    count in the segment it finished in, its latency in the segment that
    holds all of it.
    """
    cuts = [0]
    for index in range(1, len(samples)):
        if samples[index][0] - samples[cuts[-1]][0] >= SEGMENT_S:
            cuts.append(index)
    segments = [Segment(samples[a][0], samples[b][0],
                        samples[b][1] - samples[a][1],
                        (samples[b][2] - samples[a][2]) / 1e9)
                for a, b in zip(cuts, cuts[1:])]
    starts = [segment.start for segment in segments]
    for sent, received, rows in operations:
        index = _locate(starts, received)
        if index is None or received > segments[index].end:
            continue
        segment = segments[index]
        segment.rows += rows
        if sent >= segment.start:
            segment.latencies_ms.append((received - sent) * 1e3)
    return segments


def _locate(starts: list[float], moment: float) -> int | None:
    index = bisect.bisect_left(starts, moment) - 1
    return index if index >= 0 else None


def quiet(segments: list[Segment]) -> list[Segment]:
    calm = [s for s in segments if s.steal <= QUIET_STEAL_PER_S * s.seconds]
    floor = max(1, round(MIN_SHARE * len(segments)))
    if len(calm) >= floor:
        return calm
    return sorted(segments, key=lambda s: s.steal / s.seconds)[:floor]


def figures(segments: list[Segment]) -> dict:
    """``rows_per_s``, ``p50_ms`` and ``cpu_us_per_row`` over ``segments``."""
    rows = sum(s.rows for s in segments)
    latencies = [value for s in segments for value in s.latencies_ms]
    return {"rows_per_s": rows / sum(s.seconds for s in segments),
            "p50_ms": statistics.median(latencies),
            "cpu_us_per_row": sum(s.cpu_s for s in segments) * 1e6 / rows}
