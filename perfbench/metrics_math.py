"""Order statistics and closed-loop accounting for the repo benchmark.

Pure functions with no dependency on the ``repro`` package, so the unit
tests in ``perfbench/tests`` pin them down without running a workload.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: The metric-name rule the benchmark contract imposes: a letter or digit
#: first, then at most 63 more letters, digits, ``_``, ``.`` or ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

def valid_metric_name(name: str) -> bool:
    """Whether *name* satisfies :data:`METRIC_NAME` in full."""
    return METRIC_NAME.fullmatch(name) is not None


def nearest_rank(values: Iterable[float], fraction: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it.

    Always an observed sample, never an interpolation, so a p90 over ten
    latencies is the ninth-smallest one.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of *count* samples lie strictly above the nearest-rank
    ``fraction`` percentile."""
    return count - max(math.ceil(round(fraction * count, 9)), 1) if count else 0


def median(values: Iterable[float]) -> float:
    ordered = list(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    return statistics.median(ordered)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``), the steadiness figure
    a benchmark run set is judged by."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class ClosedLoopError(ValueError):
    """Records that cannot come from one closed-loop client."""


def closed_loop(
    records: Sequence[Tuple[str, float, float, float]],
) -> Dict[str, object]:
    """Account a closed-loop request log.

    *records* are ``(request_class, start, end, scale)`` in send order; a
    request's latency is ``(end - start) * scale`` (1.0 for host seconds,
    or a calibration factor).  One client with one outstanding request
    means every request starts no earlier than the previous one ended;
    anything else is refused, since the throughput below would then
    over-count.  Returns the latencies per class, the number completed,
    and completions per second of service busy time (the sum of the
    latencies), which leaves out pauses the client takes between requests.
    """
    if not records:
        raise ClosedLoopError("no requests completed")
    latencies: Dict[str, List[float]] = {}
    previous_end = None
    for request_class, start, end, scale in records:
        if end < start:
            raise ClosedLoopError(f"request ends before it starts ({start} > {end})")
        if previous_end is not None and start < previous_end:
            raise ClosedLoopError(
                "requests overlap: a closed loop sends the next request "
                "only after the previous reply"
            )
        latencies.setdefault(request_class, []).append((end - start) * scale)
        previous_end = end
    busy = sum(sum(values) for values in latencies.values())
    return {
        "latencies": latencies,
        "completed": len(records),
        "per_second": len(records) / busy if busy > 0 else float("inf"),
    }


def timing_summary(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median, nearest-rank p90 and sample counts of *values* x *scale*."""
    if not values:
        return {"p50": 0.0, "p90": 0.0, "n": 0, "beyond_p90": 0}
    return {
        "p50": median(values) * scale,
        "p90": nearest_rank(values, 0.9) * scale,
        "n": len(values),
        "beyond_p90": samples_beyond(len(values), 0.9),
    }
