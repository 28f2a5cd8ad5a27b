"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int
    beyond: int
    #: The rank fell on a failed op, so ``value`` is the failure deadline.
    on_failed: bool = False


def percentile_failed_last(
    successes: Sequence[float],
    attempted: int,
    q: float,
    failed_latency: Optional[float] = None,
) -> Percentile:
    """Nearest-rank ``q``-quantile of ``attempted`` ops whose successful
    latencies are ``successes``; the failed rest rank after every success.

    A failed op counts as taking ``failed_latency`` (the deadline at which
    its origin gives up), so a rank that falls on one reports that
    deadline and is flagged.  Without a deadline -- where any failure is
    a wrong answer -- such a rank raises.  Raises as well when fewer than
    :data:`MIN_BEYOND` samples lie beyond the rank.
    """
    if len(successes) > attempted:
        raise AssertionError(f"{len(successes)} successes of {attempted} attempts")
    rank = max(1, math.ceil(q * attempted))
    beyond = attempted - rank
    if beyond < MIN_BEYOND:
        raise AssertionError(
            f"p{q * 100:g} of {attempted} samples has only {beyond} beyond it"
        )
    if rank <= len(successes):
        return Percentile(sorted(successes)[rank - 1], attempted, beyond)
    if failed_latency is None:
        raise AssertionError(
            f"p{q * 100:g} falls on a failed op ({attempted - len(successes)} "
            f"of {attempted} failed)"
        )
    return Percentile(failed_latency, attempted, beyond, on_failed=True)


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def calibration_s() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now.

    Recorded beside the metrics so a slow host can be told from a slow
    program; it never rescales a metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start
