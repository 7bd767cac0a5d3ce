"""Summary statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], quantile: float = 0.99, min_beyond: int = MIN_BEYOND
) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it.

    Raises :class:`ValueError` when fewer than ``min_beyond`` samples
    would lie beyond the percentile: such a figure is no tail.
    """
    n = len(samples)
    rank = math.ceil(n * quantile)
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise ValueError(
            f"p{quantile * 100:g} of {n} samples leaves {max(beyond, 0)} "
            f"beyond it; need at least {min_beyond}"
        )
    return sorted(samples)[rank - 1], beyond


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the steadiness report uses."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Linux ``VmHWM`` belongs to the process's own address space.
    ``ru_maxrss`` survives ``execve``, so a child started by a big parent
    would report the parent's size; it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
