"""Pure helpers of the benchmark: percentiles, window rates, span self time.

Nothing here touches the serving stack, so the unit tests in
``test_perfbench.py`` run without it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it says more about one outlier than the tail.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100) by nearest rank.

    Returns ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie strictly beyond the percentile's rank, so a p99 needs at least
    1000 samples.  The median (q = 50) is held to the same rule.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def window_rates(ends: Sequence[float], start: float, seconds: float,
                 width: float = 1.0) -> List[float]:
    """Completions per second in each whole ``width``-second window of
    the phase ``[start, start + seconds)``; a trailing part window is
    left out."""
    windows = int(seconds // width)
    counts = [0] * windows
    for end in ends:
        index = int((end - start) // width)
        if 0 <= index < windows:
            counts[index] += 1
    return [count / width for count in counts]


def self_times(spans: Iterable[dict]) -> List[dict]:
    """Each span with ``self_s``: its duration minus its children's cover.

    A span's parent is the shortest span of the same trace whose
    interval holds it (ties go to the span recorded first, so equal
    intervals nest in recording order instead of covering each other).
    The children's intervals are merged before subtracting, so
    overlapping children are not counted twice.  Spans without a trace
    have no parent and no children.
    """
    spans = [dict(span) for span in spans]
    by_trace: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        span["end_s"] = span["start_s"] + span["dur_s"]
        if span.get("trace") is not None:
            by_trace.setdefault(span["trace"], []).append(index)
    children: Dict[int, List[int]] = {index: [] for index in range(len(spans))}
    for members in by_trace.values():
        for child in members:
            parent = None
            for candidate in members:
                if candidate == child:
                    continue
                if not _holds(spans[candidate], spans[child], candidate < child):
                    continue
                if (parent is None
                        or spans[candidate]["dur_s"] < spans[parent]["dur_s"]
                        or (spans[candidate]["dur_s"] == spans[parent]["dur_s"]
                            and candidate > parent)):
                    parent = candidate
            if parent is not None:
                children[parent].append(child)
    for index, span in enumerate(spans):
        covered = _union_length(
            [(max(spans[c]["start_s"], span["start_s"]),
              min(spans[c]["end_s"], span["end_s"]))
             for c in children[index]])
        span["self_s"] = span["dur_s"] - covered
        span["children"] = len(children[index])
    return spans


def _holds(outer: dict, inner: dict, outer_first: bool) -> bool:
    if outer["start_s"] > inner["start_s"] or outer["end_s"] < inner["end_s"]:
        return False
    if outer["dur_s"] == inner["dur_s"]:
        return outer_first          # identical intervals: first holds second
    return True


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
