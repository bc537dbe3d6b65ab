"""Pure helpers shared by run.py and its worker: the percentile
rule, throughput from per-kind medians, and self time from a span tree.

Stdlib only, so run.py can use them without importing numpy.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, the rule numpy uses by default.

    The smallest sample is the 0th percentile and the largest the 100th.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the q-th percentile rank."""
    return count - 1 - int((count - 1) * q / 100.0)


def mix_rate(kinds, q: float) -> float:
    """Work units per second of one pass over a fixed mix.

    ``kinds`` holds ``(units_per_op, latencies)`` pairs, one per op kind of the
    mix.  Each kind contributes the q-th percentile of its latencies, so an
    outlier or a run that ends part way through a cycle does not move the rate.
    Kinds without latencies are left out; with none at all the rate is 0.
    """
    kinds = [(units, lat) for units, lat in kinds if lat]
    if not kinds:
        return 0.0
    units = sum(u for u, _ in kinds)
    seconds = sum(percentile(lat, q) for _, lat in kinds)
    return units / seconds


def local_medians(probe_t, probe_cost, times, k: int) -> list[float]:
    """For each time in ``times``, the median cost of the ``k`` probes nearest to it.

    ``probe_t`` must be sorted ascending and hold at least one probe.
    """
    if not probe_t:
        raise ValueError("no probes")
    out = []
    for t in times:
        lo = hi = bisect.bisect_left(probe_t, t)
        picked = []
        while len(picked) < k and (lo > 0 or hi < len(probe_t)):
            if hi >= len(probe_t) or (lo > 0 and t - probe_t[lo - 1] <= probe_t[hi] - t):
                lo -= 1
                picked.append(probe_cost[lo])
            else:
                picked.append(probe_cost[hi])
                hi += 1
        out.append(statistics.median(picked))
    return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    direct child spans cover.

    ``spans`` is a sequence of records ``(name, start, end, parent, ...)``
    where ``parent`` is the index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered_length(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def layer_table(spans, layers):
    """Aggregate a span list into per-layer and per-function totals.

    Root spans (parent -1) are the benchmark's own op spans; every other span
    is named ``<layer>.<function>``.  Returns a dict with

    - ``op_s``: summed duration of the op spans,
    - ``coverage``: share of that time covered by the layers' spans,
    - ``layers``: per layer, ``self_s`` and ``calls`` totals,
    - ``functions``: per function, ``self_s``, ``calls`` and the summed
      ``work`` estimate (the sixth record field, when present).
    """
    selfs = self_times(spans)
    op_s = 0.0
    op_self = 0.0
    layer = {name: {"self_s": 0.0, "calls": 0} for name in layers}
    funcs = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0.0})
    for s, own in zip(spans, selfs):
        if s[3] < 0:
            op_s += s[2] - s[1]
            op_self += own
            continue
        name = s[0]
        mod = name.split(".", 1)[0]
        if mod in layer:
            layer[mod]["self_s"] += own
            layer[mod]["calls"] += 1
        f = funcs[name]
        f["self_s"] += own
        f["calls"] += 1
        if len(s) > 5 and s[5]:
            f["work"] += s[5]
    coverage = (op_s - op_self) / op_s if op_s > 0 else 0.0
    return {"op_s": op_s, "coverage": coverage, "layers": layer, "functions": dict(funcs)}
