"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

import metrics
import spans
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# --- percentile rule -------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    data = list(range(1, 101))
    assert metrics.percentile(data, 50) == 50.5
    assert metrics.percentile(data, 0) == 1
    assert metrics.percentile(data, 100) == 100
    assert metrics.percentile(data, 99) == pytest.approx(99.01)
    assert metrics.percentile([3.0], 99) == 3.0


def test_percentile_ignores_input_order():
    assert metrics.percentile([5, 1, 4, 2, 3], 50) == 3


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_samples_beyond_the_p99_rank():
    assert metrics.samples_beyond(1000, 99) == 10
    assert metrics.samples_beyond(500, 99) == 5
    assert metrics.samples_beyond(100, 50) == 50


def test_mix_rate_uses_one_quantile_per_kind():
    slow_outlier = [0.1, 0.1, 0.1, 5.0]
    rate = metrics.mix_rate([(10, slow_outlier), (1, [0.05, 0.05, 0.05])], 50)
    assert rate == pytest.approx(11 / (0.1 + 0.05))
    assert metrics.mix_rate([(1, [0.1, 0.2, 0.3, 0.4, 0.5])], 25) == pytest.approx(5.0)
    assert metrics.mix_rate([(1, [0.5]), (2, [])], 50) == pytest.approx(2.0)
    assert metrics.mix_rate([(2, [])], 50) == 0.0


def test_local_medians_take_the_nearest_probes():
    times, costs = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 40.0]
    assert metrics.local_medians(times, costs, [1.1], 3) == [2.0]
    assert metrics.local_medians(times, costs, [-5.0, 9.0], 1) == [1.0, 40.0]
    assert metrics.local_medians(times, costs, [1.5], 10) == [2.5]


# --- self time from a span tree -------------------------------------------

def test_self_time_subtracts_direct_children_only():
    tree = [
        ("op:x", 0.0, 10.0, -1),
        ("linalg.a", 1.0, 4.0, 0),
        ("sector.b", 5.0, 9.0, 0),
        ("linalg.c", 6.0, 7.0, 2),
    ]
    assert metrics.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [("op:x", 0.0, 10.0, -1), ("a.f", 1.0, 5.0, 0), ("a.g", 3.0, 6.0, 0),
            ("a.h", 9.0, 12.0, 0)]
    # Children cover [1, 6] and [9, 10] of the root: 6 of its 10 seconds.
    assert metrics.self_times(tree)[0] == pytest.approx(4.0)


def test_layer_table_sums_self_time_by_layer():
    tree = [
        ("op:x", 0.0, 10.0, -1, 0, 0.0),
        ("linalg.a", 1.0, 4.0, 0, 0, 5.0),
        ("sector.b", 5.0, 9.0, 0, 0, 0.0),
        ("linalg.a", 6.0, 7.0, 2, 0, 7.0),
    ]
    table = metrics.layer_table(tree, ("linalg", "sector", "cli"))
    assert table["op_s"] == 10.0
    assert table["coverage"] == pytest.approx(0.7)
    assert table["layers"]["linalg"] == {"self_s": pytest.approx(4.0), "calls": 2}
    assert table["layers"]["sector"] == {"self_s": pytest.approx(3.0), "calls": 1}
    assert table["layers"]["cli"] == {"self_s": 0.0, "calls": 0}
    assert table["functions"]["linalg.a"]["work"] == 12.0


# --- failure counting -----------------------------------------------------

def _suite_op(name, trials, call):
    return workloads.Op(f"trials {name}", workloads.FAMILY[name], trials, call,
                        workloads.check_suite(name, trials))


def _summary(name, trials, failures, lo, mid):
    return json.dumps({"name": name, "trials": trials, "failures": failures,
                       "min_slack": lo, "median_slack": mid, "config": {}})


def test_a_suite_that_raises_fails_all_its_trials_and_does_not_propagate():
    def boom():
        raise OverflowError("absolute value too large")

    res = workloads.execute(_suite_op("corollary-ad", 5, boom))
    assert res.outcome.failed == 5
    assert not res.outcome.wrong
    assert "OverflowError" in res.outcome.record
    assert res.latency >= 0.0


def test_reported_violations_count_as_failed_trials():
    def nan_suite():
        print(_summary("main2", 5, 5, math.nan, math.nan))
        return 3

    res = workloads.execute(_suite_op("main2", 5, nan_suite))
    assert (res.outcome.failed, res.outcome.wrong) == (5, False)


def test_clean_summary_with_nonfinite_slack_is_a_wrong_answer():
    def silent():
        print(_summary("main1", 4, 0, math.inf, 0.5))
        return 0

    res = workloads.execute(_suite_op("main1", 4, silent))
    assert (res.outcome.failed, res.outcome.wrong) == (4, True)


def test_wrongsec_suite_must_find_a_counterexample():
    def found():
        print(_summary("schur-wrongsec", 3, 2, -0.4, -0.1))
        return 0

    def not_found():
        print(_summary("schur-wrongsec", 3, 0, 0.1, 0.2))
        return 3

    assert workloads.execute(_suite_op("schur-wrongsec", 3, found)).outcome.failed == 0
    assert workloads.execute(_suite_op("schur-wrongsec", 3, not_found)).outcome.failed == 3


def test_precondition_exit_without_summary_fails_the_suite():
    def precondition():
        print("error: not sectorial", file=sys.stderr)
        return 2

    res = workloads.execute(_suite_op("main1", 7, precondition))
    assert (res.outcome.failed, res.outcome.wrong) == (7, False)
    assert "not sectorial" in res.outcome.record


def test_run_continues_past_a_raising_suite():
    import worker

    class Fake:
        digest_cycles = 1

        def cycle(self, c):
            def ok():
                print(_summary("main1", 2, 0, 0.1, 0.2))
                return 0

            def boom():
                raise OverflowError("x")

            return [_suite_op("main1", 2, ok), _suite_op("corollary-ad", 3, boom),
                    _suite_op("main1", 2, ok)]

    def two_cycles(ph, elapsed):
        return ph.cycles >= 2

    phase = worker.run_cycles(Fake(), two_cycles)
    assert phase.cycles == 2
    assert phase.attempted == 14
    assert phase.failed == 6
    assert phase.kind_failed == {"trials corollary-ad": 6}
    assert phase.kind_causes["trials corollary-ad"] == {"raised OverflowError": 2}
    rates = worker.headline(phase, phase.latency)
    assert rates["ad_pair.trials_per_s"][0] == 0.0  # every call raised
    assert rates["sectorial_pair.trials_per_s"][0] > 0.0
    again = worker.run_cycles(Fake(), two_cycles)
    assert again.outputs_sha256(2) == phase.outputs_sha256(2)
    assert phase.outputs_sha256(1) != phase.outputs_sha256(2)


# --- tracing --------------------------------------------------------------

def test_tracer_wraps_every_binding_site_and_restores_it():
    sys.path.insert(0, SRC)
    try:
        import sectoria
        import sectoria.cli  # noqa: F401
    finally:
        sys.path.remove(SRC)
    ineq = sys.modules["sectoria.inequalities"]
    originals = (sectoria.check_main1, ineq.check_main1, ineq.gen_sectorial,
                 sectoria.gen_sectorial)
    a = sectoria.gen_sectorial(4, 0.5, 1)
    b = sectoria.gen_sectorial(4, 0.5, 2)

    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert ineq.gen_sectorial is sectoria.gen_sectorial is not originals[2]
        with tracer.op(7, "probe"):
            report = sectoria.check_main1(a, b, 0.5, 2)
    finally:
        tracer.uninstall()

    assert (sectoria.check_main1, ineq.check_main1, ineq.gen_sectorial,
            sectoria.gen_sectorial) == originals
    assert report.holds
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op:probe" and names[1] == "inequalities.check_main1"
    assert "sector.in_sector" in names and "schur.schur_complement" in names
    assert all(s[4] == 7 for s in tracer.spans)
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for s in tracer.spans[1:]:
        parent = by_index[s[3]]
        assert parent[1] <= s[1] <= s[2] <= parent[2]
    solves = [s for s in tracer.spans if s[0] == "linalg.solve"]
    assert solves and all(s[5] == pytest.approx(8 * 2**3 / 3) for s in solves)
