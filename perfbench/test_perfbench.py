"""Tests of the benchmark's own logic (run with pytest from the repo root)."""

import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402
from summary import Outcome  # noqa: E402


class TestTail:
    def test_eleventh_largest_with_ten_beyond(self):
        value, pct, n = summary.tail(list(range(100)))
        assert (value, pct, n) == (89, 90.0, 100)

    def test_percentile_follows_the_job_count(self):
        value, pct, n = summary.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 0])
        assert value == 1 and n == 12
        assert pct == pytest.approx(100 * 2 / 12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            summary.tail([1.0] * 10)

    def test_median_run_and_unanswered_jobs(self):
        outcomes = [Outcome("a", summary.OK, 0.5), Outcome("b", summary.TIMEOUT, 3.0),
                    Outcome("a", summary.OK, 0.7), Outcome("c", summary.OK, 0.2),
                    Outcome("b", summary.DECLINED, 0.1), Outcome("a", summary.OK, 0.9)]
        assert summary.job_latencies(outcomes, 20.0) == [0.7, 20.0, 0.2]
        assert summary.job_times(outcomes) == pytest.approx([0.7, 1.55, 0.2])
        assert summary.list_time(outcomes) == pytest.approx(0.5 + 0.1 + 0.2)

    def test_reference_speed_replaces_measured_time(self):
        outcomes = [Outcome("a", summary.OK, 0.5, ref_s=0.25), Outcome("a", summary.OK, 0.7, ref_s=0.35),
                    Outcome("b", summary.OK, 0.2)]
        assert summary.job_times(outcomes) == pytest.approx([0.3, 0.2])
        assert summary.list_time(outcomes) == pytest.approx(0.5 + 0.2)

    def test_end_to_end_counts(self):
        ok = [Outcome(f"j{i}", summary.OK, 0.001 * (i + 1)) for i in range(20)]
        again = ok[:19] + [Outcome("j19", summary.DECLINED, 0.5)]
        attempted, failed, metrics, context = summary.end_to_end(ok + again, 20.0)
        assert (attempted, failed, context["declined"]) == (40, 0, 1)
        assert metrics["answered_frac"] == 19 / 20  # j19 was declined once
        # median of j19's runs: 0.02 and 0.5
        assert metrics["wall_s"] == pytest.approx(0.19 + 0.26)
        # j19 counts as the limit; the tail is the 11th largest: j9
        assert metrics["job_tail_ms"] == pytest.approx(10.0)
        assert metrics["job_p50_ms"] == pytest.approx(10.5)


class TestSpeed:
    def test_kernel_is_fixed_work(self):
        assert speed.kernel() == speed.ROWS

    def test_bracketing_samples_scale_a_latency(self):
        clock = speed.Clock()
        clock.samples = [speed.REF_S, 3 * speed.REF_S, 2 * speed.REF_S]
        assert clock.at_ref(1.0, 0, 0) == pytest.approx(0.5)
        assert clock.at_ref(1.0, 1, 1) == pytest.approx(0.4)
        # a job that took sample 1 itself: mean of samples 0, 1 and 2
        assert clock.at_ref(1.0, 0, 1) == pytest.approx(0.5)

    def test_sampling_inside_a_job_is_not_job_time(self):
        clock = speed.Clock()
        first = clock.job_start()
        raw_start, start = time.perf_counter(), clock.now()
        deadline = time.process_time() + 4 * speed.EVERY_S
        while time.process_time() < deadline:
            pass
        took, raw = clock.now() - start, time.perf_counter() - raw_start
        last = clock.job_end()
        assert last - first >= 2  # samples were taken inside the job
        assert clock.paused > 0
        assert raw - took == pytest.approx(clock.paused, abs=1e-3)


class TestSelfTime:
    def test_nested_spans(self):
        # job -> a [0, 10] -> b [1, 4] -> c [2, 3]; a -> b [5, 6]; root d [20, 21]
        spans_list = [
            (2, "c", 2.0, 3.0, 1, 0),
            (1, "b", 1.0, 4.0, 0, 0),
            (3, "b", 5.0, 6.0, 0, 0),
            (0, "a", 0.0, 10.0, -1, 0),
            (4, "d", 20.0, 21.0, -1, 1),
        ]
        times = spans.self_times(spans_list)
        assert times["a"] == (1, pytest.approx(6.0))
        assert times["b"] == (2, pytest.approx(3.0))
        assert times["c"] == (1, pytest.approx(1.0))
        assert times["d"] == (1, pytest.approx(1.0))

    def test_recorded_spans_nest_and_count(self):
        rec = spans.Recorder()
        inner = spans._span_wrapper(rec, "inner", lambda: 1)
        outer = spans._span_wrapper(rec, "outer", lambda: inner() + inner())
        rec.on = True
        assert outer() == 2
        parents = {name: parent for _sid, name, _s, _e, parent, _j in rec.spans}
        outer_id = next(sid for sid, name, *_ in rec.spans if name == "outer")
        assert parents["inner"] == outer_id and parents["outer"] == -1
        assert spans.self_times(rec.spans)["inner"][0] == 2


class TestVerdicts:
    def _poly(self):
        import axial

        A = axial.toric_euf().algebra
        return axial, A, axial.parse_poly("(x1*x2)*x3 - x1*(x2*x3)", A.field)

    def test_expected_verdict_matches(self):
        axial, A, f = self._poly()
        v = axial.holds_as_identity(f, A)
        checks.identity_verdict(v, False, f, A, None, axial.evaluate)

    def test_wrong_verdict_is_a_mismatch(self):
        axial, A, f = self._poly()
        v = axial.holds_as_identity(f, A)
        with pytest.raises(checks.Mismatch):
            checks.identity_verdict(v, True, f, A, None, axial.evaluate)

    def test_zero_witness_is_a_mismatch(self):
        axial, A, f = self._poly()
        zero = {j: A.zero() for j in (1, 2, 3)}
        fake = SimpleNamespace(holds=False, witness={"x": zero, "e": {}})
        with pytest.raises(checks.Mismatch, match="witness"):
            checks.identity_verdict(fake, False, f, A, None, axial.evaluate)

    def test_gram_and_determinant(self):
        import axial
        import workloads

        geom = workloads.Geometry("3C", None)
        _A, _axes, form = workloads.matsuo_input(axial, geom, Fraction(1, 2), axial.QQ)
        checks.matsuo_gram(form, geom.points, geom.collinear, Fraction(1, 2))
        checks.determinant(form, "27/32")
        with pytest.raises(checks.Mismatch):
            checks.determinant(form, "1")
        with pytest.raises(checks.Mismatch):
            checks.matsuo_gram(form, geom.points, geom.collinear, Fraction(1, 3))


def test_wrappers_cover_every_axial_name_and_restore():
    import axial
    import axial.axes
    import axial.cli
    import axial.linalg

    original = axial.linalg.minimal_polynomial
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        assert spans.unwrapped_originals(inst) == []
        # re-exported and imported names are wrapped too
        assert axial.axes.minimal_polynomial is axial.linalg.minimal_polynomial is not original
        assert axial.check_axis is axial.axes.check_axis
        assert axial.cli.check_axis is axial.axes.check_axis
        rec.on = True
        tor = axial.toric_euf()
        axial.check_axis(tor.idempotent(Fraction(2)), Fraction(1, 2))
        rec.on = False
        metrics = spans.pass_metrics(rec)
        assert metrics["axes.check_axis.calls"] == 1
        assert metrics["axes.minpoly_per_check"] == 3.0
        assert metrics["linalg.rref.entries"] > 0
        assert set(metrics) == set(spans.metric_units())
    finally:
        inst.restore()
    assert axial.axes.minimal_polynomial is original
    assert spans.find_wrappers() == []
