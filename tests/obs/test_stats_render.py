"""Tests for the shared percentile, latency summaries and rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, Series, percentile
from repro.obs.render import render_figure, render_table, speedup


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5
        assert percentile([0, 10], 95) == 9.5

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 120)
        with pytest.raises(ValueError):
            percentile([1], -0.5)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_percentile(self, values, q):
        expected = float(np.percentile(values, q))
        # interpolating between large opposite-signed neighbours can land
        # near zero, so the slack also scales with the inputs' magnitude
        scale = max(abs(v) for v in values)
        assert percentile(values, q) == pytest.approx(
            expected, rel=1e-12, abs=1e-12 * scale
        )

    def test_histogram_stats_use_it(self):
        h = Histogram("x")
        samples = [5.0, 1.0, 9.5, 3.25, 7.0, 2.0]
        for v in samples:
            h.observe(v)
        stats = h.stats()
        for q in (50, 95, 99):
            assert stats[f"p{q}"] == percentile(samples, q)


class TestLatencySummary:
    def test_summary_triple(self):
        h = Histogram("Q1")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            h.observe(v)
        stats = h.stats()
        assert stats["p50"] == 3.0
        assert stats["mean"] == 22.0
        assert stats["p95"] > 4.0

    def test_stats_follow_later_observations(self):
        h = Histogram("Q1")
        h.observe(10.0)
        h.observe(20.0)
        assert h.stats()["p50"] == 15.0
        h.observe(0.0)
        assert h.stats()["p50"] == 10.0
        assert h.stats()["p95"] == pytest.approx(19.0)

    def test_empty_summary_is_zero_triple(self):
        stats = Histogram("Q1").stats()
        assert stats["count"] == 0
        assert (stats["p50"], stats["mean"], stats["p95"]) == (0.0, 0.0, 0.0)


class TestProgressSeries:
    def test_value_at_steps(self):
        series = Series("scn")
        series.record(0.0, 10)
        series.record(1.0, 20)
        series.record(2.0, 30)
        assert series.value_at(0.5) == 10
        assert series.value_at(1.0) == 20
        assert series.value_at(99.0) == 30

    def test_empty_value_at_is_zero(self):
        series = Series("scn")
        assert series.value_at(1.0) == 0.0
        assert series.last_value == 0.0


class TestRender:
    def test_speedup(self):
        assert speedup(100.0, 1.0) == 100.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_render_table_alignment(self):
        text = render_table(
            ["name", "median (ms)"],
            [["Q1", 4.25], ["Q2", 104.5]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "name" in lines[1] and "median" in lines[1]
        assert len(lines) == 5
        assert len(set(len(l) for l in lines[1:])) <= 2  # aligned

    def test_render_figure_samples_series(self):
        series = {
            "pri_log1": [(float(t), t * 10.0) for t in range(100)],
            "std_apply": [(float(t), t * 10.0 - 5) for t in range(100)],
        }
        text = render_figure(series, title="Fig 11", samples=5)
        assert "pri_log1" in text and "std_apply" in text
        assert text.count("\n") < 20  # sampled, not 100 rows

    def test_render_figure_empty(self):
        assert render_figure({}, title="x") == "x"
