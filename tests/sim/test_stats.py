import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    Histogram,
    StreamingHistogram,
    line_rate_mpps,
    percentile,
)


def test_percentile_simple():
    data = list(range(1, 101))  # 1..100
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile(data, 1) == 1


def test_percentile_rejects_empty_and_bad_p():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(st.lists(st.floats(0, 1e9), min_size=1, max_size=200))
def test_percentile_bounds(samples):
    assert percentile(samples, 100) == max(samples)
    assert min(samples) <= percentile(samples, 50) <= max(samples)


@given(
    st.lists(st.floats(0, 1e6), min_size=1, max_size=100),
    st.floats(0.1, 100),
)
def test_percentile_monotone_in_p(samples, p):
    lower = percentile(samples, max(p / 2, 0.01))
    assert lower <= percentile(samples, p)


def test_histogram_summary():
    h = Histogram()
    h.extend([1.0, 2.0, 3.0, 4.0])
    assert len(h) == 4
    assert h.mean() == 2.5
    assert h.min() == 1.0
    assert h.max() == 4.0
    assert h.percentiles((50, 100)) == {50: 2.0, 100: 4.0}


def test_histogram_empty_mean_raises():
    with pytest.raises(ValueError):
        Histogram().mean()


def test_line_rate_matches_paper_25g_numbers():
    # §5.5: 25 Gbps line rate is 33 Mpps at 64 B and 2.1 Mpps at 1518 B.
    assert line_rate_mpps(25, 64) == pytest.approx(37.2, abs=0.1)
    # (37.2 is the theoretical 64B line rate; TRex reported ~33 Mpps as its
    # achieved load.)  1518B:
    assert line_rate_mpps(25, 1518) == pytest.approx(2.03, abs=0.05)


def test_line_rate_10g_64b():
    # The classic 14.88 Mpps figure, quoted in §5.4 ("14 Mpps line rate").
    assert line_rate_mpps(10, 64) == pytest.approx(14.88, abs=0.01)


def test_line_rate_rejects_tiny_frames():
    with pytest.raises(ValueError):
        line_rate_mpps(10, 32)


# ---------------------------------------------------------------------------
# StreamingHistogram (bounded-memory log-bucketed percentiles).
# ---------------------------------------------------------------------------
def test_streaming_histogram_summary():
    h = StreamingHistogram(rel_error=0.01)
    h.extend([1.0, 2.0, 3.0, 4.0])
    assert len(h) == 4
    assert h.mean() == pytest.approx(2.5)
    assert h.min() == 1.0
    assert h.max() == 4.0
    # Each representative is within the relative-error bound of the
    # exact nearest-rank answer.
    assert h.percentile(50) == pytest.approx(2.0, rel=0.01)
    assert h.percentile(100) == pytest.approx(4.0, rel=0.01)


def test_streaming_histogram_empty_raises():
    h = StreamingHistogram()
    with pytest.raises(ValueError):
        h.mean()
    with pytest.raises(ValueError):
        h.percentile(50)


def test_streaming_histogram_rejects_bad_params():
    with pytest.raises(ValueError):
        StreamingHistogram(rel_error=0.0)
    with pytest.raises(ValueError):
        StreamingHistogram(rel_error=1.5)
    with pytest.raises(ValueError):
        StreamingHistogram(max_buckets=1)


def test_streaming_histogram_zero_and_negative_bucket():
    h = StreamingHistogram()
    h.extend([0.0, -5.0, 10.0])
    assert len(h) == 3
    # Ranks 1 and 2 fall in the nonpositive bucket, reported as 0.0.
    assert h.percentile(50) == 0.0
    assert h.percentile(100) == pytest.approx(10.0, rel=0.01)


def test_streaming_histogram_bounded_memory():
    """10^6-wide dynamic range in far fewer buckets than samples, and a
    tiny cap still answers (coarser at the low end, where collapse
    merges)."""
    h = StreamingHistogram(rel_error=0.01, max_buckets=64)
    values = [1.0 * (1.013 ** i) for i in range(2000)]  # spans ~x10^11
    h.extend(values)
    assert h.n_buckets <= 64
    assert len(h) == 2000
    # The top of the distribution is untouched by lowest-pair collapse.
    exact = percentile(values, 99)
    assert h.percentile(99) == pytest.approx(exact, rel=0.05)


@given(
    st.lists(st.floats(0.1, 1e9), min_size=1, max_size=300),
    st.sampled_from([50.0, 90.0, 99.0]),
)
def test_streaming_percentile_error_bound(samples, p):
    """The satellite's contract: log-bucketed percentiles stay within
    the configured relative error of the exact nearest-rank
    :func:`percentile` (plus float slack)."""
    rel = 0.01
    h = StreamingHistogram(rel_error=rel)
    h.extend(samples)
    approx = h.percentile(p)
    exact = percentile(samples, p)
    assert abs(approx - exact) <= rel * exact * (1 + 1e-6) + 1e-9


@given(st.lists(st.floats(0.1, 1e9), min_size=1, max_size=300))
def test_streaming_histogram_matches_exact_extremes(samples):
    h = StreamingHistogram(rel_error=0.01)
    h.extend(samples)
    assert h.min() == min(samples)
    assert h.max() == max(samples)
    # Percentiles clamp into the observed range.
    assert h.min() <= h.percentile(50) <= h.max()
