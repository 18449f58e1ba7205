import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.errors import DegenerateRangeError, DegenerateStatsError, ShapeError, WindowError
from latentcast.metrics import (
    IntervalReport,
    LatentStats,
    SSIMParams,
    bucketize_intervals,
    kl_gauss,
    latent_stats,
    mae,
    mse,
    score_frames,
    ssim,
)

finite_arrays = st.integers(0, 2**31 - 1).map(
    lambda seed: np.random.default_rng(seed).normal(size=12)
)


class TestMaeMse:
    def test_identity(self):
        a = np.random.default_rng(0).normal(size=(4, 5))
        assert mae(a, a) == 0.0
        assert mse(a, a) == 0.0

    def test_hand_values(self):
        assert mae(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.5
        assert mse(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.zeros(3), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(a=finite_arrays, b=finite_arrays)
    def test_symmetry_and_jensen(self, a, b):
        assert mae(a, b) == pytest.approx(mae(b, a), rel=1e-12)
        assert mse(a, b) == pytest.approx(mse(b, a), rel=1e-12)
        # Jensen: mean(d^2) >= (mean|d|)^2
        assert mse(a, b) >= mae(a, b) ** 2 - 1e-12


from oracles import ssim_bruteforce


class TestSsim:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.random((16, 16))
            assert ssim(x, x) == 1.0

    def test_constant_zero_vs_one(self):
        x = np.zeros((16, 16))
        y = np.ones((16, 16))
        c1 = SSIMParams().c1
        assert ssim(x, y) == pytest.approx(c1 / (1 + c1), rel=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        params = SSIMParams()
        for _ in range(10):
            x, y = rng.random((16, 16)), rng.random((16, 16))
            assert ssim(x, y, params) == pytest.approx(ssim_bruteforce(x, y, params), abs=1e-6)

    def test_matches_bruteforce_nonunit_exponents(self):
        rng = np.random.default_rng(3)
        params = SSIMParams(alpha=1.0, beta=2.0, gamma=1.5)
        x = rng.random((14, 14))
        y = np.clip(0.8 * x + 0.1 + rng.normal(0, 0.02, x.shape), 0, 1)
        assert ssim(x, y, params) == pytest.approx(ssim_bruteforce(x, y, params), abs=1e-6)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, y = rng.random((12, 12)), rng.random((12, 12))
            assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)
            assert -1.0 <= ssim(x, y) <= 1.0

    def test_shift_near_invariance(self):
        rng = np.random.default_rng(5)
        x, y = rng.random((16, 16)) * 0.8, rng.random((16, 16)) * 0.8
        base = ssim(x, y)
        shifted = ssim(x + 0.1, y + 0.1)
        assert abs(base - shifted) < 1e-3

    def test_color_is_channel_mean(self):
        rng = np.random.default_rng(6)
        x, y = rng.random((12, 12, 3)), rng.random((12, 12, 3))
        per_channel = [ssim(x[..., c], y[..., c]) for c in range(3)]
        assert ssim(x, y) == pytest.approx(float(np.mean(per_channel)), abs=1e-12)

    def test_window_larger_than_frame(self):
        with pytest.raises(WindowError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestKl:
    def test_standard_normal_is_zero(self):
        assert kl_gauss(LatentStats(np.zeros(5), np.ones(5))) == 0.0

    def test_unit_mean_shift(self):
        assert kl_gauss(LatentStats([1.0], [1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_doubled_sigma(self):
        expected = 0.5 * (4.0 - np.log(4.0) - 1.0)
        assert kl_gauss(LatentStats([0.0], [2.0])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.80685, abs=1e-5)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateStatsError):
            kl_gauss(LatentStats([0.0], [0.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
        sigma=st.lists(st.floats(0.05, 5), min_size=1, max_size=6),
    )
    def test_nonnegative(self, mu, sigma):
        n = min(len(mu), len(sigma))
        assert kl_gauss(LatentStats(mu[:n], sigma[:n])) >= -1e-12

    def test_latent_stats_population(self):
        acts = np.array([[0.0, 2.0], [2.0, 2.0]])
        stats = latent_stats(acts)
        np.testing.assert_allclose(stats.mu, [1.0, 2.0])
        np.testing.assert_allclose(stats.sigma, [1.0, 0.0])


class TestIntervals:
    def test_ucf_row_arithmetic(self):
        scores = np.linspace(0.19, 0.84, 50)
        report = bucketize_intervals(scores)
        assert report.range_width == pytest.approx(0.1625, abs=1e-12)
        uppers = [b.upper for b in report.buckets]
        np.testing.assert_allclose(uppers, [0.84, 0.6775, 0.515, 0.3525], atol=1e-12)
        assert report.buckets[-1].lower == 0.19
        assert sum(report.counts) == 50

    def test_enumerated_counts(self):
        report = bucketize_intervals([0.0, 1.0, 2.0, 3.0, 4.0])
        assert report.counts == [2, 1, 1, 1]
        assert report.range_width == 1.0

    def test_extremes_only(self):
        report = bucketize_intervals([0.0, 4.0])
        assert report.counts == [1, 0, 0, 1]

    def test_boundary_goes_to_better_bucket(self):
        # 3.0 sits exactly on the excellent/good edge of [0, 4]
        report = bucketize_intervals([0.0, 3.0, 4.0])
        assert report.counts == [2, 0, 0, 1]

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRangeError):
            bucketize_intervals([0.7, 0.7, 0.7])
        with pytest.raises(DegenerateRangeError):
            bucketize_intervals([0.7])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 200),
    )
    def test_counts_sum_and_equal_widths(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.random(n)
        if np.unique(scores).size < 2:
            return
        report = bucketize_intervals(scores)
        assert sum(report.counts) == n
        widths = [b.upper - b.lower for b in report.buckets]
        assert max(widths) - min(widths) < 1e-12
        assert [b.label for b in report.buckets] == ["excellent", "good", "fair", "poor"]


class TestScoreFrames:
    def test_report_fields(self):
        rng = np.random.default_rng(0)
        truth = rng.random((6, 16, 16, 1)).astype(np.float32)
        pred = np.clip(truth + rng.normal(0, 0.05, truth.shape).astype(np.float32), 0, 1)
        report = score_frames(pred, truth)
        assert len(report.ssim_scores) == 6
        assert report.mae > 0 and report.mse > 0
        assert isinstance(report.intervals, IntervalReport)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_batched_ssim_matches_per_frame_and_bruteforce(self, channels):
        rng = np.random.default_rng(channels)
        truth = rng.random((3, 14, 17, channels)).astype(np.float32)
        pred = np.clip(truth + rng.normal(0, 0.2, truth.shape), 0, 1).astype(np.float32)
        scores = score_frames(pred, truth).ssim_scores
        per_frame = [ssim(pred[i], truth[i]) for i in range(len(pred))]
        np.testing.assert_allclose(scores, per_frame, rtol=0, atol=1e-12)
        params = SSIMParams()
        brute = [
            np.mean([ssim_bruteforce(pred[i, ..., c], truth[i, ..., c], params)
                     for c in range(channels)])
            for i in range(len(pred))
        ]
        np.testing.assert_allclose(scores, brute, rtol=0, atol=1e-6)

    def test_stack_without_channel_axis(self):
        rng = np.random.default_rng(4)
        truth = rng.random((2, 12, 12))
        pred = rng.random((2, 12, 12))
        with_axis = score_frames(pred[..., None], truth[..., None]).ssim_scores
        assert score_frames(pred, truth).ssim_scores == with_axis
