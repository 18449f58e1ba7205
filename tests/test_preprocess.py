import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.dataio import FrameSequence, VideoDataset
from latentcast.errors import ChannelError, SubsetSizeError, TooShortError
from latentcast.preprocess import (
    PreprocessSpec,
    crop_black_borders,
    frame_centroid,
    lanczos_weight_matrix,
    otsu_binarize,
    otsu_threshold,
    preprocess_dataset,
    resize_lanczos,
    standardize_length,
    stratified_subset,
    verify_continuity,
)


def seq_of(frames: np.ndarray, sid="s0") -> FrameSequence:
    return FrameSequence(sid, frames)


class TestStandardizeLength:
    def test_truncates_to_first_frames(self):
        frames = np.arange(100, dtype=np.float32).reshape(100, 1, 1, 1)
        out = standardize_length(seq_of(frames), 20)
        assert len(out) == 20
        np.testing.assert_array_equal(out.frames[:, 0, 0, 0], np.arange(20))

    def test_identity_at_target(self):
        frames = np.zeros((20, 2, 2, 1), dtype=np.float32)
        out = standardize_length(seq_of(frames), 20)
        assert out.frames.shape == frames.shape

    def test_too_short(self):
        with pytest.raises(TooShortError):
            standardize_length(seq_of(np.zeros((19, 2, 2, 1), dtype=np.float32)), 20)


from oracles import lanczos_reference, otsu_reference


class TestResizeLanczos:
    def test_constant_preserved(self):
        frame = np.full((37, 53), 0.5, dtype=np.float32)
        out = resize_lanczos(frame, (16, 16))
        assert np.abs(out - 0.5).max() < 1e-6

    def test_step_edge_structure(self):
        frame = np.zeros((32, 32), dtype=np.float32)
        frame[:, :16] = 1.0
        out = resize_lanczos(frame, (16, 16))
        assert np.all(out[:, :6] > 0.95)
        assert np.all(out[:, 10:] < 0.05)
        # one monotone transition at the boundary in the middle rows
        mid = out[8]
        assert mid[6] >= mid[9]

    def test_matches_direct_reference(self):
        rng = np.random.default_rng(7)
        frame = rng.random((30, 40)).astype(np.float32)
        fast = resize_lanczos(frame, (13, 17))
        slow = lanczos_reference(frame.astype(np.float64), (13, 17))
        assert np.abs(fast - slow).max() < 1e-4

    def test_matches_reference_on_upscale(self):
        rng = np.random.default_rng(8)
        frame = rng.random((12, 9)).astype(np.float32)
        fast = resize_lanczos(frame, (25, 21))
        slow = lanczos_reference(frame.astype(np.float64), (25, 21))
        assert np.abs(fast - slow).max() < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(in_size=st.integers(4, 80), out_size=st.integers(4, 80))
    def test_weight_rows_normalized(self, in_size, out_size):
        m = lanczos_weight_matrix(in_size, out_size)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("in_size, out_size, a", [(96, 64, 3), (12, 25, 3), (40, 17, 2)])
    def test_cached_matrix_is_shared_and_read_only(self, in_size, out_size, a):
        m = lanczos_weight_matrix(in_size, out_size, a)
        assert lanczos_weight_matrix(in_size, out_size, a) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        fresh = lanczos_weight_matrix.__wrapped__(in_size, out_size, a)
        assert m.dtype == fresh.dtype and m.tobytes() == fresh.tobytes()


class TestOtsu:
    def test_bimodal_split(self):
        frame = np.zeros((8, 8), dtype=np.float32)
        frame[:4] = 0.1
        frame[4:] = 0.9
        t = otsu_threshold(frame)
        assert 0.1 < t / 255.0 < 0.9
        out = otsu_binarize(frame)
        assert set(np.unique(out)) == {0.0, 1.0}
        assert out.sum() == frame.size / 2

    def test_constant_frame_warns_all_zero(self):
        with pytest.warns(UserWarning):
            out = otsu_binarize(np.full((8, 8), 0.3, dtype=np.float32))
        assert np.all(out == 0.0)

    def test_multichannel_rejected(self):
        with pytest.raises(ChannelError):
            otsu_binarize(np.zeros((4, 4, 3), dtype=np.float32))

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            frame = rng.random((8, 8)).astype(np.float32)
            assert otsu_threshold(frame) == otsu_reference(frame)

    def test_matches_scan_on_bimodal_noise(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            frame = np.where(
                rng.random((12, 12)) > 0.5,
                rng.normal(0.8, 0.05, (12, 12)),
                rng.normal(0.2, 0.05, (12, 12)),
            ).clip(0, 1).astype(np.float32)
            assert otsu_threshold(frame) == otsu_reference(frame)


class TestCropBorders:
    def test_removes_dark_columns(self):
        frame = np.full((10, 12, 1), 0.5, dtype=np.float32)
        frame[:, :4] = 0.0
        out = crop_black_borders(frame, threshold=0.04)
        assert out.shape == (10, 8, 1)

    def test_no_border_unchanged(self):
        frame = np.full((6, 6, 1), 0.5, dtype=np.float32)
        out = crop_black_borders(frame, threshold=0.04)
        assert out.shape == frame.shape

    def test_all_black_warns(self):
        frame = np.zeros((6, 6, 1), dtype=np.float32)
        with pytest.warns(UserWarning):
            out = crop_black_borders(frame, threshold=0.04)
        assert out.shape == frame.shape

    def test_max_over_channels(self):
        frame = np.zeros((6, 6, 3), dtype=np.float32)
        frame[:, 2:, 2] = 0.5  # only the blue channel is bright
        out = crop_black_borders(frame, threshold=0.04)
        assert out.shape == (6, 4, 3)


class TestStratifiedSubset:
    def test_balanced_101_labels(self):
        pool = [(f"id{L}_{i}", f"label{L:03d}") for L in range(101) for i in range(10)]
        picked = stratified_subset(pool, 599, seed=0)
        assert len(picked) == 599
        counts: dict[str, int] = {}
        for pid in picked:
            lab = pid.split("_")[0]
            counts[lab] = counts.get(lab, 0) + 1
        assert set(counts.values()) <= {5, 6}
        assert sum(1 for v in counts.values() if v == 6) == 599 - 101 * 5

    def test_full_population_identity(self):
        pool = [(f"i{i}", "x") for i in range(7)]
        assert sorted(stratified_subset(pool, 7, seed=1)) == sorted(p[0] for p in pool)

    def test_scarce_label_capped(self):
        pool = [(f"a{i}", "big") for i in range(10)] + [("b0", "small")]
        picked = stratified_subset(pool, 4, seed=0)
        small = [p for p in picked if p.startswith("b")]
        assert len(small) == 1
        assert len(picked) == 4

    def test_oversized_request(self):
        with pytest.raises(SubsetSizeError):
            stratified_subset([("a", "x")], 2, seed=0)
        with pytest.raises(SubsetSizeError):
            stratified_subset([("a", "x")], 0, seed=0)

    def test_deterministic(self):
        pool = [(f"i{i}", f"l{i % 5}") for i in range(50)]
        assert stratified_subset(pool, 23, seed=9) == stratified_subset(pool, 23, seed=9)
        assert stratified_subset(pool, 23, seed=9) != stratified_subset(pool, 23, seed=10)


class TestContinuity:
    def test_translating_pixel_distance_equals_lag(self):
        frames = np.zeros((20, 8, 32, 1), dtype=np.float32)
        for t in range(20):
            frames[t, 4, 5 + t, 0] = 1.0
        rep = verify_continuity(seq_of(frames))
        for k, dist in rep.per_lag_mean_distance:
            assert dist == pytest.approx(float(k), abs=1e-9)
        assert rep.monotone_fraction == 1.0

    def test_static_sequence(self):
        frames = np.zeros((10, 8, 8, 1), dtype=np.float32)
        frames[:, 3:5, 3:5, 0] = 1.0
        rep = verify_continuity(seq_of(frames))
        assert all(d == 0.0 for _, d in rep.per_lag_mean_distance)
        assert rep.monotone_fraction == 1.0  # ties count as nondecreasing

    def test_oscillating_blob_alternates(self):
        frames = np.zeros((20, 8, 16, 1), dtype=np.float32)
        for t in range(20):
            col = 6 + (t % 2)
            frames[t, 4, col : col + 2, 0] = 1.0
        rep = verify_continuity(seq_of(frames))
        means = [d for _, d in rep.per_lag_mean_distance]
        for k, d in rep.per_lag_mean_distance:
            assert d == pytest.approx(1.0 if k % 2 == 1 else 0.0, abs=1e-9)
        assert rep.monotone_fraction == pytest.approx(0.5)

    def test_all_zero_frame_skipped(self):
        frames = np.zeros((5, 8, 8, 1), dtype=np.float32)
        frames[[0, 1, 3, 4], 2, 2, 0] = 1.0  # frame 2 stays empty
        rep = verify_continuity(seq_of(frames))
        assert rep.skipped_frames == [2]

    def test_centroid_weighted(self):
        frame = np.zeros((4, 4), dtype=np.float32)
        frame[1, 1] = 1.0
        frame[3, 3] = 3.0
        c = frame_centroid(frame)
        np.testing.assert_allclose(c, [2.5, 2.5])


class TestPipeline:
    def test_binarized_dataset_shape_and_values(self):
        rng = np.random.default_rng(0)
        data = rng.random((3, 22, 32, 48, 1)).astype(np.float32)
        ds = VideoDataset(data, [f"v{i}" for i in range(3)])
        spec = PreprocessSpec(target_length=20, target_size=(16, 16), binarize=True)
        out = preprocess_dataset(ds, spec)
        assert out.data.shape == (3, 20, 16, 16, 1)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_grayscale_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        data = rng.random((2, 20, 30, 40, 1)).astype(np.float32)
        ds = VideoDataset(data, ["a", "b"])
        out = preprocess_dataset(ds, PreprocessSpec(target_size=(16, 16)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_color_three_channels(self):
        rng = np.random.default_rng(2)
        data = rng.random((2, 20, 24, 24, 3)).astype(np.float32)
        ds = VideoDataset(data, ["a", "b"])
        out = preprocess_dataset(ds, PreprocessSpec(target_size=(16, 16), crop_borders=True))
        assert out.data.shape == (2, 20, 16, 16, 3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PreprocessSpec(target_length=1)
        with pytest.raises(ValueError):
            PreprocessSpec(target_size=(4, 64))
