import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.dataio import FrameSequence, VideoDataset
from latentcast.errors import ChannelError, SubsetSizeError, TooShortError
from latentcast.preprocess import (
    PreprocessSpec,
    crop_bounds_sequence,
    frame_centroid,
    lanczos_weight_matrix,
    otsu_binarize,
    otsu_threshold,
    preprocess_dataset,
    resize_lanczos,
    stratified_subset,
    verify_continuity,
)


def seq_of(frames: np.ndarray, sid="s0") -> FrameSequence:
    return FrameSequence(sid, frames)


def dataset_of(frames: np.ndarray) -> VideoDataset:
    return VideoDataset(frames[None], ["s0"])


class TestLengthTruncation:
    def test_truncates_to_first_frames(self):
        frames = np.broadcast_to(np.arange(100, dtype=np.float32)[:, None, None, None] / 100,
                                 (100, 8, 8, 1))
        out = preprocess_dataset(dataset_of(frames), PreprocessSpec(20, (8, 8)))
        assert out.data.shape == (1, 20, 8, 8, 1)
        np.testing.assert_array_equal(out.data[0], frames[:20])

    def test_identity_at_target(self):
        frames = np.random.default_rng(0).random((20, 8, 8, 1)).astype(np.float32)
        out = preprocess_dataset(dataset_of(frames), PreprocessSpec(20, (8, 8)))
        np.testing.assert_array_equal(out.data[0], frames)

    def test_too_short(self):
        frames = np.zeros((19, 8, 8, 1), dtype=np.float32)
        with pytest.raises(TooShortError):
            preprocess_dataset(dataset_of(frames), PreprocessSpec(20, (8, 8)))


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


class TestCropBounds:
    def test_removes_dark_columns(self):
        frames = np.full((2, 10, 12, 1), 0.5, dtype=np.float32)
        frames[:, :, :4] = 0.0
        assert crop_bounds_sequence(frames, threshold=0.04) == (0, 10, 4, 12)

    def test_no_border_unchanged(self):
        frames = np.full((2, 6, 6, 1), 0.5, dtype=np.float32)
        assert crop_bounds_sequence(frames, threshold=0.04) == (0, 6, 0, 6)
        # an all-dark sequence keeps its whole frame too
        assert crop_bounds_sequence(np.zeros_like(frames), threshold=0.04) == (0, 6, 0, 6)

    def test_max_over_channels(self):
        frames = np.zeros((1, 6, 6, 3), dtype=np.float32)
        frames[:, :, 2:, 2] = 0.5  # only the blue channel is bright
        assert crop_bounds_sequence(frames, threshold=0.04) == (0, 6, 2, 6)


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

    # the exact picks, in order, of three populations at two seeds: a short
    # list whole, the 599 picks by the sha256 of their comma-joined ids
    _PINNED = {
        ("balanced", 0): ["i10", "i26", "i14", "i22", "i30", "i36", "i8", "i28", "i16", "i20",
                          "i17", "i29", "i25", "i9", "i39", "i35", "i19", "i31"],
        ("balanced", 7): ["i24", "i32", "i0", "i28", "i16", "i2", "i22", "i18", "i38", "i26",
                          "i13", "i33", "i17", "i25", "i31", "i11", "i15", "i3"],
        ("scarce", 0): ["b0", "a9", "a2", "a7", "a4", "a5", "a1", "c1", "c0"],
        ("scarce", 7): ["a6", "a8", "a0", "a7", "a4", "a1", "b0", "c0", "c1"],
        ("101-labels", 0): "de69475332d4ab37",
        ("101-labels", 7): "fa2f541394bd95c4",
    }

    @pytest.mark.parametrize("population, seed", sorted(_PINNED))
    def test_pinned_picks(self, population, seed):
        pool, m = {
            "balanced": ([(f"i{i}", f"l{i % 4}") for i in range(40)], 18),
            "scarce": ([(f"a{i}", "big") for i in range(10)]
                       + [("b0", "small"), ("c0", "mid"), ("c1", "mid")], 9),
            "101-labels": ([(f"id{L}_{i}", f"label{L:03d}") for L in range(101)
                            for i in range(10)], 599),
        }[population]
        picked = stratified_subset(pool, m, seed)
        if population == "101-labels":
            picked = hashlib.sha256(",".join(picked).encode()).hexdigest()[:16]
        assert picked == self._PINNED[population, seed]


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
