import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast.dataio import (
    NPY_MAGIC,
    DatasetSplit,
    _parse_pnm,
    VideoDataset,
    detect_time_axis,
    load_frame_directory,
    load_sequences_npy,
    parse_array_file,
    split_sequences,
    write_array_file,
)
from latentcast.errors import (
    DataError,
    FormatError,
    GapError,
    InconsistentSequenceError,
    InsufficientDataError,
    LatentcastError,
    TruncationError,
    UnsupportedDtypeError,
)


def npy_bytes(tmp_path, arr: np.ndarray) -> bytes:
    path = tmp_path / "a.npy"
    write_array_file(path, arr)
    return path.read_bytes()


def npy_with_header(fields: dict[str, str], payload: bytes = b"\0" * 24) -> bytes:
    """An .npy v1 stream whose header dictionary holds ``fields`` as given
    source text (defaults: a (2, 3) float32 array)."""
    fields = {"descr": "'<f4'", "fortran_order": "False", "shape": "(2, 3)", **fields}
    header = "{" + ", ".join(f"'{k}': {v}" for k, v in fields.items()) + "}\n"
    raw = header.encode("latin1")
    return NPY_MAGIC + bytes([1, 0]) + len(raw).to_bytes(2, "little") + raw + payload


class TestNpy:
    def test_uint8_rescaled_to_unit_interval(self, tmp_path):
        arr = np.arange(0, 256, dtype=np.uint8).reshape(16, 16)
        shape, values = parse_array_file(npy_bytes(tmp_path, arr))
        assert shape == [16, 16]
        assert values.dtype == np.float32
        assert values.min() == 0.0 and values.max() == 1.0
        np.testing.assert_allclose(values, arr / 255.0, atol=1e-6)

    def test_minimal_file(self, tmp_path):
        shape, values = parse_array_file(npy_bytes(tmp_path, np.array([0.0], dtype=np.float64)))
        assert shape == [1]
        assert values.tolist() == [0.0]

    def test_round_trip_bit_exact(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
        shape, values = parse_array_file(npy_bytes(tmp_path, arr))
        assert shape == [3, 4, 5]
        assert values.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("shape", [(), (0,), (2, 3)])
    def test_round_trip_keeps_shape(self, tmp_path, shape):
        arr = np.arange(math.prod(shape), dtype=np.float32).reshape(shape)
        shape_out, values = parse_array_file(npy_bytes(tmp_path, arr))
        assert shape_out == list(shape)
        assert values.shape == shape and values.tobytes() == arr.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
    )
    def test_round_trip_property(self, tmp_path_factory, shape, seed, wide):
        dtype = np.float64 if wide else np.float32
        arr = np.random.default_rng(seed).normal(size=shape).astype(dtype)
        tmp = tmp_path_factory.mktemp("npy")
        shape_out, values = parse_array_file(npy_bytes(tmp, arr))
        assert shape_out == list(shape)
        assert values.dtype == dtype
        assert values.tobytes() == arr.tobytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            parse_array_file(b"\x93NUMPZ" + b"\x00" * 64)

    def test_unsupported_dtype(self, tmp_path):
        data = bytearray(npy_bytes(tmp_path, np.zeros(4, dtype=np.float32)))
        blob = bytes(data).replace(b"'<f4'", b"'<i4'")
        with pytest.raises(UnsupportedDtypeError):
            parse_array_file(blob)

    def test_truncated_payload(self, tmp_path):
        blob = npy_bytes(tmp_path, np.zeros(64, dtype=np.float32))
        with pytest.raises(TruncationError):
            parse_array_file(blob[:-8])

    def test_fortran_order_rejected(self, tmp_path):
        blob = npy_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32))
        blob = blob.replace(b"'fortran_order': False", b"'fortran_order': True ")
        with pytest.raises(FormatError):
            parse_array_file(blob)

    @pytest.mark.parametrize(
        "field, value",
        [("shape", "3"), ("shape", "('a',)"), ("shape", "(1.5,)"), ("shape", "(True,)"),
         ("shape", "(-1, 2)"), ("shape", "{}"), ("shape", "[2, 3]"), ("descr", "['<f4']"),
         ("descr", "4"), ("shape", "{[1]: 2}"), ("shape", "-" * 3000 + "1"),
         ("shape", "-" * 7000 + "1"), ("shape", "(0, 1518494220, 1518506280)")],
        ids=lambda v: v if len(v) < 20 else f"{v[0]}x{len(v) - 1}",
    )
    def test_malformed_header_field_is_format_error(self, field, value):
        with pytest.raises(FormatError):
            parse_array_file(npy_with_header({field: value}))

    def test_hand_built_header_parses(self):
        shape, values = parse_array_file(npy_with_header({}))
        assert shape == [2, 3]
        assert values.shape == (2, 3)

    def test_time_axis_detection(self):
        # Moving-MNIST layout: (T, N, H, W) with T = 20
        assert detect_time_axis([20, 10000, 64, 64]) == 0
        assert detect_time_axis([5, 20, 64, 64]) == 1
        assert detect_time_axis([64, 64]) is None

    def test_load_sequences_time_first(self, tmp_path):
        arr = (np.random.default_rng(1).integers(0, 256, size=(20, 5, 16, 16))).astype(np.uint8)
        path = tmp_path / "seqs.npy"
        write_array_file(path, arr)
        ds = load_sequences_npy(path)
        assert ds.data.shape == (5, 20, 16, 16, 1)
        assert 0.0 <= ds.data.min() and ds.data.max() <= 1.0
        # explicit override beats detection
        ds2 = load_sequences_npy(path, time_axis=0)
        np.testing.assert_array_equal(ds.data, ds2.data)


VALID_NPY = npy_with_header({}, np.arange(6, dtype="<f4").tobytes())

_LATIN1 = st.characters(max_codepoint=255)
_LITERALS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(_LATIN1, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(_LATIN1, max_size=3), inner, max_size=2),
    max_leaves=6,
)


def parses_or_typed_error(blob: bytes) -> None:
    try:
        parse_array_file(blob)
    except LatentcastError:
        pass


class TestNpyFuzz:
    """Malformed array files raise only the package's typed errors."""

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID_NPY) - 1),
                                    st.integers(0, 255) | st.sampled_from(b"0123456789(),.-'[]{}: ")),
                          min_size=1, max_size=8))
    def test_byte_mutations(self, edits):
        blob = bytearray(VALID_NPY)
        for pos, value in edits:
            blob[pos] = value
        parses_or_typed_error(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, len(VALID_NPY)))
    def test_truncation(self, cut):
        parses_or_typed_error(VALID_NPY[:cut])

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(["descr", "fortran_order", "shape"]), value=_LITERALS)
    def test_header_field_substitution(self, field, value):
        parses_or_typed_error(npy_with_header({field: repr(value)}))

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(["descr", "fortran_order", "shape"]),
           raw=st.binary(max_size=24))
    def test_header_raw_substitution(self, field, raw):
        parses_or_typed_error(npy_with_header({field: raw.decode("latin1")}))


def write_pgm(path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(b"P5 %d %d 255\n" % (w, h) + pixels.astype(np.uint8).tobytes())


def write_ppm(path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(b"P6 %d %d 255\n" % (w, h) + pixels.astype(np.uint8).tobytes())


class TestPnm:
    def test_pgm_sequence(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(20):
            write_pgm(tmp_path / f"f{i:03d}.pgm", rng.integers(0, 256, size=(120, 160)))
        seq = load_frame_directory(tmp_path, channels=1)
        assert len(seq) == 20
        assert seq.frames.shape[1:] == (120, 160, 1)
        assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0

    def test_single_black_pixel(self, tmp_path):
        write_pgm(tmp_path / "f0.pgm", np.zeros((1, 1)))
        seq = load_frame_directory(tmp_path, channels=1)
        assert len(seq) == 1
        assert seq.frames[0, 0, 0, 0] == 0.0

    def test_ppm_color(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(3):
            write_ppm(tmp_path / f"f{i:02d}.ppm", rng.integers(0, 256, size=(240, 320, 3)))
        seq = load_frame_directory(tmp_path, channels=3)
        assert seq.frames.shape == (3, 240, 320, 3)

    def test_mixed_dimensions(self, tmp_path):
        write_pgm(tmp_path / "f0.pgm", np.zeros((4, 4)))
        write_pgm(tmp_path / "f1.pgm", np.zeros((4, 5)))
        with pytest.raises(InconsistentSequenceError):
            load_frame_directory(tmp_path, channels=1)

    def test_missing_index(self, tmp_path):
        write_pgm(tmp_path / "f0.pgm", np.zeros((4, 4)))
        write_pgm(tmp_path / "f2.pgm", np.zeros((4, 4)))
        with pytest.raises(GapError):
            load_frame_directory(tmp_path, channels=1)

    def test_malformed_header(self, tmp_path):
        (tmp_path / "f0.pgm").write_bytes(b"P5 x y 255\n")
        with pytest.raises(FormatError):
            load_frame_directory(tmp_path, channels=1)

    def test_wrong_maxval(self, tmp_path):
        (tmp_path / "f0.pgm").write_bytes(b"P5 2 2 65535\n" + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_frame_directory(tmp_path, channels=1)

    def test_comment_in_header(self, tmp_path):
        (tmp_path / "f0.pgm").write_bytes(b"P5\n# a comment\n2 2 255\n" + b"\x01\x02\x03\x04")
        seq = load_frame_directory(tmp_path, channels=1)
        assert seq.frames.shape == (1, 2, 2, 1)


    @pytest.mark.parametrize("width, height", [(0, 0), (3, 0), (0, 2)])
    def test_zero_size_frame_is_format_error(self, tmp_path, width, height):
        (tmp_path / "f0.pgm").write_bytes(b"P5 %d %d 255\n" % (width, height))
        with pytest.raises(FormatError):
            load_frame_directory(tmp_path, channels=1)

    def test_overlong_header_field_is_format_error(self):
        with pytest.raises(FormatError):
            _parse_pnm(b"P5 " + b"9" * 5000 + b" 2 255\n", Path("f0.pgm"))


PNM_FIELDS = {"magic": b"P5", "width": b"3", "height": b"2", "maxval": b"255"}
VALID_PGM = b"P5 3 2 255\n" + bytes(range(6))


def pnm_parses_or_typed_error(blob: bytes) -> None:
    try:
        _parse_pnm(blob, Path("f0.pgm"))
    except LatentcastError:
        pass


class TestPnmFuzz:
    """Malformed PGM files raise only the package's typed errors."""

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID_PGM) - 1),
                                    st.integers(0, 255) | st.sampled_from(b"0123456789 #\nP56")),
                          min_size=1, max_size=6))
    def test_byte_mutations(self, edits):
        blob = bytearray(VALID_PGM)
        for pos, value in edits:
            blob[pos] = value
        pnm_parses_or_typed_error(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, len(VALID_PGM)))
    def test_truncation(self, cut):
        pnm_parses_or_typed_error(VALID_PGM[:cut])

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(sorted(PNM_FIELDS)),
           value=st.binary(max_size=8) | st.integers(0, 2**70).map(lambda v: b"%d" % v)
           | st.integers(0, 6000).map(lambda n: b"9" * n))
    def test_header_field_substitution(self, field, value):
        fields = {**PNM_FIELDS, field: value}
        header = b" ".join(fields[k] for k in ("magic", "width", "height", "maxval"))
        pnm_parses_or_typed_error(header + b"\n" + bytes(range(6)))

    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, len(VALID_PGM) - 1), st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_frame_directory(self, edits):
        blob = bytearray(VALID_PGM)
        for pos, value in edits:
            blob[pos] = value
        with tempfile.TemporaryDirectory() as folder:
            (Path(folder) / "f0.pgm").write_bytes(VALID_PGM)
            (Path(folder) / "f1.pgm").write_bytes(bytes(blob))
            try:
                load_frame_directory(folder, channels=1)
            except LatentcastError:
                pass


class TestSplit:
    def test_paper_counts(self):
        ids = [f"s{i}" for i in range(599)]
        split = split_sequences(ids, test_fraction=0.2, val_fraction=0.0, seed=0)
        assert len(split.train_ids) == 480
        assert len(split.test_ids) == 119
        # frame bookkeeping at 20 frames per sequence
        assert len(split.train_ids) * 20 == 9600
        assert len(split.test_ids) * 20 == 2380

    def test_exact_ratio(self):
        split = split_sequences([f"s{i}" for i in range(10)], 0.2, 0.0, seed=1)
        assert (len(split.train_ids), len(split.test_ids)) == (8, 2)

    def test_validation_carved_from_training(self):
        ids = [f"s{i}" for i in range(599)]
        split = split_sequences(ids, 0.2, 0.2, seed=0)
        assert len(split.test_ids) == 119
        assert len(split.val_ids) == 96  # floor(480 * 0.2)
        assert len(split.train_ids) == 384

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            split_sequences(["a", "b"], 0.4, 0.4, seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_sequences(["a", "b", "c"], 0.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            split_sequences(["a", "b", "c"], 1.0, 0.1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 300),
        test_fraction=st.floats(0.05, 0.6),
        val_fraction=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_partition_property(self, n, test_fraction, val_fraction, seed):
        ids = [f"s{i}" for i in range(n)]
        split = split_sequences(ids, test_fraction, val_fraction, seed)
        parts = [split.train_ids, split.val_ids, split.test_ids]
        joined = sum((list(p) for p in parts), [])
        assert sorted(joined) == sorted(ids)  # disjoint + exhaustive
        again = split_sequences(ids, test_fraction, val_fraction, seed)
        assert (again.train_ids, again.val_ids, again.test_ids) == (
            split.train_ids,
            split.val_ids,
            split.test_ids,
        )
        other = split_sequences(ids, test_fraction, val_fraction, seed + 1)
        assert [len(p) for p in parts] == [
            len(other.train_ids),
            len(other.val_ids),
            len(other.test_ids),
        ]

    def test_split_json_round_trip(self):
        split = split_sequences([f"s{i}" for i in range(20)], 0.2, 0.1, seed=3)
        again = DatasetSplit.from_json(split.to_json())
        assert again == split

    @pytest.mark.parametrize("doc, named", [
        ({"train_ids": ["a"], "val_ids": [], "test_ids": []}, "seed"),
        ({"train_ids": 5, "val_ids": [], "test_ids": [], "seed": 0}, "train_ids"),
        ({"train_ids": [[1]], "val_ids": [], "test_ids": [], "seed": 0}, "train_ids"),
        ({"train_ids": ["a"], "val_ids": None, "test_ids": [], "seed": 0}, "val_ids"),
        ({"train_ids": ["a"], "val_ids": [], "test_ids": [], "seed": -1}, "seed"),
    ], ids=["no-seed", "ids-number", "ids-nested", "ids-null", "seed-negative"])
    def test_split_json_missing_key_is_data_error(self, doc, named):
        with pytest.raises(DataError, match=named):
            DatasetSplit.from_json(json.dumps(doc))
        with pytest.raises(DataError, match="JSON"):
            DatasetSplit.from_json("[1, 2")


class TestVideoDataset:
    def test_save_load_round_trip(self, tmp_path):
        data = np.random.default_rng(0).random((3, 4, 8, 8, 1)).astype(np.float32)
        ds = VideoDataset(data, [f"v{i}" for i in range(3)], ["a", "b", "a"])
        path = tmp_path / "ds.npy"
        ds.save(path)
        back = VideoDataset.load(path)
        np.testing.assert_array_equal(back.data, data)
        assert back.ids == ds.ids
        assert back.labels == ds.labels

    @pytest.mark.parametrize(
        "meta",
        [b"{not json", b"\xff\xfe\x00", b"[1, 2]", b'{"labels": null}', b'{"ids": "abc"}',
         b'{"ids": ["a", "b", "c"], "labels": 7}'],
        ids=["invalid-json", "binary", "not-object", "no-ids", "ids-not-list", "labels-not-list"],
    )
    def test_bad_meta_is_data_error(self, tmp_path, meta):
        path = tmp_path / "ds.npy"
        write_array_file(path, np.zeros((3, 2, 4, 4, 1), dtype=np.float32))
        (tmp_path / "ds.npy.meta.json").write_bytes(meta)
        with pytest.raises(DataError):
            VideoDataset.load(path)

    def test_select_preserves_order(self):
        data = np.zeros((3, 2, 8, 8, 1), dtype=np.float32)
        data[1] = 1.0
        ds = VideoDataset(data, ["a", "b", "c"])
        sub = ds.select(["b", "a"])
        assert sub.ids == ["b", "a"]
        assert sub.data[0].max() == 1.0
