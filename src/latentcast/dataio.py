"""Frame ingestion, array-file IO, and sequence-preserving dataset splits.

Conventions used throughout the package:

* a frame is an ``(H, W, C)`` ndarray; normalized frames are float32 in
  [0, 1], raw frames are uint8 in 0..255
* a sequence is a ``(T, H, W, C)`` ndarray
* a dataset is a ``(N, T, H, W, C)`` ndarray plus per-sequence ids/labels
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    GapError,
    InconsistentSequenceError,
    InsufficientDataError,
    TruncationError,
    UnsupportedDtypeError,
    _seeded_rng,
)

NPY_MAGIC = b"\x93NUMPY"

# dtypes the interchange container accepts: unsigned bytes plus little-endian floats
_DESCR_MAP = {
    "|u1": np.uint8,
    "<u1": np.uint8,
    "u1": np.uint8,
    "<f4": np.float32,
    "<f8": np.float64,
}


@dataclass
class FrameSequence:
    """An ordered run of frames from one video.

    ``frames`` is a ``(T, H, W, C)`` array. uint8 data is raw (0..255);
    float data is normalized to [0, 1].
    """

    id: str
    frames: np.ndarray
    label: str | None = None

    def __post_init__(self) -> None:
        if self.frames.ndim != 4:
            raise InconsistentSequenceError(
                f"sequence {self.id!r}: frames must be (T, H, W, C), got shape {self.frames.shape}"
            )

    def __len__(self) -> int:
        return self.frames.shape[0]


def _json_object(text: str | bytes, what: str, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object that holds ``keys``; anything else is a
    ``DataError`` naming ``what``."""
    try:
        d = json.loads(text)
    except ValueError as exc:  # also undecodable bytes
        raise DataError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise DataError(f"{what} must hold a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise DataError(f"{what} lacks key(s) {', '.join(missing)}")
    return d


def index_ids(ids: list[str], wanted: list[str]) -> list[int]:
    """Position in ``ids`` of each of ``wanted``; raises a DataError naming
    the ids that are not there."""
    where: dict[str, int] = {}
    for i, seq_id in enumerate(ids):
        where.setdefault(seq_id, i)
    missing = [seq_id for seq_id in wanted if seq_id not in where]
    if missing:
        raise DataError(f"{len(missing)} unknown sequence ids, first {missing[:5]}")
    return [where[seq_id] for seq_id in wanted]


@dataclass
class VideoDataset:
    """A stack of equally-shaped sequences with provenance ids."""

    data: np.ndarray  # (N, T, H, W, C)
    ids: list[str]
    labels: list[str] | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 5:
            raise InconsistentSequenceError(
                f"dataset array must be (N, T, H, W, C), got shape {self.data.shape}"
            )
        if len(self.ids) != self.data.shape[0]:
            raise InconsistentSequenceError(
                f"{len(self.ids)} ids for {self.data.shape[0]} sequences"
            )
        if self.labels is not None and len(self.labels) != self.data.shape[0]:
            raise InconsistentSequenceError(
                f"{len(self.labels)} labels for {self.data.shape[0]} sequences"
            )

    def __len__(self) -> int:
        return self.data.shape[0]

    def select(self, ids: list[str]) -> "VideoDataset":
        idx = index_ids(self.ids, ids)
        labels = [self.labels[i] for i in idx] if self.labels is not None else None
        return VideoDataset(self.data[idx], list(ids), labels)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        write_array_file(path, self.data.astype(np.float32, copy=False))
        meta = {"ids": self.ids, "labels": self.labels}
        path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, path: str | Path) -> "VideoDataset":
        path = Path(path)
        dataset = load_sequences_npy(path, time_axis=1)
        meta_path = path.with_suffix(path.suffix + ".meta.json")
        if not meta_path.exists():
            return dataset
        meta = _json_object(meta_path.read_bytes(), meta_path.name, ("ids",))
        ids, labels = meta["ids"], meta.get("labels")
        if not isinstance(ids, list) or not isinstance(labels, (list, type(None))):
            raise DataError(f"{meta_path.name}: ids and labels must be lists")
        return cls(dataset.data, ids, labels)


@dataclass
class DatasetSplit:
    """Sequence-preserving train/validation/test partition."""

    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]
    seed: int

    def __post_init__(self) -> None:
        if not self.train_ids:
            raise InsufficientDataError("split leaves no training sequences")
        parts = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        total = sum(len(p) for p in parts)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise InsufficientDataError("split partitions overlap")

    def to_json(self) -> str:
        return json.dumps(
            {
                "train_ids": self.train_ids,
                "val_ids": self.val_ids,
                "test_ids": self.test_ids,
                "seed": self.seed,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetSplit":
        """Parse ``to_json`` output; malformed JSON, a missing key, an id list
        that is not a list of strings or a seed that is not an integer >= 0
        is a ``DataError``."""
        keys = ("train_ids", "val_ids", "test_ids", "seed")
        d = _json_object(text, "split file", keys)
        for k in keys[:3]:
            if not isinstance(d[k], list) or not all(isinstance(s, str) for s in d[k]):
                raise DataError(f"split file: {k} must be a list of strings")
        if type(d["seed"]) is not int or d["seed"] < 0:
            raise DataError("split file: seed must be an integer >= 0")
        return cls(*(d[k] for k in keys))


# ---------------------------------------------------------------------------
# .npy v1 container
# ---------------------------------------------------------------------------


def parse_array_file(data: bytes) -> tuple[list[int], np.ndarray]:
    """Parse an ``.npy`` v1 byte stream of frame data into (shape, values).

    uint8 payloads are rescaled to float32 in [0, 1]; float payloads are
    returned unchanged.
    """
    shape, values = _read_npy(data)
    if values.dtype == np.uint8:
        values = values.astype(np.float32) / 255.0
    return shape, values


def _read_npy(data: bytes) -> tuple[list[int], np.ndarray]:
    """Parse an ``.npy`` v1 byte stream into (shape, values) in the stored
    dtype, as a read-only view of ``data``. Only C-order little-endian files
    are accepted."""
    if data[:6] != NPY_MAGIC:
        raise FormatError("not an .npy file (bad magic)")
    if len(data) < 10:
        raise FormatError("truncated .npy header")
    major, minor = data[6], data[7]
    if major != 1:
        raise FormatError(f"unsupported .npy version {major}.{minor}")
    header_len = int.from_bytes(data[8:10], "little")
    header_end = 10 + header_len
    if len(data) < header_end:
        raise FormatError("truncated .npy header")
    try:
        header = ast.literal_eval(data[10:header_end].decode("latin1"))
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError) as exc:
        raise FormatError(f"unparseable .npy header: {exc}") from exc
    if not isinstance(header, dict) or not {"descr", "fortran_order", "shape"} <= set(header):
        raise FormatError("incomplete .npy header dictionary")
    descr, shape = header["descr"], header["shape"]
    if not isinstance(descr, str):
        raise FormatError(f"element type must be a string, got {descr!r}")
    if descr not in _DESCR_MAP:
        raise UnsupportedDtypeError(f"unsupported element type {descr!r}")
    if header["fortran_order"]:
        raise FormatError("fortran-order arrays are not supported")
    if not isinstance(shape, tuple) or not all(type(s) is int and s >= 0 for s in shape):
        raise FormatError(f"shape must be a tuple of non-negative integers, got {shape!r}")
    shape = list(shape)
    dtype = np.dtype(_DESCR_MAP[descr])
    count = math.prod(shape)
    payload = data[header_end:]
    if len(payload) < count * dtype.itemsize:
        raise TruncationError(
            f"payload holds {len(payload)} bytes, shape {tuple(shape)} needs {count * dtype.itemsize}"
        )
    try:  # a zero extent passes the size check whatever the other extents are
        values = np.frombuffer(payload, dtype=dtype, count=count).reshape(shape)
    except ValueError as exc:
        raise FormatError(f"shape {tuple(shape)} cannot be held: {exc}") from exc
    return shape, values


def write_array_file(path: str | Path, values: np.ndarray) -> None:
    """Write a C-order little-endian ``.npy`` v1 file."""
    values = np.asarray(values, order="C")
    if values.dtype == np.uint8:
        descr = "|u1"
    elif values.dtype == np.float32:
        descr = "<f4"
    elif values.dtype == np.float64:
        descr = "<f8"
    else:
        raise UnsupportedDtypeError(f"refusing to write dtype {values.dtype}")
    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        descr,
        tuple(int(s) for s in values.shape),
    )
    # pad with spaces so that magic+version+len+header is 64-byte aligned
    unpadded = 10 + len(header) + 1
    header = header + " " * (-unpadded % 64) + "\n"
    with open(path, "wb") as fh:
        fh.write(NPY_MAGIC)
        fh.write(bytes([1, 0]))
        fh.write(len(header).to_bytes(2, "little"))
        fh.write(header.encode("latin1"))
        fh.write(values.tobytes())


def detect_time_axis(shape: list[int] | tuple[int, ...], length: int = 20) -> int | None:
    """First axis whose extent equals the standardized sequence length."""
    for axis, extent in enumerate(shape):
        if extent == length:
            return axis
    return None


def load_sequences_npy(
    path: str | Path,
    time_axis: int | None = None,
    sequence_length: int = 20,
) -> VideoDataset:
    """Load an array file of stacked sequences and normalize axis order.

    Accepts (N, T, H, W), (T, N, H, W) or (N, T, H, W, C) layouts. The time
    axis is auto-detected as the first axis of extent ``sequence_length``
    unless given explicitly.
    """
    shape, values = parse_array_file(Path(path).read_bytes())
    if len(shape) == 4:
        axis = time_axis if time_axis is not None else detect_time_axis(shape, sequence_length)
        if axis is None:
            raise FormatError(
                f"no axis of extent {sequence_length} in shape {tuple(shape)}; pass time_axis"
            )
        if axis not in (0, 1):
            raise FormatError(f"time axis must be 0 or 1 for 4-D input, got {axis}")
        if axis == 0:
            values = np.moveaxis(values, 0, 1)
        values = values[..., None]
    elif len(shape) == 5:
        if time_axis not in (None, 1):
            raise FormatError("5-D input must already be (N, T, H, W, C)")
    else:
        raise FormatError(f"expected 4-D or 5-D sequence data, got shape {tuple(shape)}")
    ids = [f"seq{i:05d}" for i in range(values.shape[0])]
    return VideoDataset(values.astype(np.float32, copy=False), ids)


# ---------------------------------------------------------------------------
# PNM frame directories
# ---------------------------------------------------------------------------


def _parse_pnm(data: bytes, path: Path) -> np.ndarray:
    """Parse a binary PGM (P5) or PPM (P6) file into an (H, W, C) uint8 array."""
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise FormatError(f"{path.name}: not a binary PGM/PPM file")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{path.name}: truncated PNM header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise FormatError(f"{path.name}: unterminated comment")
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            if end - pos > 9:  # also keeps int() below its digit limit
                raise FormatError(f"{path.name}: PNM header field over 9 digits")
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise FormatError(f"{path.name}: malformed PNM header")
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise FormatError(f"{path.name}: frame is {width}x{height}, needs at least one pixel")
    if maxval != 255:
        raise FormatError(f"{path.name}: maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    needed = width * height * channels
    raster = data[pos : pos + needed]
    if len(raster) < needed:
        raise FormatError(f"{path.name}: raster holds {len(raster)} of {needed} bytes")
    return np.frombuffer(raster, dtype=np.uint8, count=needed).reshape(height, width, channels)


def load_frame_directory(path: str | Path, channels: int = 1) -> FrameSequence:
    """Load a directory of index-named PGM/PPM frames as one normalized sequence.

    Frames are ordered by the numeric index in their filename; the index run
    must be 0..n-1 with no gaps and all frames must share one geometry.
    """
    if channels not in (1, 3):
        raise FormatError(f"channels must be 1 or 3, got {channels}")
    path = Path(path)
    suffix = ".pgm" if channels == 1 else ".ppm"
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == suffix)
    if not files:
        raise FormatError(f"no {suffix} files in {path}")
    indexed: list[tuple[int, Path]] = []
    for p in files:
        m = re.search(r"(\d+)", p.stem)
        if m is None:
            raise FormatError(f"{p.name}: filename carries no frame index")
        indexed.append((int(m.group(1)), p))
    indexed.sort()
    indices = [i for i, _ in indexed]
    if indices != list(range(len(indexed))):
        missing = sorted(set(range(len(indexed))) - set(indices))
        raise GapError(f"frame indices not a 0..n-1 run; missing {missing}, got {indices}")
    frames = []
    for _, p in indexed:
        frame = _parse_pnm(p.read_bytes(), p)
        if frame.shape[2] != channels:
            raise InconsistentSequenceError(
                f"{p.name}: {frame.shape[2]} channels, expected {channels}"
            )
        if frames and frame.shape != frames[0].shape:
            raise InconsistentSequenceError(
                f"{p.name}: shape {frame.shape[:2]} differs from {frames[0].shape[:2]}"
            )
        frames.append(frame)
    stack = np.stack(frames).astype(np.float32) / 255.0
    return FrameSequence(id=path.name, frames=stack)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def split_sequences(
    ids: list[str],
    test_fraction: float,
    val_fraction: float = 0.0,
    seed: int = 0,
) -> DatasetSplit:
    """Deterministic sequence-level split.

    test count = floor(n * test_fraction), so 599 sequences at 0.2 give the
    480/119 partition; validation is carved from the remaining training
    portion at ``val_fraction``.
    """
    n = len(ids)
    if n == 0:
        raise InsufficientDataError("no sequence ids to split")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if n < 3 and val_fraction > 0.0:
        raise InsufficientDataError(f"{n} sequences cannot fill three partitions")
    n_test = int(np.floor(n * test_fraction))
    n_val = int(np.floor((n - n_test) * val_fraction))
    rng = _seeded_rng(seed)
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]
    test_ids = shuffled[:n_test]
    val_ids = shuffled[n_test : n_test + n_val]
    train_ids = shuffled[n_test + n_val :]
    return DatasetSplit(train_ids=train_ids, val_ids=val_ids, test_ids=test_ids, seed=seed)
