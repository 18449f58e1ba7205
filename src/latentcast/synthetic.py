"""Deterministic synthetic video generators for desk-scale runs.

``moving_sprites`` mimics the two-digit bouncing-sprite setup: small bright
glyphs translating with constant velocity and reflecting off the frame
border, on a black background.
"""

from __future__ import annotations

import numpy as np

from .dataio import VideoDataset
from .errors import ConfigError, _seeded_rng

_GLYPHS = [
    np.array(
        [
            [0, 1, 1, 1, 0],
            [1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [0, 1, 1, 1, 0],
        ],
        dtype=np.float32,
    ),
    np.array(
        [
            [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [1, 1, 1, 1, 1],
            [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0],
        ],
        dtype=np.float32,
    ),
    np.array(
        [
            [1, 0, 0, 0, 1],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 0],
            [0, 1, 0, 1, 0],
            [1, 0, 0, 0, 1],
        ],
        dtype=np.float32,
    ),
]


def _scale_glyph(glyph: np.ndarray, size: int) -> np.ndarray:
    reps = max(1, size // glyph.shape[0])
    return np.kron(glyph, np.ones((reps, reps), dtype=np.float32))


def moving_sprites(
    n_sequences: int,
    length: int = 20,
    size: int = 64,
    sprites: int = 2,
    sprite_size: int = 15,
    channels: int = 1,
    seed: int = 0,
    labels: bool = False,
) -> VideoDataset:
    """Sequences of bouncing glyphs: (n, length, size, size, channels) in
    [0, 1], deterministic in the seed. A ``ConfigError`` names a
    ``sprite_size`` too large for ``size``, where a bounce would carry a
    sprite out of the frame."""
    rng = _seeded_rng(seed)
    glyphs = [_scale_glyph(g, sprite_size) for g in _GLYPHS]
    limit = size - glyphs[0].shape[0]  # last in-frame corner row/column; glyphs are square
    too_big = ConfigError(
        f"sprite_size={sprite_size} is too large for size={size}: a bouncing sprite leaves the frame"
    )
    if limit < 0:
        raise too_big
    data = np.zeros((n_sequences, length, size, size, channels), dtype=np.float32)
    label_list: list[str] = []
    for s in range(n_sequences):
        frames = np.zeros((length, size, size), dtype=np.float32)
        glyph_idx = int(rng.integers(len(glyphs)))
        label_list.append(f"glyph{glyph_idx}")
        for _ in range(sprites):
            glyph = glyphs[int(rng.integers(len(glyphs)))]
            gh, gw = glyph.shape
            pos = rng.uniform([0, 0], [size - gh, size - gw])
            vel = rng.uniform(1.0, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            for t in range(length):
                r, c = int(round(pos[0])), int(round(pos[1]))
                if not (0 <= r <= limit and 0 <= c <= limit):
                    raise too_big
                frames[t, r : r + gh, c : c + gw] = np.maximum(
                    frames[t, r : r + gh, c : c + gw], glyph
                )
                pos += vel
                for axis, limit in ((0, size - gh), (1, size - gw)):
                    if pos[axis] < 0:
                        pos[axis] = -pos[axis]
                        vel[axis] = -vel[axis]
                    elif pos[axis] > limit:
                        pos[axis] = 2 * limit - pos[axis]
                        vel[axis] = -vel[axis]
        for ch in range(channels):
            fade = 1.0 if channels == 1 else 1.0 - 0.25 * ch
            data[s, :, :, :, ch] = frames * fade
    ids = [f"synth{c:05d}" for c in range(n_sequences)]
    return VideoDataset(data, ids, label_list if labels else None)
