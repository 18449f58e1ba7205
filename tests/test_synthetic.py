import hashlib

import pytest

from latentcast.errors import ConfigError
from latentcast.synthetic import moving_sprites


@pytest.mark.parametrize("size, sprite_size", [(16, 15), (4, 5)])
def test_sprite_too_large_for_frame_is_config_error(size, sprite_size):
    with pytest.raises(ConfigError, match=rf"sprite_size={sprite_size} .*size={size}"):
        moving_sprites(4, length=8, size=size, sprite_size=sprite_size)


def test_data_is_pinned():
    ds = moving_sprites(3, length=6, size=16, sprite_size=5, channels=3, seed=4, labels=True)
    digest = hashlib.sha256(ds.data.tobytes()).hexdigest()
    assert digest == "f26e33e33b7d882e1d27ad72b02e45e594ed5e595eedcbc3ccbe0a9ed4045ee0"
    assert ds.ids == ["synth00000", "synth00001", "synth00002"]
