import numpy as np
import pytest

from stabilitykit.media import FrameSequence
from stabilitykit.synth import make_base


def textured_frame(seed: int = 0, width: int = 96, height: int = 96) -> np.ndarray:
    """uint8 luma frame with plenty of corners."""
    return make_base(width, height, seed=seed)


def textured_plane(seed: int = 0, width: int = 96, height: int = 96) -> np.ndarray:
    return make_base(width, height, seed=seed).astype(np.float64)


def constant_sequence(value: int = 80, count: int = 3, width: int = 32, height: int = 32) -> FrameSequence:
    frames = np.full((count, height, width), value, dtype=np.uint8)
    return FrameSequence(frames=frames)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
