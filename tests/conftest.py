import numpy as np
import pytest
from hypothesis import strategies as st

from stabilitykit.media import FrameSequence
from stabilitykit.motion import Trajectory
from stabilitykit.synth import make_base, render_shaky


def textured_frame(seed: int = 0, width: int = 96, height: int = 96) -> np.ndarray:
    """uint8 luma frame with plenty of corners."""
    return make_base(width, height, seed=seed)


def textured_plane(seed: int = 0, width: int = 96, height: int = 96) -> np.ndarray:
    return make_base(width, height, seed=seed).astype(np.float64)


def shaky_video(seed: int, count: int = 6, size: tuple[int, int] = (128, 96)):
    """A rendered textured scene under seeded translation and rotation
    jitter, and its ground-truth path."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, [1.5, 1.5, 0.004], size=(count - 1, 3))
    path = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    traj = Trajectory(x=path[:, 0], y=path[:, 1], theta=path[:, 2])
    return render_shaky(textured_frame(seed, size[0] + 48, size[1] + 48), traj, size), traj


def constant_sequence(value: int = 80, count: int = 3, width: int = 32, height: int = 32) -> FrameSequence:
    frames = np.full((count, height, width), value, dtype=np.uint8)
    return FrameSequence(frames=frames)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_NUMBER = st.one_of(
    st.floats().map(repr), st.integers(-1000, 1000).map(str),
    st.sampled_from(["nan", "inf", "-1e400", "1e-320", " 5", "0x10"]),
)
_CELL = st.one_of(
    _NUMBER, st.text(max_size=6), st.sampled_from(["", "video_id", "score", '"', '"a,b"', "\x00"]),
)
_ASCII = st.text(st.characters(max_codepoint=127), max_size=6)
# free rows, and the shapes the readers expect: (id, name, number, session)
# and (number, number), with any ASCII in the text fields
_ROW = st.one_of(
    st.lists(_CELL, max_size=5),
    st.tuples(_ASCII, _ASCII, _NUMBER, _ASCII),
    st.tuples(_NUMBER, _NUMBER),
).map(",".join)
_LINES = st.builds(str.join, st.sampled_from(["\n", "\r\n", "\r"]), st.lists(_ROW, max_size=10))

# file contents for the text readers: arbitrary bytes, or rows encoded as
# UTF-8 or as Latin-1 (so not always UTF-8 or ASCII)
csv_bytes = st.binary(max_size=200) | st.builds(
    str.encode, _LINES, st.sampled_from(["utf-8", "latin-1"]), st.just("replace"))
