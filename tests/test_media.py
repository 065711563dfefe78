import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilitykit import media
from stabilitykit.errors import (
    DimensionMismatch,
    EmptyInput,
    InsufficientFrames,
    ParseError,
    TruncatedError,
)


def y4m_bytes(planes, width, height, rate=b"30:1", colorspace=b"C444"):
    """planes: list of (y, u, v) uint8 arrays already at stored resolution."""
    out = b"YUV4MPEG2 W%d H%d F%s Ip A1:1 %s\n" % (width, height, rate, colorspace)
    for y, u, v in planes:
        out += b"FRAME\n" + y.tobytes() + u.tobytes() + v.tobytes()
    return out


def gray_stream(tmp_path, value=128, count=3, width=64, height=48):
    plane = np.full((height, width), value, dtype=np.uint8)
    path = tmp_path / "gray.y4m"
    path.write_bytes(y4m_bytes([(plane, plane, plane)] * count, width, height))
    return path


class TestLoadY4m:
    def test_neutral_gray(self, tmp_path):
        seq = media.load_y4m(gray_stream(tmp_path))
        assert len(seq) == 3
        assert seq.width == 64 and seq.height == 48
        diff = np.abs(seq.frames.astype(int) - 128)
        assert diff.max() <= 1
        assert np.all(seq.frames == 128)  # Y=U=V=128 is exactly mid gray

    def test_header_fps(self, tmp_path):
        assert media.load_y4m(gray_stream(tmp_path)).fps == 30.0

    def test_ntsc_fps(self, tmp_path):
        plane = np.full((16, 16), 10, dtype=np.uint8)
        p = tmp_path / "ntsc.y4m"
        p.write_bytes(y4m_bytes([(plane,) * 3] * 2, 16, 16, rate=b"30000:1001"))
        assert media.load_y4m(p).fps == pytest.approx(29.97, abs=0.01)

    def test_truncated_names_frame_index(self, tmp_path):
        data = gray_stream(tmp_path).read_bytes()
        (tmp_path / "cut.y4m").write_bytes(data[: len(data) - 100])
        with pytest.raises(TruncatedError, match="frame 2"):
            media.load_y4m(tmp_path / "cut.y4m")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.y4m"
        p.write_bytes(b"NOTY4M W2 H2 F30:1\n")
        with pytest.raises(ParseError):
            media.load_y4m(p)

    @pytest.mark.parametrize("header", [b"W1x H16", b"W16 H", b"W-16 H16", b"W16 H1.5"])
    def test_non_integer_size_field(self, tmp_path, header):
        p = tmp_path / "size.y4m"
        p.write_bytes(b"YUV4MPEG2 " + header + b" F30:1 C444\nFRAME\n" + bytes(3 * 16 * 16))
        with pytest.raises(ParseError, match="frame size"):
            media.load_y4m(p)

    def test_unsupported_colorspace(self, tmp_path):
        plane = np.zeros((16, 16), dtype=np.uint8)
        p = tmp_path / "c422.y4m"
        p.write_bytes(y4m_bytes([(plane,) * 3] * 2, 16, 16, colorspace=b"C422"))
        with pytest.raises(ParseError, match="colorspace"):
            media.load_y4m(p)

    def test_420_chroma_upsampled(self, tmp_path):
        y = np.full((16, 16), 90, dtype=np.uint8)
        c = np.full((8, 8), 140, dtype=np.uint8)
        p = tmp_path / "c420.y4m"
        p.write_bytes(y4m_bytes([(y, c, c)] * 2, 16, 16, colorspace=b"C420jpeg"))
        seq = media.load_y4m(p)
        # uniform color: every pixel decodes identically
        assert len(np.unique(seq.frames.reshape(-1, 3), axis=0)) == 1

    def test_reemit_is_byte_identical(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(4, 24, 32, 3), dtype=np.uint8)
        first = tmp_path / "a.y4m"
        second = tmp_path / "b.y4m"
        media.save_y4m(media.FrameSequence(frames=frames), first)
        media.save_y4m(media.load_y4m(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reemit_byte_identical_property(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("y4m")
        frames = np.random.default_rng(seed).integers(
            0, 256, size=(2, 16, 16, 3), dtype=np.uint8
        )
        first = tmp / "a.y4m"
        second = tmp / "b.y4m"
        media.save_y4m(media.FrameSequence(frames=frames), first)
        media.save_y4m(media.load_y4m(first), second)
        assert first.read_bytes() == second.read_bytes()


def write_ppm(path, arr):
    path.write_bytes(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]) + arr.tobytes())


def write_pgm(path, arr):
    path.write_bytes(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]) + arr.tobytes())


class TestFrameDir:
    def test_loads_in_name_order(self, tmp_path):
        for i in range(8):
            arr = np.full((32, 32, 3), i * 10, dtype=np.uint8)
            write_ppm(tmp_path / f"f{i:03d}.ppm", arr)
        seq = media.load_frame_dir(tmp_path)
        assert len(seq) == 8
        assert [int(f[0, 0, 0]) for f in seq.frames] == [i * 10 for i in range(8)]

    def test_mixed_dimensions(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((32, 32, 3), dtype=np.uint8))
        write_ppm(tmp_path / "b.ppm", np.zeros((64, 64, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            media.load_frame_dir(tmp_path)

    def test_pgm_replicated_to_rgb(self, tmp_path):
        arr = np.full((32, 32), 200, dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", arr)
        write_pgm(tmp_path / "b.pgm", arr)
        seq = media.load_frame_dir(tmp_path)
        assert np.all(seq.frames == 200)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyInput):
            media.load_frame_dir(tmp_path)

    def test_single_file(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(InsufficientFrames):
            media.load_frame_dir(tmp_path)

    def test_meta_json_fps(self, tmp_path):
        arr = np.zeros((32, 32), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", arr)
        write_pgm(tmp_path / "b.pgm", arr)
        (tmp_path / "meta.json").write_text(json.dumps({"fps": 24}))
        assert media.load_frame_dir(tmp_path).fps == 24.0

    def test_header_comments(self, tmp_path):
        arr = np.full((32, 32), 7, dtype=np.uint8)
        data = b"P5\n# a comment\n32 32\n255\n" + arr.tobytes()
        (tmp_path / "a.pgm").write_bytes(data)
        (tmp_path / "b.pgm").write_bytes(data)
        assert np.all(media.load_frame_dir(tmp_path).frames == 7)


class TestSampleClip:
    def _seq(self, count):
        frames = np.zeros((count, 16, 16, 3), dtype=np.uint8)
        frames[:, 0, 0, 0] = np.arange(count) % 256
        return media.FrameSequence(frames=frames)

    def test_unique_valid_start(self):
        clip = media.sample_clip(self._seq(63), n=32, tau=2, seed=99)
        assert clip.source_indices == list(range(0, 63, 2))
        assert clip.n == 32 and clip.tau == 2

    def test_too_short_reports_requirement(self):
        with pytest.raises(InsufficientFrames) as exc:
            media.sample_clip(self._seq(62), n=32, tau=2, seed=0)
        assert exc.value.required == 63

    def test_seed_determinism(self):
        seq = self._seq(100)
        a = media.sample_clip(seq, n=32, tau=2, seed=7)
        b = media.sample_clip(seq, n=32, tau=2, seed=7)
        assert a.source_indices == b.source_indices
        assert np.array_equal(a.frames, b.frames)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(63, 120))
    def test_indices_always_valid(self, seed, count):
        clip = media.sample_clip(self._seq(count), n=32, tau=2, seed=seed)
        assert len(clip.source_indices) == 32
        steps = np.diff(clip.source_indices)
        assert np.all(steps == 2)
        assert 0 <= clip.source_indices[0] and clip.source_indices[-1] < count


class TestLuma:
    def test_white(self):
        frame = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert np.all(media.to_luma(frame) == 255.0)

    def test_pure_red(self):
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[..., 0] = 255
        assert media.to_luma(frame)[0, 0] == pytest.approx(76.245, abs=1e-9)

    def test_black(self):
        assert np.all(media.to_luma(np.zeros((3, 3, 3), dtype=np.uint8)) == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_range(self, seed):
        frame = np.random.default_rng(seed).integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        luma = media.to_luma(frame)
        assert luma.min() >= 0.0 and luma.max() <= 255.0


class TestResize:
    def test_identity_is_bitwise(self, rng):
        frame = rng.integers(0, 256, size=(24, 17, 3), dtype=np.uint8)
        assert np.array_equal(media.resize_bilinear(frame, 17, 24), frame)

    def test_constant_preserved(self):
        frame = np.full((10, 14, 3), 77, dtype=np.uint8)
        for w, h in ((5, 5), (28, 20), (224, 224)):
            assert np.all(media.resize_bilinear(frame, w, h) == 77)

    def test_two_pixel_gradient(self):
        frame = np.zeros((1, 2, 3), dtype=np.uint8)
        frame[0, 1] = 255
        row = media.resize_bilinear(frame, 4, 1)[0, :, 0].astype(int)
        assert np.all(np.diff(row) >= 0)
        # half-pixel centers sample at -0.25, 0.25, 0.75, 1.25 (clamped)
        assert list(row) == [0, 64, 191, 255]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.integers(8, 40))
    def test_constant_preserved_property(self, seed, w, h):
        value = seed % 256
        frame = np.full((11, 13, 3), value, dtype=np.uint8)
        assert np.all(media.resize_bilinear(frame, w, h) == value)
