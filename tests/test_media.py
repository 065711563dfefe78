import contextlib
import json
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilitykit import media
from stabilitykit.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    InsufficientFrames,
    ParseError,
    StabilityKitError,
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


def old_resize_stack(frames, w, h):
    """The RGB resize before it shared the float core with the semantic branch."""
    src_h, src_w = frames.shape[1:3]
    xs = np.clip((np.arange(w) + 0.5) * (src_w / w) - 0.5, 0.0, src_w - 1.0)
    ys = np.clip((np.arange(h) + 0.5) * (src_h / h) - 0.5, 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = (xs - x0)[None, None, :, None]
    fy = (ys - y0)[None, :, None, None]
    f = frames.astype(np.float64)
    top = f[:, y0[:, None], x0[None, :]] * (1 - fx) + f[:, y0[:, None], x1[None, :]] * fx
    bot = f[:, y1[:, None], x0[None, :]] * (1 - fx) + f[:, y1[:, None], x1[None, :]] * fx
    out = top * (1 - fy) + bot * fy
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


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

    def test_420_chroma_ignored(self, tmp_path):
        y = np.full((16, 16), 90, dtype=np.uint8)
        c = np.full((8, 8), 140, dtype=np.uint8)
        p = tmp_path / "c420.y4m"
        p.write_bytes(y4m_bytes([(y, c, c)] * 2, 16, 16, colorspace=b"C420jpeg"))
        seq = media.load_y4m(p)
        assert seq.frames.shape == (2, 16, 16)
        assert np.all(seq.frames == 90)

    @pytest.mark.parametrize("colorspace, width, height",
                             [(b"C444", 33, 17), (b"C420jpeg", 48, 32)], ids=["C444", "C420jpeg"])
    def test_frames_are_the_y_planes(self, tmp_path, colorspace, width, height):
        rng = np.random.default_rng(11)
        sub = 2 if colorspace == b"C420jpeg" else 1
        planes = [
            tuple(rng.integers(0, 256, shape, dtype=np.uint8)
                  for shape in ((height, width), (height // sub, width // sub), (height // sub, width // sub)))
            for _ in range(3)
        ]
        p = tmp_path / "s.y4m"
        p.write_bytes(y4m_bytes(planes, width, height, colorspace=colorspace))
        frames = media.load_y4m(p).frames
        assert frames.dtype == np.uint8 and frames.shape == (3, height, width)
        for frame, (y, _, _) in zip(frames, planes):
            assert frame.tobytes() == y.tobytes()

    @pytest.mark.parametrize("cut", [1, 63])
    def test_cut_inside_last_v_plane_is_truncated(self, tmp_path, cut):
        y = np.zeros((16, 16), dtype=np.uint8)
        c = np.zeros((8, 8), dtype=np.uint8)  # 64-byte V plane
        data = y4m_bytes([(y, c, c)] * 3, 16, 16, colorspace=b"C420jpeg")
        p = tmp_path / "cut.y4m"
        p.write_bytes(data[:-cut])
        with pytest.raises(TruncatedError, match="frame 2"):
            media.load_y4m(p)

    def test_holds_only_the_luma(self, tmp_path):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 256, (8, 360, 640), dtype=np.uint8)
        c = rng.integers(0, 256, (180, 320), dtype=np.uint8)
        p = tmp_path / "big.y4m"
        p.write_bytes(y4m_bytes([(plane, c, c) for plane in y], 640, 360, colorspace=b"C420jpeg"))
        tracemalloc.start()
        try:
            frames = media.load_y4m(p).frames
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(frames, y)
        # the stream is 1.5x the luma; holding it whole would peak near 2.5x
        assert peak < 1.2 * y.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        data = gray_stream(tmp_path, value=77).read_bytes()
        fifo = tmp_path / "pipe.y4m"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        seq = media.load_y4m(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert seq.frames.shape == (3, 48, 64) and np.all(seq.frames == 77)

    # any header and payload must end in a library error or a sequence,
    # never in another exception; the sizes keep every allocation small
    @settings(max_examples=300, deadline=None)
    @given(
        st.just(b"YUV4MPEG2") | st.binary(max_size=9),
        st.lists(
            st.integers(-4, 40).map(lambda v: b"W%d" % v)
            | st.integers(-4, 40).map(lambda v: b"H%d" % v)
            | st.integers(1, 400).map(lambda n: b"F" + b"9" * n + b":1")
            | st.integers(1, 5000).map(lambda n: b"W" + b"7" * n)
            | st.sampled_from([b"C420jpeg", b"C420", b"C444", b"C422", b"Cmono", b"Ip", b""])
            | st.binary(max_size=6),
            max_size=7,
        ),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from([b"FRAME", b"FRAME Ixy", b"FRAM", b""]),
                           st.integers(0, 3 * 40 * 40)), max_size=3),
    )
    def test_header_and_payload_fuzz_raises_only_library_errors(self, magic, tokens, newline,
                                                                frames):
        data = b" ".join([magic, *tokens]) + (b"\n" if newline else b"")
        data += b"".join(marker + b"\n" + bytes(size) for marker, size in frames)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "f.y4m")
            path.write_bytes(data)
            with contextlib.suppress(StabilityKitError):
                seq = media.load_y4m(path)
                assert seq.frames.ndim == 3 and seq.frames.dtype == np.uint8

    def test_reemit_is_byte_identical(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(4, 24, 33), dtype=np.uint8)
        first = tmp_path / "a.y4m"
        second = tmp_path / "b.y4m"
        media.save_y4m(media.FrameSequence(frames=frames), first)
        seq = media.load_y4m(first)
        assert np.array_equal(seq.frames, frames)
        media.save_y4m(seq, second)
        assert first.read_bytes() == second.read_bytes()
        # after each Y plane come U and V planes of neutral 128
        payload = first.read_bytes().split(b"\n", 1)[1]
        size = 6 + 3 * 24 * 33
        for t, frame in enumerate(frames):
            block = payload[t * size : (t + 1) * size]
            assert block == b"FRAME\n" + frame.tobytes() + bytes([128]) * (2 * 24 * 33)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reemit_byte_identical_property(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("y4m")
        frames = np.random.default_rng(seed).integers(
            0, 256, size=(2, 16, 16), dtype=np.uint8
        )
        first = tmp / "a.y4m"
        second = tmp / "b.y4m"
        media.save_y4m(media.FrameSequence(frames=frames), first)
        seq = media.load_y4m(first)
        assert np.array_equal(seq.frames, frames)
        media.save_y4m(seq, second)
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
        assert [int(f[0, 0]) for f in seq.frames] == [i * 10 for i in range(8)]

    def test_mixed_dimensions(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((32, 32, 3), dtype=np.uint8))
        write_ppm(tmp_path / "b.ppm", np.zeros((64, 64, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            media.load_frame_dir(tmp_path)

    def test_pgm_used_as_is(self, tmp_path, rng):
        arrs = rng.integers(0, 256, (2, 17, 32), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", arrs[0])
        write_pgm(tmp_path / "b.pgm", arrs[1])
        seq = media.load_frame_dir(tmp_path)
        assert seq.frames.shape == (2, 17, 32)
        assert seq.frames.tobytes() == arrs.tobytes()

    def test_ppm_luma_is_per_pixel(self, tmp_path, rng):
        rgb = rng.integers(0, 256, (2, 16, 20, 3), dtype=np.uint8)
        # exact .5 ties of 0.299 R + 0.587 G + 0.114 B, and one just above
        rgb[0, 0, :3] = [(0, 0, 250), (6, 0, 129), (3, 3, 253)]
        rgb[1, 5, 7] = (255, 255, 255)
        write_ppm(tmp_path / "a.ppm", rgb[0])
        write_ppm(tmp_path / "b.ppm", rgb[1])
        got = media.load_frame_dir(tmp_path).frames
        want = [[[math.floor(r * 0.299 + g * 0.587 + b * 0.114 + 0.5) for r, g, b in row.tolist()]
                 for row in frame] for frame in rgb]
        assert got.tolist() == want
        assert got[0, 0, :3].tolist() == [29, 17, 32]
        alone = [[[media._rgb_luma(px[None, None])[0, 0] for px in row] for row in frame]
                 for frame in rgb]
        assert got.tolist() == np.array(alone).tolist()

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

    @pytest.mark.parametrize("meta", ['{"fps": "x"}', "[1]", "[" * 100_000 + "]" * 100_000],
                             ids=["string-fps", "list", "nested-too-deep"])
    def test_bad_meta_json(self, tmp_path, meta):
        arr = np.zeros((32, 32), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", arr)
        write_pgm(tmp_path / "b.pgm", arr)
        (tmp_path / "meta.json").write_text(meta)
        with pytest.raises(ParseError, match="meta.json"):
            media.load_frame_dir(tmp_path)

    # any header must end in a library error or a sequence, never in another
    # exception; the small integer tokens keep every allocation small, and a
    # few overlong ones check the 9-digit bound
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([b"P5", b"P6"]) | st.binary(max_size=3),
        st.lists(st.integers(-40, 40).map(b"%d".__mod__) | st.binary(max_size=5)
                 | st.integers(1, 5000).map(lambda n: b"7" * n),
                 min_size=2, max_size=2),
        st.just(b"255") | st.binary(max_size=5),
        st.sampled_from([b" ", b"\n", b"\t"]),
        st.integers(0, 40 * 40 * 3),
    )
    def test_header_fuzz_raises_only_library_errors(self, magic, size, maxval, sep, payload):
        data = sep.join([magic, *size, maxval]) + b"\n" + bytes(payload)
        with tempfile.TemporaryDirectory() as root:
            for name in ("a.pgm", "b.pgm"):
                Path(root, name).write_bytes(data)
            with contextlib.suppress(StabilityKitError):
                media.load_frame_dir(root)

    def test_header_comments(self, tmp_path):
        arr = np.full((32, 32), 7, dtype=np.uint8)
        data = b"P5\n# a comment\n32 32\n255\n" + arr.tobytes()
        (tmp_path / "a.pgm").write_bytes(data)
        (tmp_path / "b.pgm").write_bytes(data)
        assert np.all(media.load_frame_dir(tmp_path).frames == 7)


class TestSampleClip:
    def _seq(self, count):
        frames = np.zeros((count, 16, 16), dtype=np.uint8)
        frames[:, 0, 0] = np.arange(count) % 256
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
        frame = np.full((4, 4), 255, dtype=np.uint8)
        assert np.all(media.to_luma(frame) == 255.0)

    def test_pure_red(self):
        # the PPM rule: floor(0.299 * 255 + 0.5)
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[..., 0] = 255
        assert np.all(media._rgb_luma(frame) == 76)

    def test_black(self):
        assert np.all(media.to_luma(np.zeros((3, 3), dtype=np.uint8)) == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_range(self, seed):
        rgb = np.random.default_rng(seed).integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        luma = media.to_luma(media._rgb_luma(rgb))
        assert luma.min() >= 0.0 and luma.max() <= 255.0

    def test_no_float_copy_matches_astype_form(self, rng):
        frames = rng.integers(0, 256, size=(4, 19, 23), dtype=np.uint8)
        got = media.to_luma(frames)
        assert got.dtype == np.float64
        assert got.tobytes() == frames.astype(np.float64).tobytes()
        assert media.to_luma(got) is got  # float64 planes are not copied again


class TestResize:
    def test_identity_is_bitwise(self, rng):
        frames = rng.integers(0, 256, size=(2, 24, 17), dtype=np.uint8)
        assert np.array_equal(media.resize_float(frames, 17, 24), frames)

    def test_constant_preserved(self):
        frames = np.full((2, 10, 14), 77, dtype=np.uint8)
        for w, h in ((5, 5), (28, 20), (224, 224)):
            assert np.all(media.resize_float(frames, w, h) == 77.0)

    def test_two_pixel_gradient(self):
        frames = np.array([[[0, 255]]], dtype=np.uint8)
        row = media.resize_float(frames, 4, 1)[0, 0]
        # half-pixel centers sample at -0.25, 0.25, 0.75, 1.25 (clamped)
        assert list(row) == [0.0, 63.75, 191.25, 255.0]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.integers(8, 40))
    def test_constant_preserved_property(self, seed, w, h):
        value = seed % 256
        frames = np.full((2, 11, 13), value, dtype=np.uint8)
        assert np.all(media.resize_float(frames, w, h) == value)

    @pytest.mark.parametrize("size", [(17, 24), (5, 3), (40, 60), (224, 224), (1, 1)])
    def test_stack_matches_old_resize(self, rng, size):
        """One channel at a time, rounded as the old RGB resize rounded."""
        frames = rng.integers(0, 256, size=(3, 24, 17, 3), dtype=np.uint8)
        got = np.stack([media.resize_float(frames[..., c], *size) for c in range(3)], axis=-1)
        got = np.clip(np.floor(got + 0.5), 0, 255).astype(np.uint8)
        assert np.array_equal(got, old_resize_stack(frames, *size))

    def test_bad_size_is_config_error(self):
        with pytest.raises(ConfigError):
            media.resize_float(np.zeros((1, 4, 4)), 0, 4)
