import contextlib
import json
import subprocess
import sys
import tempfile
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


def old_yuv_to_rgb(yuv):
    """The per-pixel float decoder before the chroma table: a BLAS inverse,
    its rounding, and a +-1 snap search where that does not re-encode.
    Returns the RGB and the float inverse."""
    flat = yuv.reshape(-1, 3)
    rgb_f = (flat.astype(np.float64) - media._OFF) @ media._INV.T
    rgb = np.clip(np.floor(rgb_f + 0.5), 0, 255).astype(np.uint8)
    bad = np.any(media.rgb_to_yuv(rgb) != flat, axis=1)
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        cand = rgb[idx, None, :].astype(np.int16) + media._SNAP_OFFSETS[None, :, :]
        cand = np.clip(cand, 0, 255).astype(np.uint8)
        feasible = np.all(media.rgb_to_yuv(cand) == flat[idx, None, :], axis=2)
        dist = np.sum((cand.astype(np.float64) - rgb_f[idx, None, :]) ** 2, axis=2)
        dist[~feasible] = np.inf
        pick = np.argmin(dist, axis=1)
        has = feasible[np.arange(len(idx)), pick]
        rgb[idx[has]] = cand[np.arange(len(idx))[has], pick[has]]
    return rgb.reshape(yuv.shape), rgb_f.reshape(yuv.shape)


def reencodes(rgb, yuv):
    return np.all(media.rgb_to_yuv(rgb) == yuv, axis=-1)


class TestDecoder:
    @pytest.mark.parametrize("luma", [0, 71, 128, 255])
    def test_every_chroma_pair_matches_old_decoder(self, luma):
        u, v = np.divmod(np.arange(65536), 256)
        yuv = np.stack([np.full(65536, luma), u, v], axis=1).astype(np.uint8)
        got = media.yuv_to_rgb(yuv)
        want, rgb_f = old_yuv_to_rgb(yuv)
        tie = np.any(np.abs(rgb_f - np.floor(rgb_f) - 0.5) < 1e-9, axis=1)
        assert tie.any() and not tie.all()
        same = np.all(got == want, axis=1)
        assert same[~tie].all()
        # at a .5 tie either rounding may be taken, and the result still
        # re-encodes wherever the old decoder's did
        assert reencodes(got, yuv)[tie & reencodes(want, yuv)].all()

    def test_table_covers_only_exact_in_range_pixels(self):
        d, lo, hi = media._chroma_table()
        covered = lo <= hi
        assert 0.1 < covered.mean() < 1.0
        u, v = np.divmod(np.nonzero(covered)[0], 256)
        for y in (lo[covered], hi[covered]):
            yuv = np.stack([y, u, v], axis=1).astype(np.uint8)
            rgb = y[:, None] + d[covered]  # uint8: offsets are stored modulo 256
            assert reencodes(rgb, yuv).all()
            assert np.array_equal(media.yuv_to_rgb(yuv), rgb)
            want, _ = old_yuv_to_rgb(yuv)
            assert np.array_equal(rgb, want)

    def test_tie_pixel_decodes_alike_alone_and_in_a_batch(self):
        # G's inverse is exactly Y + 18.5 here; the old decoder's BLAS product
        # gave G = 90 alone and G = 89 inside a 65,536-row batch, both exact
        pixel = np.array([71, 178, 78], dtype=np.uint8)
        alone = media.yuv_to_rgb(pixel[None])[0]
        batch = np.tile(pixel, (65536, 1))
        batch[1::2] = np.random.default_rng(0).integers(0, 256, (32768, 3), dtype=np.uint8)
        assert (media.yuv_to_rgb(batch)[::2] == alone).all()
        assert alone[1] in (89, 90) and reencodes(alone, pixel)

    def test_every_pixel_decodes_alike_alone_and_in_a_batch(self):
        yuv = np.random.default_rng(5).integers(0, 256, (300, 3), dtype=np.uint8)
        yuv[:100, 1:] = (178, 78)
        yuv[100:150, 1] = 3  # B's inverse is Y - 221.5
        alone = np.concatenate([media.yuv_to_rgb(p[None]) for p in yuv])
        assert np.array_equal(alone, media.yuv_to_rgb(yuv))

    @pytest.mark.parametrize("colorspace", [b"C444", b"C420jpeg"])
    def test_load_y4m_matches_old_decoder(self, tmp_path, colorspace):
        rng = np.random.default_rng(11)
        w, h = 48, 32
        sub = 2 if colorspace == b"C420jpeg" else 1
        planes = []
        for _ in range(3):
            # half the stream in gamut (encoded RGB), half random YUV bytes
            yuv = media.rgb_to_yuv(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            yuv[h // 2 :] = rng.integers(0, 256, (h // 2, w, 3), dtype=np.uint8)
            planes.append((yuv[..., 0].copy(), yuv[::sub, ::sub, 1].copy(), yuv[::sub, ::sub, 2].copy()))
        path = tmp_path / "s.y4m"
        path.write_bytes(y4m_bytes(planes, w, h, colorspace=colorspace))
        got = media.load_y4m(path).frames
        for frame, (y, u, v) in zip(got, planes):
            full = np.stack([y, u.repeat(sub, 0).repeat(sub, 1), v.repeat(sub, 0).repeat(sub, 1)], -1)
            assert np.array_equal(frame, old_yuv_to_rgb(full)[0])

    def test_cli_import_leaves_table_unbuilt(self):
        src = str(Path(media.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import stabilitykit.cli; "
            "from stabilitykit import media; print(media._chroma_table.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0"


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
    # exception; the small integer tokens keep every allocation small
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([b"P5", b"P6"]) | st.binary(max_size=3),
        st.lists(st.integers(-40, 40).map(b"%d".__mod__) | st.binary(max_size=5),
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


    def test_no_float_copy_matches_astype_form(self, rng):
        # uint8 times a Python float is float64 under NEP 50 and under the
        # value-based rules of numpy 1.x alike
        frames = rng.integers(0, 256, size=(4, 19, 23, 3), dtype=np.uint8)
        f = frames.astype(np.float64)
        want = f[..., 0] * 0.299 + f[..., 1] * 0.587 + f[..., 2] * 0.114
        got = media.to_luma(frames)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


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
