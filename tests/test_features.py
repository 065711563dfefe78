import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shaky_video
from stabilitykit import features as feat
from stabilitykit.errors import ConfigError, InsufficientFrames, ParseError, StabilityKitError
from stabilitykit.media import Clip, resize_float, sample_clip, to_luma
from stabilitykit.motion import FlowField, grid_flow_sequence
from stabilitykit.synth import iter_dataset


def const_flow(u, v, size=8):
    return FlowField(size, size, np.full((size, size), float(u)), np.full((size, size), float(v)))


def old_field_stats(field, prev):
    """The flow branch's per-field stats before it took them over a stack:
    8 stats per field; temporal deltas are zero for the first field."""
    u, v = field.u, field.v
    mag = np.hypot(u, v)
    if prev is None:
        dmu = 0.0
        dmv = 0.0
    else:
        dmu = float(np.mean(np.abs(u - prev.u)))
        dmv = float(np.mean(np.abs(v - prev.v)))
    return np.array([float(np.mean(u)), float(np.mean(v)), float(np.std(u)), float(np.std(v)),
                     float(np.mean(mag)), float(np.std(mag)), dmu, dmv])


def old_flow_features(flows):
    stats = np.stack([old_field_stats(f, flows[i - 1] if i else None) for i, f in enumerate(flows)])
    return np.concatenate([stats.mean(axis=0), stats.std(axis=0)])


def gray_frames(values, width=32, height=32):
    return np.stack([np.full((height, width), v, dtype=np.uint8) for v in values])


def old_resize_lumas(lumas, size):
    """The semantic branch's own float resize before it shared media's core."""
    src_h, src_w = lumas.shape[1:]
    xs = np.clip((np.arange(size) + 0.5) * (src_w / size) - 0.5, 0.0, src_w - 1.0)
    ys = np.clip((np.arange(size) + 0.5) * (src_h / size) - 0.5, 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = (xs - x0)[None, None, :]
    fy = (ys - y0)[None, :, None]
    top = lumas[:, y0[:, None], x0[None, :]] * (1 - fx) + lumas[:, y0[:, None], x1[None, :]] * fx
    bot = lumas[:, y1[:, None], x0[None, :]] * (1 - fx) + lumas[:, y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


def old_semantic_runs(lumas):
    """The semantic branch before it went per frame: stats vectorized over
    runs of 8 frames, each run copied in the stack's own (time-fastest) axis
    order, so each frame's reductions summed across the stack."""
    return np.concatenate([old_semantic_run(lumas[i : i + 8].copy(order="K"))
                           for i in range(0, len(lumas), 8)])


def old_semantic_run(lumas):
    t, h, w = lumas.shape
    gy, gx = np.gradient(lumas, axis=(1, 2))
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx)
    bins = np.clip(((ang + np.pi) * (8 / (2 * np.pi))).astype(int), 0, 7)
    flat = (np.arange(t)[:, None, None] * 8 + bins).ravel()
    hist = np.bincount(flat, weights=mag.ravel(), minlength=t * 8).reshape(t, 8)
    totals = hist.sum(axis=1)
    p = hist / np.where(totals > 1e-12, totals, 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
    ent[totals <= 1e-12] = 0.0
    h2, w2 = h // 2, w // 2
    cols = np.stack(
        [
            lumas.mean(axis=(1, 2)),
            lumas.std(axis=(1, 2)),
            mag.mean(axis=(1, 2)),
            ent,
            lumas[:, :h2, :w2].mean(axis=(1, 2)),
            lumas[:, :h2, w2:].mean(axis=(1, 2)),
            lumas[:, h2:, :w2].mean(axis=(1, 2)),
            lumas[:, h2:, w2:].mean(axis=(1, 2)),
        ],
        axis=1,
    )
    return cols.ravel()


def semantic_stack(lumas):
    return np.concatenate([feat._semantic_frame(luma) for luma in lumas])


def blur_stats(luma):
    """The blur stats of one plane, its gradient mean computed as the blur
    branch did before it took the semantic branch's value."""
    gy, gx = np.gradient(luma)
    return feat._blur_frame(luma, np.hypot(gx, gy).mean())


def old_cache_bytes(matrix, spec, **newer):
    """The feature-cache writer before the shared f32 container, with the old
    hand-written ``FeatureDims.as_dict``; its header had no tau, grid or seed,
    which ``newer`` adds."""
    fields = {"c_o": 16, "c_s": 8, "c_b": 4, "n": spec.n, "n_b": spec.n // spec.tau_b,
              "tau_b": spec.tau_b}
    header = dict(fields, dim=spec.dim, count=int(matrix.shape[0]), **newer)
    return (json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
            + np.asarray(matrix, dtype=np.float64).astype("<f4").tobytes())


class TestFlowFeatures:
    def test_zero_flows(self):
        out = feat.flow_features([const_flow(0, 0)] * 4)
        assert out.shape == (16,)
        assert np.all(out == 0.0)

    def test_constant_flow(self):
        out = feat.flow_features([const_flow(3, 0)] * 4)
        assert out[0] == 3.0  # temporal mean of mean-u
        assert out[4] == 3.0  # mean magnitude
        assert np.all(out[8:] == 0.0)  # no temporal variation
        assert out[6] == 0.0 and out[7] == 0.0  # temporal deltas stay zero

    def test_alternating_flow(self):
        flows = [const_flow(2, 0), const_flow(-2, 0), const_flow(2, 0), const_flow(-2, 0)]
        stats = np.stack(
            [old_field_stats(f, flows[i - 1] if i else None) for i, f in enumerate(flows)]
        )
        assert list(stats[:, 6]) == [0.0, 4.0, 4.0, 4.0]  # |delta u| per field
        out = feat.flow_features(flows)
        assert out[0] == 0.0  # mean of mean-u over fields
        assert out[8] == 2.0  # population std of mean-u
        assert out[6] == pytest.approx(3.0)  # temporal mean of the |delta u| stat

    def test_needs_two_fields(self):
        with pytest.raises(InsufficientFrames):
            feat.flow_features([const_flow(0, 0)])

    def test_equals_the_per_field_stats(self):
        # the stack reductions against the per-field loop they replaced, on
        # fields that are strided views of (cells, 2) displacements as
        # grid_flow_sequence makes them
        rng = np.random.default_rng(17)
        for case in range(300):
            grid, count = int(rng.integers(4, 33)), int(rng.integers(2, 40))
            scale = 10.0 ** rng.uniform(-3, 2)
            disps = rng.normal(size=(count, grid * grid, 2)) * scale
            flows = [FlowField(grid, grid, d[:, 0].reshape(grid, grid), d[:, 1].reshape(grid, grid))
                     for d in disps]
            if case % 5 == 0:
                flows[0] = FlowField(grid, grid, np.zeros((grid, grid)), np.zeros((grid, grid)))
            assert np.array_equal(feat.flow_features(flows), old_flow_features(flows)), case


class TestSemanticFeatures:
    def test_constant_gray_clip(self):
        out = semantic_stack(to_luma(gray_frames([80] * 4)))
        assert out.shape == (32,)
        for k in range(4):
            block = out[k * 8 : (k + 1) * 8]
            assert block[0] == pytest.approx(80.0, abs=1e-9)
            assert np.all(block[1:4] == 0.0)
            assert np.allclose(block[4:], 80.0, atol=1e-9)

    def test_per_frame_luma_leads_each_block(self):
        out = semantic_stack(to_luma(gray_frames([k * 8 for k in range(6)])))
        for k in range(6):
            assert out[k * 8] == pytest.approx(k * 8.0, abs=1e-9)

    def test_vertical_edge_blocks(self):
        frame = np.zeros((32, 32), dtype=np.uint8)
        frame[:, 16:] = 255
        tl, tr, bl, br = feat._semantic_frame(to_luma(frame))[4:8]
        assert tl == pytest.approx(0.0, abs=1.0)
        assert tr == pytest.approx(255.0, abs=1.0)
        assert bl == pytest.approx(0.0, abs=1.0)
        assert br == pytest.approx(255.0, abs=1.0)

    def test_deterministic(self, rng):
        lumas = to_luma(rng.integers(0, 256, (4, 24, 24), dtype=np.uint8))
        assert np.array_equal(semantic_stack(lumas), semantic_stack(lumas))

    # Each frame's sums now run pairwise over its own contiguous plane, not
    # across a stack whose fastest axis is time, so values move in the last
    # bits; 1e-12 relative is the stated bound (seen: 1.4e-13 on bench clips).
    @pytest.mark.parametrize("shape", [(16, 96, 128), (9, 360, 640)],
                             ids=["upsampled", "downsampled"])
    def test_per_frame_matches_run_oracle(self, rng, shape):
        lumas = to_luma(rng.integers(0, 256, shape, dtype=np.uint8))
        lumas[:, : shape[1] // 3] = 40.0  # a flat band: zero-gradient pixels
        old_resized = old_resize_lumas(lumas, feat.SEMANTIC_SIZE)
        want = old_semantic_runs(old_resized)
        new_resized = resize_float(lumas, feat.SEMANTIC_SIZE, feat.SEMANTIC_SIZE)
        got = semantic_stack(new_resized)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for old_frame, new_frame in zip(old_resized, new_resized):  # blur stays exact
            assert blur_stats(new_frame).tobytes() == blur_stats(old_frame).tobytes()

    @pytest.mark.parametrize("shape", [(3, 96, 128), (2, 360, 640), (4, 17, 23), (1, 224, 224)])
    def test_semantic_resize_matches_old_core(self, rng, shape):
        lumas = rng.uniform(0, 255, size=shape)
        got = resize_float(lumas, feat.SEMANTIC_SIZE, feat.SEMANTIC_SIZE)
        want = old_resize_lumas(lumas, feat.SEMANTIC_SIZE)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestBlurFeatures:
    def test_sharp_vs_blurred(self):
        sharp = np.kron(np.indices((8, 8)).sum(axis=0) % 2, np.ones((4, 4))) * 255
        kernel = np.ones((5, 5)) / 25.0
        from scipy import ndimage

        blurred = ndimage.convolve(sharp, kernel, mode="reflect")
        f_sharp = blur_stats(sharp)
        f_blur = blur_stats(blurred)
        assert f_sharp[0] > f_blur[0]  # Laplacian variance
        assert f_sharp[1] > f_blur[1]  # gradient magnitude
        assert f_sharp[2] > f_blur[2]  # high-frequency ratio
        assert f_sharp[3] > f_blur[3]  # Tenengrad

    def test_constant_frame_all_zero(self):
        assert np.all(blur_stats(np.full((32, 32), 128.0)) == 0.0)

    def test_output_shape(self):
        assert feat.blur_indices(32, 8) == [7, 15, 23, 31]
        assert blur_stats(np.zeros((32, 32))).shape == (feat.C_B,)

    def test_tau_b_must_divide(self):
        with pytest.raises(ConfigError):
            feat.blur_indices(10, 3)


class TestClipPipeline:
    def test_fused_layout(self):
        video = next(iter_dataset(10, amplitude_ladder=[2.0], seed=4, length=64,
                                  frame_size=(64, 48)))
        clip = sample_clip(video.seq, n=32, tau=2, seed=1)
        fused = feat.clip_features(clip, feat.ClipSpec())
        assert fused.dtype == np.float64
        assert len(fused) == feat.ClipSpec().dim == 288
        lumas = to_luma(clip.frames)
        resized = resize_float(lumas, feat.SEMANTIC_SIZE, feat.SEMANTIC_SIZE)
        flow = feat.flow_features(grid_flow_sequence(lumas, 8))
        semantic = semantic_stack(resized)
        blur = np.concatenate([blur_stats(resized[i]) for i in feat.blur_indices(32, 8)])
        assert np.array_equal(fused[:16], flow)
        assert np.array_equal(fused[16 : 16 + 32 * 8], semantic)
        # bit-equal: the blur branch's gradient mean is the semantic one
        assert fused[16 + 32 * 8 :].tobytes() == blur.tobytes()

    # Traced peak on this 32-frame 320x240 clip: 59.2 MB when the clip was
    # copied to float64, its pyramid made a full-size row blur and the whole
    # clip was resized at once; 15.0 MB with uint8 frames, 4-frame blur and
    # resize runs and 512-point LK solves; 8.1 MB once the coarser pyramid
    # levels and the LK gathers are float32.  A float64 copy of the clip is
    # 19.7 MB.  The bound is the peak plus 2 MB.
    def test_traced_peak_stays_below_bound(self):
        frames = shaky_video(87, count=32, size=(320, 240))[0].frames
        clip = Clip(frames=frames, source_indices=list(range(32)), n=32, tau=1)
        tracemalloc.start()
        try:
            feat.clip_features(clip, feat.ClipSpec(tau=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.5e6

    def test_uint8_frames_equal_their_float_copy(self):
        video = next(iter_dataset(10, amplitude_ladder=[2.0], seed=5, length=40,
                                  frame_size=(97, 71)))
        clip = sample_clip(video.seq, n=16, tau=2, seed=3)
        as_float = Clip(clip.frames.astype(np.float64), clip.source_indices, clip.n, clip.tau)
        spec = feat.ClipSpec(n=16, tau=2, tau_b=4)
        assert feat.clip_features(clip, spec).tobytes() == feat.clip_features(as_float, spec).tobytes()

    def test_clip_features_shapes_and_determinism(self):
        videos = list(iter_dataset(10, amplitude_ladder=[2.0], seed=4, length=18,
                                   frame_size=(64, 48)))
        clip = sample_clip(videos[0].seq, n=8, tau=2, seed=1)
        spec = feat.ClipSpec(n=8, tau=2, grid=6, tau_b=4)
        a = feat.clip_features(clip, spec)
        b = feat.clip_features(clip, spec)
        assert a.shape == (spec.dim,) == (16 + 8 * 8 + 2 * 4,)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_constant_clip_is_finite(self):
        frames = gray_frames([90] * 8, width=64, height=48)
        clip = Clip(frames=frames, source_indices=list(range(8)), n=8, tau=1)
        fused = feat.clip_features(clip, feat.ClipSpec(n=8, tau=1, grid=4, tau_b=4))
        assert np.all(np.isfinite(fused))
        assert np.all(fused[:16] == 0.0)  # untrackable pairs count as no motion

    def test_noise_clip_is_finite(self, rng):
        frames = rng.integers(0, 256, (8, 48, 48), dtype=np.uint8)
        clip = Clip(frames=frames, source_indices=list(range(8)), n=8, tau=1)
        fused = feat.clip_features(clip, feat.ClipSpec(n=8, tau=1, grid=4, tau_b=4))
        assert np.all(np.isfinite(fused))

    @pytest.mark.parametrize("spec", [feat.ClipSpec(n=16, tau=1), feat.ClipSpec(n=8, tau=2, tau_b=4)])
    def test_clip_must_match_spec(self, spec):
        frames = gray_frames([90] * 8, width=64, height=48)
        clip = Clip(frames=frames, source_indices=list(range(8)), n=8, tau=1)
        with pytest.raises(ConfigError, match="clip has n=8, tau=1"):
            feat.clip_features(clip, spec)


class TestClipSpec:
    def test_defaults(self):
        spec = feat.ClipSpec()
        assert (spec.n, spec.tau, spec.grid, spec.tau_b) == (32, 2, 8, 8)
        assert spec.n_b == 4 and spec.dim == 288
        assert feat.ClipSpec(n=16, tau_b=4).dim == 16 + 16 * 8 + 4 * 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 1}, "need n >= 2 and tau >= 1, got n=1, tau=2"),
        ({"tau": 0}, "need n >= 2 and tau >= 1, got n=32, tau=0"),
        ({"grid": 3}, "grid must be in [4, 32], got 3"),
        ({"grid": 33}, "grid must be in [4, 32], got 33"),
        ({"tau_b": 3}, "tau_b=3 must divide the clip length n=32"),
        ({"tau_b": 0}, "tau_b=0 must divide the clip length n=32"),
        # checked in this order: the span, then the grid, then tau_b
        ({"n": 1, "grid": 3, "tau_b": 3}, "need n >= 2"),
        ({"grid": 3, "tau_b": 3}, "grid must be"),
        ({"n": 10, "tau_b": 4}, "tau_b=4 must divide the clip length n=10"),
    ])
    def test_bad_value_raises_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            feat.ClipSpec(**kwargs)
        assert str(info.value).startswith(message)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            feat.ClipSpec().grid = 3

    def test_huge_n_is_checked_without_listing_blur_frames(self, monkeypatch):
        # a checkpoint header may name any n: listing its n // tau_b blur
        # frames would exhaust memory before the dim check could reject it
        monkeypatch.setattr(feat, "blur_indices", None)
        spec = feat.ClipSpec(n=10**12, tau_b=1)
        assert spec.dim == 16 + 12 * 10**12


SPEC8 = feat.ClipSpec(n=8, tau_b=4)  # 16 + 8*8 + 2*4 = 88 values
SPEC2 = feat.ClipSpec(n=2, tau=1, grid=4, tau_b=2)  # 16 + 2*8 + 1*4 = 36 values
SPEC2_HEADER = {"c_o": 16, "c_s": 8, "c_b": 4, "n": 2, "n_b": 1, "tau_b": 2, "tau": 1, "grid": 4, "seed": 0}
OPTIONAL = ("tau", "grid", "seed")  # absent from older caches


class TestCache:
    def test_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(5, SPEC8.dim))
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, matrix, SPEC8, 3)
        back = feat.load_feature_cache(path, SPEC8, 3, 5)
        assert back.shape == matrix.shape
        assert np.array_equal(back, matrix.astype("<f4").astype(np.float64))

    def test_bytes_match_old_writer(self, tmp_path, rng):
        # the same payload; the header gains tau, grid, seed and, when the
        # writer names the videos, the first 48 bits of the SHA-256 of their
        # paths, one a line
        spec = feat.ClipSpec(n=16, tau=3, grid=5, tau_b=8)
        matrix = rng.normal(size=(7, spec.dim)) * 1e3
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, matrix, spec, 9)
        assert path.read_bytes() == old_cache_bytes(matrix, spec, tau=3, grid=5, seed=9)
        feat.save_feature_cache(path, matrix, spec, 9, [f"/data/v{i}.y4m" for i in range(7)])
        assert path.read_bytes() == old_cache_bytes(matrix, spec, tau=3, grid=5, seed=9,
                                                    videos=154505031893134)

    def test_other_videos_raise_config_error(self, tmp_path, rng):
        videos = [f"/data/v{i}.y4m" for i in range(5)]
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, rng.normal(size=(5, SPEC8.dim)), SPEC8, 3, videos)
        assert feat.load_feature_cache(path, SPEC8, 3, 5, videos).shape == (5, SPEC8.dim)
        for other in (videos[::-1], [*videos[:4], "/data/v5.y4m"], None):
            with pytest.raises(ConfigError, match="does not match the manifest/config: videos="):
                feat.load_feature_cache(path, SPEC8, 3, 5, other)

    def test_old_header_loads(self, tmp_path, rng):
        # a cache without tau, grid, seed and videos (an older one, or the
        # bench's warm cache) is checked on the keys it has
        matrix = rng.normal(size=(4, SPEC8.dim))
        path = tmp_path / "features.bin"
        path.write_bytes(old_cache_bytes(matrix, SPEC8))
        for spec in (SPEC8, feat.ClipSpec(n=8, tau=1, grid=5, tau_b=4)):
            back = feat.load_feature_cache(path, spec, 11, 4, ["/data/a.y4m"] * 4)
            assert np.array_equal(back, matrix.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize("spec, seed, count, names", [
        (feat.ClipSpec(n=8, tau=1, tau_b=4), 3, 5, "tau=2 (want 1)"),
        (feat.ClipSpec(n=8, grid=6, tau_b=4), 3, 5, "grid=8 (want 6)"),
        (SPEC8, 4, 5, "seed=3 (want 4)"),
        (SPEC8, 3, 6, "count=5 (want 6)"),
        (feat.ClipSpec(n=8, tau_b=2), 3, 5, "n_b=2 (want 4), tau_b=4 (want 2)"),
        (feat.ClipSpec(n=16, tau_b=4), 3, 5, "n=8 (want 16), n_b=2 (want 4)"),
    ], ids=["tau", "grid", "seed", "count", "tau_b", "n"])
    def test_other_settings_raise_config_error(self, tmp_path, rng, spec, seed, count, names):
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, rng.normal(size=(5, SPEC8.dim)), SPEC8, 3)
        with pytest.raises(ConfigError, match="does not match the manifest/config") as info:
            feat.load_feature_cache(path, spec, seed, count)
        assert str(info.value).endswith(names)

    def test_zero_width_header_is_not_the_spec(self, tmp_path):
        # zero-width rows would let any count through; the reader takes the
        # row width from the spec, so such a header only fails to match it
        path = tmp_path / "features.bin"
        header = dict.fromkeys(["c_o", "c_s", "c_b", "n", "n_b", "tau_b"], 0)
        path.write_bytes(json.dumps(dict(header, count=2**62)).encode() + b"\n" + bytes(800))
        with pytest.raises(ConfigError, match="c_o=0 \\(want 16\\)"):
            feat.load_feature_cache(path, SPEC8, 0, 2**62)


    @pytest.mark.parametrize(
        "header",
        [b"[1, 2]", b'"c_o"', b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": 1.5}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": "2"}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": -1}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": -8, "n_b": 2, "tau_b": 4, "count": 1}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": true}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": 1, "seed": 0.0}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": 1, "grid": null}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "count": 1}',
         b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000],
        ids=["list", "string", "float-count", "string-count", "negative-count", "negative-dim",
             "bool-count", "float-seed", "null-grid", "no-tau_b", "not-utf8", "nested-too-deep"],
    )
    def test_malformed_header(self, tmp_path, header):
        # the payload holds more than one row, so only the header can fail
        path = tmp_path / "features.bin"
        path.write_bytes(header + b"\n" + bytes(4 * 200))
        with pytest.raises(ParseError):
            feat.load_feature_cache(path, SPEC8, 0, 1)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "features.bin"
        header = b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": 1}'
        path.write_bytes(header + b"\n" + bytes(4 * SPEC8.dim - 1))
        with pytest.raises(ParseError, match="truncated"):
            feat.load_feature_cache(path, SPEC8, 0, 1)

    # any JSON value in any header field, any payload, or bytes with no
    # structure at all, must end in a library error or the rows asked for;
    # the reader is asked for the header's count when it is a valid one
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        # SPEC2's header, with or without the newer keys: reaches the payload
        # unless a newer key holds another value
        st.fixed_dictionaries(
            {**{k: st.just(v) for k, v in SPEC2_HEADER.items() if k not in OPTIONAL},
             "count": st.integers(0, 3) | st.integers(2**62, 2**70)},
            optional={k: st.just(SPEC2_HEADER[k]) | st.integers(0, 4) for k in OPTIONAL},
        ),
        st.fixed_dictionaries({}, optional=dict.fromkeys(
            [*SPEC2_HEADER, "count", "videos"],
            st.integers(-2**70, 2**70) | st.booleans() | st.none() | st.floats()
            | st.text(max_size=3) | st.lists(st.integers(0, 3), max_size=3))),
    ).map(lambda h: (json.dumps(h).encode() + b"\n", h.get("count"))) | st.binary(max_size=40).map(
        lambda b: (b, None)), st.binary(max_size=400))
    def test_fuzz_raises_only_library_errors(self, header_count, payload):
        header, count = header_count
        count = count if type(count) is int and count >= 0 else 1
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "features.bin")
            path.write_bytes(header + payload)
            try:
                matrix = feat.load_feature_cache(path, SPEC2, 0, count)
            except StabilityKitError:
                return
            assert matrix.shape == (count, SPEC2.dim) and np.isfinite(matrix).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, tmp_path, rng, bad):
        matrix = rng.normal(size=(3, SPEC8.dim))
        matrix[1, 7] = bad
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, matrix, SPEC8, 0)
        with pytest.raises(ParseError, match="non-finite"):
            feat.load_feature_cache(path, SPEC8, 0, 3)
