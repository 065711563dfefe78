import numpy as np
import pytest

from stabilitykit import features as feat
from stabilitykit.errors import ConfigError, InsufficientFrames, ParseError
from stabilitykit.media import Clip, sample_clip
from stabilitykit.motion import FlowField
from stabilitykit.synth import gen_dataset, make_base


def const_flow(u, v, size=8):
    return FlowField(size, size, np.full((size, size), float(u)), np.full((size, size), float(v)))


def gray_frames(values, width=32, height=32):
    return np.stack(
        [np.full((height, width, 3), v, dtype=np.uint8) for v in values]
    )


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
            [feat._field_stats(f, flows[i - 1] if i else None) for i, f in enumerate(flows)]
        )
        assert list(stats[:, 6]) == [0.0, 4.0, 4.0, 4.0]  # |delta u| per field
        out = feat.flow_features(flows)
        assert out[0] == 0.0  # mean of mean-u over fields
        assert out[8] == 2.0  # population std of mean-u
        assert out[6] == pytest.approx(3.0)  # temporal mean of the |delta u| stat

    def test_needs_two_fields(self):
        with pytest.raises(InsufficientFrames):
            feat.flow_features([const_flow(0, 0)])


class TestSemanticFeatures:
    def test_constant_gray_clip(self):
        frames = gray_frames([80] * 4)
        out = feat.semantic_features(frames)
        assert out.shape == (32,)
        for k in range(4):
            block = out[k * 8 : (k + 1) * 8]
            assert block[0] == pytest.approx(80.0, abs=1e-9)
            assert np.all(block[1:4] == 0.0)
            assert np.allclose(block[4:], 80.0, atol=1e-9)

    def test_per_frame_luma_leads_each_block(self):
        frames = gray_frames([k * 8 for k in range(6)])
        out = feat.semantic_features(frames)
        for k in range(6):
            assert out[k * 8] == pytest.approx(k * 8.0, abs=1e-9)

    def test_vertical_edge_blocks(self):
        frame = np.zeros((32, 32, 3), dtype=np.uint8)
        frame[:, 16:] = 255
        out = feat.semantic_features(frame[None])
        tl, tr, bl, br = out[4:8]
        assert tl == pytest.approx(0.0, abs=1.0)
        assert tr == pytest.approx(255.0, abs=1.0)
        assert bl == pytest.approx(0.0, abs=1.0)
        assert br == pytest.approx(255.0, abs=1.0)

    def test_deterministic(self, rng):
        frames = rng.integers(0, 256, (4, 24, 24, 3), dtype=np.uint8)
        assert np.array_equal(feat.semantic_features(frames), feat.semantic_features(frames))


class TestBlurFeatures:
    def test_sharp_vs_blurred(self):
        sharp = np.kron(np.indices((8, 8)).sum(axis=0) % 2, np.ones((4, 4))) * 255
        kernel = np.ones((5, 5)) / 25.0
        from scipy import ndimage

        blurred = ndimage.convolve(sharp, kernel, mode="reflect")
        f_sharp = feat._blur_frame(sharp)
        f_blur = feat._blur_frame(blurred)
        assert f_sharp[0] > f_blur[0]  # Laplacian variance
        assert f_sharp[1] > f_blur[1]  # gradient magnitude
        assert f_sharp[2] > f_blur[2]  # high-frequency ratio
        assert f_sharp[3] > f_blur[3]  # Tenengrad

    def test_constant_frame_all_zero(self):
        frames = gray_frames([128] * 8)
        out = feat.blur_features(frames, tau_b=4)
        assert np.all(out == 0.0)

    def test_output_shape(self):
        frames = gray_frames(list(range(32)))
        assert feat.blur_features(frames, tau_b=8).shape == (16,)

    def test_tau_b_must_divide(self):
        frames = gray_frames([0] * 10)
        with pytest.raises(ConfigError):
            feat.blur_features(frames, tau_b=3)


class TestFuse:
    def make_bundle(self, f_o=None, f_s=None, f_b=None):
        dims = feat.FeatureDims(n=32, n_b=4, tau_b=8)
        return feat.FeatureBundle(
            f_o=f_o if f_o is not None else np.zeros(16),
            f_s=f_s if f_s is not None else np.zeros(256),
            f_b=f_b if f_b is not None else np.zeros(16),
            dims=dims,
        )

    def test_default_dimension_is_288(self):
        fused = feat.fuse(self.make_bundle())
        assert fused.dim == 288 == 16 + 32 * 8 + 4 * 4

    def test_zero_bundle(self):
        assert np.all(feat.fuse(self.make_bundle()).f == 0.0)

    def test_ordering_preserved_exactly(self):
        f_o = np.arange(1.0, 17.0)
        fused = feat.fuse(self.make_bundle(f_o=f_o))
        assert np.array_equal(fused.f[:16], f_o)
        assert np.all(fused.f[16:] == 0.0)

    def test_every_coordinate_preserved(self, rng):
        f_o = rng.normal(size=16)
        f_s = rng.normal(size=256)
        f_b = rng.normal(size=16)
        fused = feat.fuse(self.make_bundle(f_o, f_s, f_b))
        assert np.array_equal(fused.f, np.concatenate([f_o, f_s, f_b]))


class TestClipPipeline:
    def test_clip_features_shapes_and_determinism(self):
        videos = gen_dataset(10, amplitude_ladder=[2.0], seed=4, length=18,
                             frame_size=(64, 48))
        clip = sample_clip(videos[0].seq, n=8, tau=2, seed=1)
        a = feat.fuse(feat.clip_features(clip, grid=6, tau_b=4)).f
        b = feat.fuse(feat.clip_features(clip, grid=6, tau_b=4)).f
        assert a.shape == (16 + 8 * 8 + 2 * 4,)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_constant_clip_is_finite(self):
        frames = gray_frames([90] * 8, width=64, height=48)
        clip = Clip(frames=frames, source_indices=list(range(8)), n=8, tau=1)
        fused = feat.fuse(feat.clip_features(clip, grid=4, tau_b=4))
        assert np.all(np.isfinite(fused.f))
        assert np.all(fused.f[:16] == 0.0)  # untrackable pairs count as no motion

    def test_noise_clip_is_finite(self, rng):
        frames = rng.integers(0, 256, (8, 48, 48, 3), dtype=np.uint8)
        clip = Clip(frames=frames, source_indices=list(range(8)), n=8, tau=1)
        fused = feat.fuse(feat.clip_features(clip, grid=4, tau_b=4))
        assert np.all(np.isfinite(fused.f))


class TestCache:
    def test_roundtrip(self, tmp_path, rng):
        dims = feat.FeatureDims(n=8, n_b=2, tau_b=4)
        matrix = rng.normal(size=(5, dims.dim))
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, matrix, dims)
        back, dims2 = feat.load_feature_cache(path)
        assert dims2 == dims
        assert back.shape == matrix.shape
        assert np.array_equal(back, matrix.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize(
        "header",
        [b"[1, 2]", b'"c_o"', b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": 1.5}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": "2"}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": -1}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": -8, "n_b": 2, "tau_b": 4, "count": 1}',
         b'{"c_o": 16, "c_s": 8, "c_b": 4, "n": 8, "n_b": 2, "tau_b": 4, "count": true}',
         b"\xff\xfe{"],
        ids=["list", "string", "float-count", "string-count", "negative-count", "negative-dim",
             "bool-count", "not-utf8"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "features.bin"
        path.write_bytes(header + b"\n" + bytes(4 * 200))
        with pytest.raises(ParseError):
            feat.load_feature_cache(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, tmp_path, rng, bad):
        dims = feat.FeatureDims(n=8, n_b=2, tau_b=4)
        matrix = rng.normal(size=(3, dims.dim))
        matrix[1, 7] = bad
        path = tmp_path / "features.bin"
        feat.save_feature_cache(path, matrix, dims)
        with pytest.raises(ParseError, match="non-finite"):
            feat.load_feature_cache(path)
