import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_sequence
from stabilitykit.classic import freq_energy_ratio, itf, psnr, stability_score
from stabilitykit.errors import DimensionMismatch, InsufficientFrames
from stabilitykit.media import FrameSequence, to_luma
from stabilitykit.motion import Trajectory
from stabilitykit.synth import (
    ShakeComponent,
    ShakeSpec,
    gen_trajectory,
    make_base,
    render_shaky,
    required_base_size,
)


def sinusoid(length, bin_k, amplitude=1.0, phase=0.0):
    t = np.arange(length)
    return amplitude * np.sin(2 * np.pi * bin_k * t / length + phase)


class TestPsnr:
    def test_identical_planes_capped(self):
        plane = np.full((8, 8), 33.0)
        assert psnr(plane, plane) == 100.0

    def test_constant_offset_one(self):
        a = np.full((16, 16), 100.0)
        # MSE = 1 -> 10*log10(255^2)
        assert psnr(a, a + 1.0) == pytest.approx(10 * math.log10(65025), abs=1e-9)
        assert psnr(a, a + 1.0) == pytest.approx(48.1308, abs=1e-4)

    def test_full_range_difference(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 255.0)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, (6, 6))
        b = rng.uniform(0, 255, (6, 6))
        assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)


class TestItf:
    def test_static_video(self):
        assert itf(constant_sequence(count=10)).score_db == 100.0

    def test_mixed_pairs_average(self):
        frames = np.full((3, 16, 16), 100, dtype=np.uint8)
        frames[2] += 1  # second pair differs by exactly 1 gray level in luma
        result = itf(FrameSequence(frames=frames))
        assert result.per_pair_db[0] == 100.0
        assert result.per_pair_db[1] == pytest.approx(48.1308, abs=1e-4)
        assert result.score_db == pytest.approx((100.0 + 48.1308) / 2, abs=1e-4)

    def test_pairs_equal_whole_stack_luma(self, rng):
        frames = rng.integers(0, 256, (5, 24, 32), dtype=np.uint8)
        lumas = to_luma(frames)
        want = [psnr(lumas[k], lumas[k + 1]) for k in range(4)]
        assert itf(FrameSequence(frames=frames)).per_pair_db == want

    def test_single_frame(self):
        frames = np.zeros((1, 16, 16), dtype=np.uint8)
        with pytest.raises(InsufficientFrames):
            itf(FrameSequence(frames=frames))

    def test_temporal_reversal_invariance(self, rng):
        frames = rng.integers(0, 256, (6, 16, 16), dtype=np.uint8)
        fwd = itf(FrameSequence(frames=frames)).score_db
        rev = itf(FrameSequence(frames=frames[::-1].copy())).score_db
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_jitter_ladder_strictly_decreasing(self):
        # one base, x jitter at one frequency, rising amplitude
        trajs = [
            gen_trajectory(
                ShakeSpec([ShakeComponent(a, 12.0, 0.0, "x")] if a else [], length=32), seed=5
            )
            for a in (0.0, 2.0, 6.0)
        ]
        bw, bh = np.max([required_base_size(t, (128, 96)) for t in trajs], axis=0)
        base = make_base(int(bw), int(bh), seed=5)
        scores = [itf(render_shaky(base, t, (128, 96))).score_db for t in trajs]
        assert scores[0] > scores[1] > scores[2]


class TestFreqEnergyRatio:
    def test_zero_path(self):
        assert freq_energy_ratio(np.zeros(32)) == 1.0

    def test_sinusoid_inside_band(self):
        path = sinusoid(64, bin_k=3)
        assert freq_energy_ratio(path) == pytest.approx(1.0, abs=1e-12)

    def test_sinusoid_outside_band(self):
        path = sinusoid(64, bin_k=20)
        assert freq_energy_ratio(path) == pytest.approx(0.0, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientFrames):
            freq_energy_ratio(np.zeros(15))

    def test_monotone_as_frequency_leaves_band(self):
        ratios = [freq_energy_ratio(sinusoid(64, k) + 0.01 * sinusoid(64, 2)) for k in (3, 8, 14, 24)]
        assert all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_always_in_unit_interval(self, seed):
        path = np.random.default_rng(seed).normal(size=24)
        assert 0.0 <= freq_energy_ratio(path) <= 1.0


class TestStabilityScore:
    def test_zero_trajectory(self):
        traj = Trajectory(x=np.zeros(32), y=np.zeros(32), theta=np.zeros(32))
        result = stability_score(traj)
        assert result.score == 1.0
        assert result.component_scores == {"x": 1.0, "y": 1.0, "theta": 1.0}

    def test_slow_pan_is_stable(self):
        traj = Trajectory(x=sinusoid(64, 2, 5.0), y=np.zeros(64), theta=np.zeros(64))
        assert stability_score(traj).score == pytest.approx(1.0, abs=1e-12)

    def test_high_frequency_jitter_unstable(self):
        traj = Trajectory(x=sinusoid(64, 25, 3.0), y=np.zeros(64), theta=np.zeros(64))
        assert stability_score(traj).score == pytest.approx(0.0, abs=1e-9)

    def test_worst_axis_dominates(self):
        traj = Trajectory(x=sinusoid(64, 2), y=sinusoid(64, 25), theta=np.zeros(64))
        result = stability_score(traj)
        assert result.score == result.component_scores["y"]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=32)
        y = rng.normal(size=32)
        th = rng.normal(size=32) * 0.01
        a = stability_score(Trajectory(x=x, y=y, theta=th))
        b = stability_score(Trajectory(x=x * scale, y=y * scale, theta=th * scale))
        assert a.score == pytest.approx(b.score, abs=1e-9)
