import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import ndimage

from conftest import csv_bytes
from stabilitykit import synth
from stabilitykit.errors import MarginError, ParseError, StabilityKitError
from stabilitykit.motion import Trajectory, estimate_motion
from stabilitykit.synth import (
    ShakeComponent,
    ShakeSpec,
    gen_trajectory,
    gt_score_from_trajectory,
    iter_dataset,
    load_manifest,
    make_base,
    render_shaky,
    required_base_size,
    write_dataset,
)


class TestGenTrajectory:
    def test_empty_components(self):
        traj = gen_trajectory(ShakeSpec(length=32), seed=0)
        assert np.all(traj.x == 0) and np.all(traj.y == 0) and np.all(traj.theta == 0)

    def test_peak_amplitude(self):
        # quarter period lands on integer t for f=10, length=80
        spec = ShakeSpec(components=[ShakeComponent(4.0, 10.0, 0.0, "x")], length=80)
        traj = gen_trajectory(spec, seed=1)
        assert np.max(np.abs(traj.x)) == pytest.approx(4.0, abs=1e-9)

    def test_determinism(self):
        spec = ShakeSpec(
            components=[ShakeComponent(2.0, 9.0, 0.3, "y")], noise_sigma=0.5, length=40
        )
        a = gen_trajectory(spec, seed=11)
        b = gen_trajectory(spec, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.theta, b.theta)

    def test_anchored_at_zero(self):
        spec = ShakeSpec(
            components=[ShakeComponent(3.0, 7.0, 1.1, "x")], noise_sigma=1.0, length=32
        )
        traj = gen_trajectory(spec, seed=3)
        assert traj.x[0] == 0.0 and traj.y[0] == 0.0 and traj.theta[0] == 0.0

    def test_theta_noise_is_in_radians(self):
        spec = ShakeSpec(components=[], noise_sigma=0.24, length=64)  # 0.03 x amplitude 8
        traj = gen_trajectory(spec, seed=5)
        # about sqrt(2) * 0.24 * 0.003 = 1e-3 rad; in pixels it was 0.34 rad
        assert np.std(np.diff(traj.theta)) < 0.002
        rng = np.random.default_rng(5)
        x, y = rng.normal(0.0, 0.24, 64), rng.normal(0.0, 0.24, 64)
        assert np.array_equal(traj.x, x - x[0]) and np.array_equal(traj.y, y - y[0])

    def test_invalid_frequency(self):
        spec = ShakeSpec(components=[ShakeComponent(1.0, 40.0, 0.0, "x")], length=32)
        with pytest.raises(ValueError):
            gen_trajectory(spec, seed=0)


def old_upsample(lattice, shape):
    """The base-image upsampler before ``make_base`` took ``media.resize_float``."""
    zy = shape[0] / lattice.shape[0]
    zx = shape[1] / lattice.shape[1]
    ys = (np.arange(shape[0]) + 0.5) / zy - 0.5
    xs = (np.arange(shape[1]) + 0.5) / zx - 0.5
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return ndimage.map_coordinates(lattice, [gy, gx], order=1, mode="nearest")


class TestMakeBase:
    @pytest.mark.parametrize("size", [(128, 96), (200, 160), (97, 61)])
    def test_equals_old_upsampler(self, size, monkeypatch):
        got = [synth.make_base(*size, seed) for seed in range(6)]
        monkeypatch.setattr(synth, "resize_float", lambda stack, w, h: old_upsample(stack[0], (h, w))[None])
        want = [synth.make_base(*size, seed) for seed in range(6)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestRenderShaky:
    def test_zero_trajectory_is_static_center_crop(self):
        base = make_base(96, 72, seed=2)
        traj = Trajectory(x=np.zeros(4), y=np.zeros(4), theta=np.zeros(4))
        seq = render_shaky(base, traj, (64, 48))
        for t in range(1, 4):
            assert np.array_equal(seq.frames[t], seq.frames[0])
        crop = base[12:60, 16:80]  # centered crop for even margins
        assert np.array_equal(seq.frames[0], crop)

    def test_shift_recovered_by_estimator(self):
        base = make_base(160, 130, seed=4)
        traj = Trajectory(
            x=np.array([0.0, 3.0]), y=np.zeros(2), theta=np.zeros(2)
        )
        seq = render_shaky(base, traj, (120, 96))
        mp = estimate_motion(seq.frames[0], seq.frames[1], "similarity")
        assert mp.dx == pytest.approx(3.0, abs=0.25)
        assert mp.dy == pytest.approx(0.0, abs=0.25)

    def test_rotation_recovered_by_estimator(self):
        base = make_base(220, 180, seed=5)
        theta = np.deg2rad(1.5)
        traj = Trajectory(x=np.zeros(2), y=np.zeros(2), theta=np.array([0.0, theta]))
        seq = render_shaky(base, traj, (160, 128))
        mp = estimate_motion(seq.frames[0], seq.frames[1], "similarity")
        assert mp.theta == pytest.approx(theta, abs=0.002)

    def test_margin_error(self):
        base = make_base(70, 54, seed=6)
        traj = Trajectory(
            x=np.array([0.0, 40.0]), y=np.zeros(2), theta=np.zeros(2)
        )
        with pytest.raises(MarginError):
            render_shaky(base, traj, (64, 48))

    def test_required_base_size_is_sufficient(self):
        traj = Trajectory(
            x=np.array([0.0, 5.0, -6.0]),
            y=np.array([0.0, -3.0, 8.0]),
            theta=np.array([0.0, 0.02, -0.03]),
        )
        bw, bh = required_base_size(traj, (64, 48))
        base = make_base(bw, bh, seed=7)
        seq = render_shaky(base, traj, (64, 48))
        assert len(seq) == 3


class TestGtScore:
    def test_zero_trajectory_scores_100(self):
        traj = Trajectory(x=np.zeros(64), y=np.zeros(64), theta=np.zeros(64))
        assert gt_score_from_trajectory(traj) == 100.0

    def test_monotone_in_amplitude(self):
        t = np.arange(64)
        scores = []
        for amp in (0.5, 1.0, 2.0, 4.0):
            x = amp * np.sin(2 * np.pi * 20 * t / 64)
            traj = Trajectory(x=x, y=np.zeros(64), theta=np.zeros(64))
            scores.append(gt_score_from_trajectory(traj))
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_low_frequency_pan_not_penalized(self):
        t = np.arange(64)
        x = 10.0 * np.sin(2 * np.pi * 2 * t / 64)  # below the high-pass cutoff
        traj = Trajectory(x=x, y=np.zeros(64), theta=np.zeros(64))
        assert gt_score_from_trajectory(traj) == pytest.approx(100.0, abs=1e-6)


class TestGenDataset:
    def test_zero_amplitude_scores_100(self):
        videos = list(iter_dataset(10, amplitude_ladder=[0.0], seed=1, length=24,
                                   frame_size=(64, 48)))
        assert all(v.gt_score == pytest.approx(100.0, abs=1e-9) for v in videos)

    def test_label_determinism(self):
        kw = dict(amplitude_ladder=[0.0, 2.0, 6.0], seed=9, length=24, frame_size=(48, 48))
        a = [v.gt_score for v in iter_dataset(12, **kw)]
        b = [v.gt_score for v in iter_dataset(12, **kw)]
        assert a == b

    def test_amplitude_monotone_on_average(self):
        videos = list(iter_dataset(30, amplitude_ladder=[0.5, 8.0], seed=2, length=32,
                                   frame_size=(48, 48)))
        small = np.mean([v.gt_score for v in videos[0::2]])
        large = np.mean([v.gt_score for v in videos[1::2]])
        assert small > large

    def test_count_floor(self):
        with pytest.raises(ValueError):
            list(iter_dataset(5))


class TestWriteDataset:
    def test_files_and_manifest(self, tmp_path):
        videos = list(iter_dataset(10, amplitude_ladder=[0.0, 1.0], seed=3, length=24,
                                   frame_size=(48, 48)))
        manifest = write_dataset(videos, tmp_path / "ds")
        rows = load_manifest(manifest)
        assert len(rows) == 10
        for vid, path, score in rows:
            assert path.is_file()
            meta = json.loads(path.with_suffix(".json").read_text())
            assert meta["video_id"] == vid
            assert meta["gt_score"] == pytest.approx(score, abs=1e-5)
        assert len(list((tmp_path / "ds").glob("*.y4m"))) == 10

    def test_nul_in_video_path_is_a_parse_error(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"video_id,path,gt_score\nv0,a\0b.y4m,0.5\n")
        with pytest.raises(ParseError, match=f"{path}:2: NUL"):
            load_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(csv_bytes)
    def test_manifest_fuzz_raises_only_library_errors(self, data):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "manifest.csv")
            path.write_bytes(data)
            with contextlib.suppress(StabilityKitError):
                assert all(np.isfinite(score) for _, _, score in load_manifest(path))
