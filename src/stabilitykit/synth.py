"""Synthetic shaky videos with known camera paths and stability labels.

A video is rendered by warping a textured base image with a chain of
per-frame similarity poses.  The chain is built by composing per-pair
increments of the target path, so per-pair motion estimates prefix-sum to
the ground-truth trajectory exactly; that is what makes round-trip
verification of the motion stack possible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ConfigError, MarginError, ParseError
from .media import FrameSequence, csv_rows, save_y4m, _round_half_up
from .motion import Trajectory

AXES = ("x", "y", "theta")


@dataclass
class ShakeComponent:
    amplitude: float  # pixels for x/y, radians for theta
    frequency: float  # cycles per trajectory
    phase: float = 0.0
    axis: str = "x"


@dataclass
class ShakeSpec:
    components: list[ShakeComponent] = field(default_factory=list)
    noise_sigma: float = 0.0
    length: int = 64


@dataclass
class LabeledVideo:
    seq: FrameSequence
    gt_trajectory: Trajectory
    gt_score: float
    spec: ShakeSpec | None = None


def gen_trajectory(spec: ShakeSpec, seed: int) -> Trajectory:
    """Sum-of-sinusoids path plus seeded Gaussian noise, anchored so that
    every axis starts at zero."""
    if spec.length < 16:
        raise ConfigError("trajectory length must be at least 16")
    t = np.arange(spec.length, dtype=np.float64)
    paths = {axis: np.zeros(spec.length) for axis in AXES}
    for comp in spec.components:
        if comp.axis not in AXES:
            raise ConfigError(f"unknown axis {comp.axis!r}")
        if comp.amplitude < 0:
            raise ConfigError("amplitude must be non-negative")
        if not 0 <= comp.frequency <= spec.length / 2:
            raise ConfigError("frequency outside [0, length/2]")
        paths[comp.axis] += comp.amplitude * np.sin(
            2.0 * np.pi * comp.frequency * t / spec.length + comp.phase
        )
    rng = np.random.default_rng(seed)
    if spec.noise_sigma > 0:
        for axis in AXES:
            paths[axis] += rng.normal(0.0, spec.noise_sigma, spec.length)
    for axis in AXES:
        paths[axis] -= paths[axis][0]
    return Trajectory(x=paths["x"], y=paths["y"], theta=paths["theta"])


# ---------------------------------------------------------------------------
# Procedural base images
# ---------------------------------------------------------------------------


def _upsample(lattice: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    zy = shape[0] / lattice.shape[0]
    zx = shape[1] / lattice.shape[1]
    ys = (np.arange(shape[0]) + 0.5) / zy - 0.5
    xs = (np.arange(shape[1]) + 0.5) / zx - 0.5
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return ndimage.map_coordinates(lattice, [gy, gx], order=1, mode="nearest")


def make_base(width: int, height: int, seed: int) -> np.ndarray:
    """Textured grayscale base: multi-octave value noise plus a few shapes,
    which guarantees corner features everywhere."""
    rng = np.random.default_rng(seed)
    img = np.zeros((height, width))
    weight = 1.0
    for spacing in (24, 12, 6, 3):
        ny = max(height // spacing, 2) + 1
        nx = max(width // spacing, 2) + 1
        img += weight * _upsample(rng.random((ny, nx)), (height, width))
        weight *= 0.55
    img = (img - img.min()) / max(img.max() - img.min(), 1e-12)

    for _ in range(8):  # rectangles with crisp corners
        rw = int(rng.integers(width // 16, width // 4))
        rh = int(rng.integers(height // 16, height // 4))
        x0 = int(rng.integers(0, width - rw))
        y0 = int(rng.integers(0, height - rh))
        img[y0 : y0 + rh, x0 : x0 + rw] = rng.random()
    yy, xx = np.mgrid[0:height, 0:width]
    for _ in range(4):  # discs
        r = int(rng.integers(min(width, height) // 16, min(width, height) // 6))
        cx = int(rng.integers(r, width - r))
        cy = int(rng.integers(r, height - r))
        img[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = rng.random()

    return np.clip(_round_half_up(15.0 + img * 225.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _pose_chain(traj: Trajectory, out_center: np.ndarray) -> list[np.ndarray]:
    """Inverse maps (3x3, output coords -> frame-0 coords) for each frame."""
    maps = [np.eye(3)]
    for t in range(traj.length - 1):
        dtheta = traj.theta[t + 1] - traj.theta[t]
        dd = np.array([traj.x[t + 1] - traj.x[t], traj.y[t + 1] - traj.y[t]])
        rinv = _rot(-dtheta)
        finv = np.eye(3)
        finv[:2, :2] = rinv
        finv[:2, 2] = out_center - rinv @ (out_center + dd)
        maps.append(maps[-1] @ finv)
    return maps


def required_base_size(
    traj: Trajectory, out_size: tuple[int, int], pad: int = 4
) -> tuple[int, int]:
    """Smallest base (width, height) that keeps every sample in bounds."""
    w, h = out_size
    c = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    corners = np.array([[0.0, 0.0, 1], [w - 1.0, 0.0, 1], [0.0, h - 1.0, 1], [w - 1.0, h - 1.0, 1]]).T
    reach = np.zeros(2)
    for g in _pose_chain(traj, c):
        q = (g @ corners)[:2].T - c
        reach = np.maximum(reach, np.abs(q).max(axis=0))
    need_w = int(2 * (np.ceil(reach[0]) + pad)) + w
    need_h = int(2 * (np.ceil(reach[1]) + pad)) + h
    return need_w, need_h


def render_shaky(
    base: np.ndarray, traj: Trajectory, out_size: tuple[int, int], fps: float = 30.0
) -> FrameSequence:
    """Warp ``base`` along ``traj``; frame t+1 is frame t translated by the
    path increment and rotated about the frame center by the angle increment."""
    w, h = out_size
    if w < 16 or h < 16:
        raise ConfigError("output size must be at least 16x16")
    gray = base.ndim == 2
    bh, bw = base.shape[:2]
    c_out = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    c_base = np.array([(bw - 1) / 2.0, (bh - 1) / 2.0])
    offset = c_base - c_out

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    corners = np.array([[0.0, 0.0, 1], [w - 1.0, 0.0, 1], [0.0, h - 1.0, 1], [w - 1.0, h - 1.0, 1]]).T

    base_f = base.astype(np.float64)
    frames = np.empty((traj.length, h, w, 3), dtype=np.uint8)
    for t, g in enumerate(_pose_chain(traj, c_out)):
        cq = (g @ corners)[:2].T + offset
        if (cq.min() < 0.0) or (cq[:, 0].max() > bw - 1.0) or (cq[:, 1].max() > bh - 1.0):
            raise MarginError(
                f"frame {t} samples outside the base image; enlarge the base "
                f"(need at least {required_base_size(traj, out_size)})"
            )
        qx = g[0, 0] * xs + g[0, 1] * ys + g[0, 2] + offset[0]
        qy = g[1, 0] * xs + g[1, 1] * ys + g[1, 2] + offset[1]
        if gray:
            plane = ndimage.map_coordinates(base_f, [qy, qx], order=1, mode="nearest")
            plane = np.clip(_round_half_up(plane), 0, 255).astype(np.uint8)
            frames[t] = plane[..., None]
        else:
            for ch in range(3):
                plane = ndimage.map_coordinates(base_f[..., ch], [qy, qx], order=1, mode="nearest")
                frames[t, ..., ch] = np.clip(_round_half_up(plane), 0, 255).astype(np.uint8)
    return FrameSequence(frames=frames, fps=fps).validate()


# ---------------------------------------------------------------------------
# Labeled datasets
# ---------------------------------------------------------------------------

GT_ALPHA = 0.35  # score decay per pixel of high-frequency RMS
GT_HF_START_BIN = 6  # complements the low-frequency band (bins 1..5)


def gt_score_from_trajectory(
    traj: Trajectory,
    alpha: float = GT_ALPHA,
    hf_start_bin: int = GT_HF_START_BIN,
    theta_lever_px: float = 50.0,
) -> float:
    """Label 100*exp(-alpha * RMS_hf): high-frequency displacement RMS after
    dropping DFT bins below ``hf_start_bin``; rotation enters via a lever arm."""

    def highpass(path: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(path)
        spec[: min(hf_start_bin, len(spec))] = 0.0
        return np.fft.irfft(spec, n=len(path))

    hx = highpass(traj.x)
    hy = highpass(traj.y)
    ht = highpass(traj.theta) * theta_lever_px
    rms = float(np.sqrt(np.mean(hx * hx + hy * hy + ht * ht)))
    return 100.0 * float(np.exp(-alpha * rms))


def _random_spec(rng: np.random.Generator, amplitude: float, length: int) -> ShakeSpec:
    comps: list[ShakeComponent] = []
    # Cap the band well below Nyquist: a clip sampled at stride tau=2 sees
    # path increments scaled by 2*sin(pi*f*tau/length), which collapses near
    # length/2 and would decouple visible motion from the path-RMS label.
    f_hi = min(length / 2 - 2, 0.3 * length)
    f_lo = min(GT_HF_START_BIN + 2.0, f_hi - 1.0)  # short clips get a narrower band
    for axis in ("x", "y"):
        for _ in range(int(rng.integers(1, 3))):
            comps.append(
                ShakeComponent(
                    amplitude=amplitude * float(rng.uniform(0.6, 1.2)),
                    frequency=float(rng.uniform(f_lo, f_hi)),
                    phase=float(rng.uniform(0, 2 * np.pi)),
                    axis=axis,
                )
            )
    if rng.random() < 0.5:  # occasional rotational jitter
        comps.append(
            ShakeComponent(
                amplitude=amplitude * 0.003 * float(rng.uniform(0.5, 1.5)),
                frequency=float(rng.uniform(f_lo, f_hi)),
                phase=float(rng.uniform(0, 2 * np.pi)),
                axis="theta",
            )
        )
    return ShakeSpec(components=comps, noise_sigma=0.03 * amplitude, length=length)


DEFAULT_LADDER = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0)


def base_pool(
    n_bases: int,
    frame_size: tuple[int, int],
    max_amplitude: float,
    seed: int,
) -> list[np.ndarray]:
    """Shared textured bases, oversized so any ladder trajectory fits.

    Sharing scene content across videos matters for training: with one base
    per video, content statistics identify the video and a regressor can
    memorize instead of reading the motion."""
    margin = int(np.ceil(2.8 * max_amplitude)) + 8
    w = frame_size[0] + 2 * margin
    h = frame_size[1] + 2 * margin
    root = np.random.SeedSequence(seed)
    return [
        make_base(w, h, seed=int(np.random.SeedSequence(entropy=root.entropy, spawn_key=(9000 + k,)).generate_state(1)[0]))
        for k in range(n_bases)
    ]


def iter_dataset(
    count: int,
    amplitude_ladder: tuple[float, ...] | list[float] | None = None,
    base_images: list[np.ndarray] | None = None,
    seed: int = 0,
    length: int = 72,
    frame_size: tuple[int, int] = (128, 96),
    fps: float = 30.0,
    n_bases: int = 13,
):
    """Yield LabeledVideo one at a time (memory-friendly form of gen_dataset).

    Videos draw a base at random from a shared pool (``base_images`` if
    given, else ``n_bases`` procedural ones), so scene content stays
    uninformative about the jitter level.
    """
    if count < 10:
        raise ConfigError("a dataset needs at least 10 videos")
    ladder = list(amplitude_ladder if amplitude_ladder is not None else DEFAULT_LADDER)
    root = np.random.SeedSequence(seed)
    theta_lever = (frame_size[0] + frame_size[1]) / 4.0
    pool = base_images
    if pool is None:
        pool = base_pool(n_bases, frame_size, max(ladder), seed)
    for i in range(count):
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(i,))
        rng = np.random.default_rng(child)
        amplitude = ladder[i % len(ladder)]
        spec = (
            ShakeSpec(components=[], noise_sigma=0.0, length=length)
            if amplitude == 0
            else _random_spec(rng, amplitude, length)
        )
        traj = gen_trajectory(spec, seed=int(rng.integers(0, 2**31)))
        base = pool[int(rng.integers(0, len(pool)))]
        bw, bh = required_base_size(traj, frame_size)
        if base.shape[0] < bh or base.shape[1] < bw:
            base = make_base(bw, bh, seed=int(rng.integers(0, 2**31)))
        seq = render_shaky(base, traj, frame_size, fps=fps)
        score = gt_score_from_trajectory(traj, theta_lever_px=theta_lever)
        yield LabeledVideo(seq=seq, gt_trajectory=traj, gt_score=score, spec=spec)


def gen_dataset(
    count: int,
    amplitude_ladder: tuple[float, ...] | list[float] | None = None,
    base_images: list[np.ndarray] | None = None,
    seed: int = 0,
    **kwargs,
) -> list[LabeledVideo]:
    """Synthetic labeled videos spanning the amplitude ladder (seeded)."""
    return list(iter_dataset(count, amplitude_ladder, base_images, seed, **kwargs))


def gen_jitter_ladder(
    amplitudes: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0),
    seed: int = 7,
    frequency: float = 20.0,
    length: int = 64,
    frame_size: tuple[int, int] = (128, 96),
) -> list[LabeledVideo]:
    """Fixed-base, fixed-frequency x-jitter ladder used for metric checks."""
    specs = [
        ShakeSpec(
            components=[] if a == 0 else [ShakeComponent(a, frequency, 0.0, "x")],
            noise_sigma=0.0,
            length=length,
        )
        for a in amplitudes
    ]
    trajs = [gen_trajectory(s, seed=seed) for s in specs]
    sizes = [required_base_size(t, frame_size) for t in trajs]
    bw = max(s[0] for s in sizes)
    bh = max(s[1] for s in sizes)
    base = make_base(bw, bh, seed=seed)
    out = []
    theta_lever = (frame_size[0] + frame_size[1]) / 4.0
    for spec, traj in zip(specs, trajs):
        seq = render_shaky(base, traj, frame_size)
        score = gt_score_from_trajectory(traj, theta_lever_px=theta_lever)
        out.append(LabeledVideo(seq=seq, gt_trajectory=traj, gt_score=score, spec=spec))
    return out


# ---------------------------------------------------------------------------
# On-disk datasets
# ---------------------------------------------------------------------------


def write_dataset(videos, out_dir: str | Path, prefix: str = "synth") -> Path:
    """Write Y4M files, per-video spec JSON, and a manifest CSV; returns the
    manifest path.  ``videos`` may be any iterable of LabeledVideo."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.csv"
    with open(manifest, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "path", "gt_score"])
        for i, lv in enumerate(videos):
            vid = f"{prefix}_{i:04d}"
            save_y4m(lv.seq, out / f"{vid}.y4m")
            meta = {
                "video_id": vid,
                "gt_score": round(lv.gt_score, 6),
                "length": len(lv.seq),
                "components": [
                    {
                        "amplitude": c.amplitude,
                        "frequency": c.frequency,
                        "phase": c.phase,
                        "axis": c.axis,
                    }
                    for c in (lv.spec.components if lv.spec else [])
                ],
                "noise_sigma": lv.spec.noise_sigma if lv.spec else 0.0,
            }
            (out / f"{vid}.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
            writer.writerow([vid, f"{vid}.y4m", f"{lv.gt_score:.9g}"])
    return manifest


def load_manifest(path: str | Path) -> list[tuple[str, Path, float]]:
    """Rows of (video_id, absolute path, gt_score)."""
    p = Path(path)
    rows = []
    reader = csv_rows(p, "ascii")
    try:
        for row in reader:
            if not row or row[0] == "video_id":
                continue
            where = f"{p}:{reader.line_num}"
            if len(row) < 3:
                raise ParseError(f"{where}: need 3 fields, have {len(row)}")
            try:
                score = float(row[2])
            except ValueError:
                raise ParseError(f"{where}: non-numeric score {row[2]!r}") from None
            if not np.isfinite(score):
                raise ParseError(f"{where}: non-finite score {row[2]!r}")
            rows.append((row[0], (p.parent / row[1]).resolve(), score))
    except csv.Error as exc:
        raise ParseError(f"{p}:{reader.line_num}: {exc}") from exc
    return rows
