"""Seeded inputs for the benchmark, written with the benchmark's own code.

Nothing here imports stabilitykit: the inputs, their ground truth and the
labels stay fixed while the program under test changes.

Videos are colour YUV4MPEG2 4:2:0 streams (what ``ffmpeg -pix_fmt yuv420p``
writes), full-range BT.601, so the decoder's chroma upsampling and RGB snap
run as on real input.  Each video is a textured colour base warped along a
seeded similarity path.  Frame t+1 is frame t moved by the path increment
and rotated about the frame centre by the angle increment, so per-pair
motion estimates prefix-sum to the ground-truth path.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import ndimage

FPS = 30
LENGTH = 64
THETA_RAD_PER_PX = 0.003  # rotational jitter amplitude per pixel of shake
NOISE_FRAC = 0.03  # per-frame path noise, as a share of the amplitude
LOW_BAND = (1, 5)  # DFT bins counted as smooth motion by the Stability Score
HF_START_BIN = 6  # label: path energy from this DFT bin up counts as shake
LABEL_ALPHA = 0.35

FEATURE_DIMS = {"c_b": 4, "c_o": 16, "c_s": 8, "n": 32, "n_b": 4, "tau_b": 8}
FEATURE_DIM = 16 + 32 * 8 + 4 * 4
HIDDEN = 128
CHECKPOINT_SEED = 20230809  # the checkpoint is the same for every run seed


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for one part of one workload's inputs."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------
# Camera paths and their ground-truth statistics
# ---------------------------------------------------------------------------


def shake_path(rng: np.random.Generator, amplitude: float, size: tuple[int, int],
               length: int = LENGTH) -> dict[str, np.ndarray]:
    """Sinusoidal x/y shake of ``amplitude`` px plus rotational jitter of
    ``amplitude * THETA_RAD_PER_PX`` rad.  The per-frame noise on theta is
    converted from pixels to radians through the lever arm (w + h) / 4."""
    t = np.arange(length, dtype=np.float64)
    f_lo, f_hi = HF_START_BIN + 2.0, 0.3 * length
    lever = (size[0] + size[1]) / 4.0
    path = {}
    for axis in ("x", "y"):
        p = np.zeros(length)
        for _ in range(int(rng.integers(1, 3))):
            amp = amplitude * rng.uniform(0.6, 1.2)
            p += amp * np.sin(2 * np.pi * rng.uniform(f_lo, f_hi) * t / length
                              + rng.uniform(0, 2 * np.pi))
        path[axis] = p + rng.normal(0.0, NOISE_FRAC * amplitude, length)
    amp = amplitude * THETA_RAD_PER_PX * rng.uniform(0.5, 1.5)
    theta = amp * np.sin(2 * np.pi * rng.uniform(f_lo, f_hi) * t / length
                         + rng.uniform(0, 2 * np.pi))
    path["theta"] = theta + rng.normal(0.0, NOISE_FRAC * amplitude / lever, length)
    return {k: v - v[0] for k, v in path.items()}


def stability_score(path: dict[str, np.ndarray]) -> float:
    """Liu-style Stability Score: per axis, the share of non-DC spectral
    energy in the low band; the worst axis wins.  A motionless axis scores 1."""
    scores = []
    for axis in ("x", "y", "theta"):
        power = np.abs(np.fft.rfft(path[axis])) ** 2
        total = power[1:].sum()
        if total < 1e-12:
            scores.append(1.0)
            continue
        lo, hi = LOW_BAND
        scores.append(min(power[lo:min(hi, len(path[axis]) // 2) + 1].sum() / total, 1.0))
    return float(min(scores))


def shake_label(path: dict[str, np.ndarray], size: tuple[int, int]) -> float:
    """Training label 100 * exp(-alpha * RMS of the high-passed path); theta
    enters through the lever arm (w + h) / 4."""
    lever = (size[0] + size[1]) / 4.0

    def highpass(p):
        spec = np.fft.rfft(p)
        spec[:HF_START_BIN] = 0.0
        return np.fft.irfft(spec, n=len(p))

    hx, hy = highpass(path["x"]), highpass(path["y"])
    ht = highpass(path["theta"]) * lever
    return float(100.0 * np.exp(-LABEL_ALPHA * np.sqrt(np.mean(hx**2 + hy**2 + ht**2))))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _inverse_poses(path: dict[str, np.ndarray], size: tuple[int, int]) -> list[np.ndarray]:
    """3x3 maps from frame-t pixel coordinates to frame-0 coordinates."""
    w, h = size
    c = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    maps = [np.eye(3)]
    for t in range(len(path["x"]) - 1):
        dth = path["theta"][t + 1] - path["theta"][t]
        d = np.array([path["x"][t + 1] - path["x"][t], path["y"][t + 1] - path["y"][t]])
        cs, sn = np.cos(dth), np.sin(dth)
        rinv = np.array([[cs, sn], [-sn, cs]])
        step_inv = np.eye(3)  # frame t+1 -> frame t: p = R^-1 (q - c - d) + c
        step_inv[:2, :2] = rinv
        step_inv[:2, 2] = c - rinv @ (c + d)
        maps.append(maps[-1] @ step_inv)
    return maps


def _base_image(rng: np.random.Generator, w: int, h: int) -> np.ndarray:
    """Colour texture: multi-octave value noise with a per-octave tint, plus
    flat rectangles and discs whose corners and edges give corner features."""
    img = np.zeros((h, w, 3))
    weight = 1.0
    for spacing in (32, 16, 8, 4):
        ny, nx = h // spacing + 2, w // spacing + 2
        lattice = rng.random((ny, nx))
        ys = (np.arange(h) + 0.5) / spacing
        xs = (np.arange(w) + 0.5) / spacing
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        layer = ndimage.map_coordinates(lattice, [gy, gx], order=1, mode="nearest")
        img += weight * layer[..., None] * rng.uniform(0.6, 1.0, 3)
        weight *= 0.55
    img = (img - img.min()) / (img.max() - img.min())
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(10):
        rw, rh = int(rng.integers(w // 20, w // 5)), int(rng.integers(h // 20, h // 5))
        x0, y0 = int(rng.integers(0, w - rw)), int(rng.integers(0, h - rh))
        img[y0:y0 + rh, x0:x0 + rw] = rng.random(3)
    for _ in range(5):
        r = int(rng.integers(min(w, h) // 20, min(w, h) // 7))
        cx, cy = int(rng.integers(r, w - r)), int(rng.integers(r, h - r))
        img[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = rng.random(3)
    return 16.0 + img * 222.0


def render(rng: np.random.Generator, path: dict[str, np.ndarray], size: tuple[int, int]):
    """Yield the (H, W, 3) float RGB frames of a base warped along ``path``."""
    w, h = size
    maps = _inverse_poses(path, size)
    corners = np.array([[0, 0, 1], [w - 1, 0, 1], [0, h - 1, 1], [w - 1, h - 1, 1]], float).T
    reach = np.max([np.abs((g @ corners)[:2].T - corners[:2].T).max(axis=0) for g in maps], axis=0)
    pad = np.ceil(reach).astype(int) + 4
    base = _base_image(rng, w + 2 * pad[0], h + 2 * pad[1])
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    for g in maps:
        qx = g[0, 0] * xs + g[0, 1] * ys + g[0, 2] + pad[0]
        qy = g[1, 0] * xs + g[1, 1] * ys + g[1, 2] + pad[1]
        yield np.stack(
            [ndimage.map_coordinates(base[..., ch], [qy, qx], order=1, mode="nearest")
             for ch in range(3)],
            axis=-1,
        )


def write_y4m_420(path: Path, frames, size: tuple[int, int]) -> None:
    """Full-range BT.601 YCbCr, chroma averaged over 2x2 blocks."""
    w, h = size
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{w} H{h} F{FPS}:1 Ip A1:1 C420jpeg\n".encode("ascii"))
        for rgb in frames:
            r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
            y = 0.299 * r + 0.587 * g + 0.114 * b
            cb = 128.0 - 0.168735891647856 * r - 0.331264108352144 * g + 0.5 * b
            cr = 128.0 + 0.5 * r - 0.418687589158345 * g - 0.081312410841655 * b
            fh.write(b"FRAME\n")
            for plane, sub in ((y, False), (cb, True), (cr, True)):
                if sub:
                    plane = plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
                fh.write(np.clip(np.floor(plane + 0.5), 0, 255).astype(np.uint8).tobytes())


def make_video(path: Path, seed: int, key: tuple[int, ...], amplitude: float,
               size: tuple[int, int]) -> dict[str, np.ndarray]:
    """Write one shaky video and return its ground-truth path."""
    rng = rng_for(seed, *key)
    truth = shake_path(rng, amplitude, size)
    write_y4m_420(path, render(rng, truth, size), size)
    return truth


# ---------------------------------------------------------------------------
# Model, feature cache and evaluation inputs
# ---------------------------------------------------------------------------


def write_checkpoint(path: Path) -> None:
    """A fixed ``stabilitykit-model-v1`` checkpoint: JSON header line, then
    w1 (hidden x D), b1, w2 and b2 as little-endian f32."""
    rng = rng_for(CHECKPOINT_SEED)
    d = FEATURE_DIM
    header = {
        "config_hash": "",
        "format": "stabilitykit-model-v1",
        "hidden": HIDDEN,
        "input_dim": d,
        "norm_mean": [0.0] * d,
        "norm_std": [float(v) for v in np.round(10.0 ** rng.uniform(0, 3, d), 3)],
    }
    blob = np.concatenate([
        rng.uniform(-1, 1, HIDDEN * d) * np.sqrt(6.0 / d),
        np.zeros(HIDDEN),
        rng.uniform(-1, 1, HIDDEN) * np.sqrt(6.0 / HIDDEN),
        [50.0],
    ]).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(blob.tobytes())


def write_manifest(path: Path, rows: list[tuple[str, str, float]]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["video_id", "path", "gt_score"])
        for vid, rel, score in rows:
            out.writerow([vid, rel, f"{score:.9g}"])


def write_feature_cache(path: Path, manifest: Path, seed: int, count: int) -> None:
    """A warm cache of ``count`` feature rows plus the manifest whose labels
    they predict.  Labels are a smooth function of a few feature directions
    plus noise, so a trained head reaches a steady held-out correlation."""
    rng = rng_for(seed, 3, 0)
    latent = rng.normal(size=(count, 12))
    mix = rng.normal(size=(12, FEATURE_DIM)) / np.sqrt(12)
    scale = 10.0 ** rng.uniform(-1, 3, FEATURE_DIM)
    x = (latent @ mix + 0.3 * rng.normal(size=(count, FEATURE_DIM))) * scale
    signal = np.tanh(latent[:, 0] + 0.5 * latent[:, 1] * latent[:, 2] - 0.4 * latent[:, 3])
    y = 50.0 + 30.0 * signal + 6.0 * rng.normal(size=count)
    header = dict(FEATURE_DIMS, count=count, dim=FEATURE_DIM)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(x.astype("<f4").tobytes())
    write_manifest(manifest, [(f"c{i:05d}", f"c{i:05d}.y4m", y[i]) for i in range(count)])


def write_eval_pair(pred_csv: Path, mos_csv: Path, seed: int, key: int, n: int) -> None:
    """Predictions that follow MOS through a noisy sigmoid, as a regression
    head's outputs do; both columns are rounded, so ties occur."""
    rng = rng_for(seed, 4, key)
    mos = np.round(rng.uniform(1.0, 99.0, n), 2)
    pred = 1.0 / (1.0 + np.exp(-(mos - 50.0) / 15.0)) + rng.normal(0.0, 0.08, n)
    pred_csv.write_text("pred\n" + "".join(f"{v:.6f}\n" for v in pred), encoding="ascii")
    mos_csv.write_text("mos\n" + "".join(f"{v:.2f}\n" for v in mos), encoding="ascii")
