"""Classical stability baselines: ITF (mean adjacent-frame PSNR) and the
frequency-ratio Stability Score over an estimated camera path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientFrames
from .media import FrameSequence, to_luma
from .motion import Trajectory

PSNR_CAP_DB = 100.0
LOW_BAND = (1, 5)  # lowest non-DC DFT bins counted as "smooth" motion
# Spectral energy below this is treated as a motionless path (scores 1.0);
# it also absorbs the ~1e-26 numerical dust of estimated all-zero paths.
ZERO_ENERGY_EPS = 1e-12


@dataclass
class ItfResult:
    score_db: float
    per_pair_db: list[float]


@dataclass
class StabilityResult:
    score: float
    component_scores: dict[str, float]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE) between two luma planes, capped at 100 dB."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"plane shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(255.0**2 / mse))


def itf(seq: FrameSequence) -> ItfResult:
    """Interframe Transformation Fidelity: mean PSNR over adjacent luma pairs,
    converted one frame at a time so no float copy of the whole video is made."""
    if len(seq) < 2:
        raise InsufficientFrames("ITF needs at least 2 frames", required=2)
    pairs, prev = [], to_luma(seq.frames[0])
    for frame in seq.frames[1:]:
        cur = to_luma(frame)
        pairs.append(psnr(prev, cur))
        prev = cur
    return ItfResult(score_db=float(np.mean(pairs)), per_pair_db=pairs)


def freq_energy_ratio(path: np.ndarray) -> float:
    """Share of non-DC spectral energy inside ``LOW_BAND`` (inclusive bin range).

    A path with (numerically) zero non-DC energy is motionless and scores 1.
    """
    path = np.asarray(path, dtype=np.float64)
    m = len(path)
    if m < 16:
        raise InsufficientFrames("need a path of at least 16 samples", required=16)
    power = np.abs(np.fft.rfft(path)) ** 2
    total = float(np.sum(power[1:]))  # bins 1..floor(M/2), DC excluded
    if total < ZERO_ENERGY_EPS:
        return 1.0
    lo, hi = LOW_BAND  # m >= 16, so the band lies inside bins 1..m // 2
    return float(min(np.sum(power[lo : hi + 1]) / total, 1.0))


def stability_score(traj: Trajectory) -> StabilityResult:
    """Liu-style stability: low-frequency energy ratio per axis, worst axis wins."""
    components = {
        "x": freq_energy_ratio(traj.x),
        "y": freq_energy_ratio(traj.y),
        "theta": freq_energy_ratio(traj.theta),
    }
    return StabilityResult(score=min(components.values()), component_scores=components)
