"""Three-branch clip features: flow, semantic, blur.

Each branch mirrors the corresponding deep extractor's input contract but
computes fixed statistics instead of a learned embedding, so only the
regression head needs training.  ``ClipSpec`` holds the settings that decide
the vector.  ``clip_features`` returns one float64 vector, the branch outputs
concatenated in flow, semantic, blur order: C_o = 16 values, then C_s = 8 per
frame and C_b = 4 per blur frame.  The default spec (n=32, tau_b=8) gives
16 + 32*8 + 4*4 = 288 coordinates.

No stage makes a float copy of the clip's native-resolution frames.  Flow
runs on them at native resolution: level 0 of its LK pyramid is the uint8
frames themselves, and each LK window gathered from it is cast to float64.
The frames are resized to 224x224 in runs of _RESIZE_RUN_FRAMES, whose
gathers are cast likewise, and the semantic and blur stats are taken one
frame at a time from each run's C-ordered (k, 224, 224) stack, so each
frame's sums run pairwise over its own contiguous plane.  Summed in another
order (say, across a stack whose fastest axis is time), the semantic means
and stds agree to within 1e-12 relative, not exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ConfigError, InsufficientFrames, ParseError
from .media import Clip, clip_span, load_f32_header, resize_float, save_f32
from .media import to_luma  # noqa: F401  (unused here; bench/tracing.py patches the name)
from .motion import FlowField, check_grid, grid_flow_sequence

C_O = 16
C_S = 8
C_B = 4
SEMANTIC_SIZE = 224
_RESIZE_RUN_FRAMES = 4  # most frames per resize_float call in clip_features

_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


@dataclass(frozen=True)
class ClipSpec:
    """How a clip is sampled and featurized: ``n`` frames ``tau`` apart, a
    ``grid`` x ``grid`` flow field per frame pair, and the blur stats of every
    ``tau_b``-th frame.  Raises ConfigError on a value no clip can have."""

    n: int = 32
    tau: int = 2
    grid: int = 8
    tau_b: int = 8

    def __post_init__(self):
        clip_span(self.n, self.tau)
        check_grid(self.grid)
        blur_indices(self.n, self.tau_b)

    @property
    def n_b(self) -> int:
        return self.n // self.tau_b

    @property
    def dim(self) -> int:
        return C_O + self.n * C_S + self.n_b * C_B


# ---------------------------------------------------------------------------
# Flow branch
# ---------------------------------------------------------------------------


def flow_features(flows: list[FlowField]) -> np.ndarray:
    """Temporal mean and std of 8 per-field stats -> C_o = 16 values.

    The stats of a field are the mean and std of u, of v and of the
    magnitude, then the mean absolute change of u and of v from the
    previous field (0 for the first field)."""
    if len(flows) < 2:
        raise InsufficientFrames("flow branch needs at least 2 flow fields", required=2)
    u = np.stack([f.u for f in flows])
    v = np.stack([f.v for f in flows])
    mag = np.hypot(u, v)
    du, dv = (np.abs(np.diff(a, axis=0, prepend=a[:1])) for a in (u, v))  # 0 for the first
    stats = np.stack(
        [u.mean(axis=(1, 2)), v.mean(axis=(1, 2)), u.std(axis=(1, 2)), v.std(axis=(1, 2)),
         mag.mean(axis=(1, 2)), mag.std(axis=(1, 2)), du.mean(axis=(1, 2)), dv.mean(axis=(1, 2))],
        axis=1,
    )
    return np.concatenate([stats.mean(axis=0), stats.std(axis=0)])


# ---------------------------------------------------------------------------
# Semantic branch
# ---------------------------------------------------------------------------


def _semantic_frame(luma: np.ndarray) -> np.ndarray:
    """C_s = 8 stats of one luma plane: mean, std, mean gradient magnitude,
    entropy of the magnitude-weighted 8-bin orientation histogram, and the
    mean of each quadrant."""
    h, w = luma.shape
    gy, gx = np.gradient(luma)
    mag = np.sqrt(gx * gx + gy * gy)
    ang = np.arctan2(gy, gx)
    bins = np.clip(((ang + np.pi) * (8 / (2 * np.pi))).astype(int), 0, 7)
    hist = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=8)
    total = hist.sum()
    ent = 0.0
    if total > 1e-12:
        p = hist / total
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -np.sum(np.where(p > 0, p * np.log(p), 0.0))
    h2, w2 = h // 2, w // 2
    return np.array(
        [
            luma.mean(),
            luma.std(),
            mag.mean(),
            ent,
            luma[:h2, :w2].mean(),
            luma[:h2, w2:].mean(),
            luma[h2:, :w2].mean(),
            luma[h2:, w2:].mean(),
        ]
    )


# ---------------------------------------------------------------------------
# Blur branch
# ---------------------------------------------------------------------------


def _hf_energy_ratio(luma: np.ndarray) -> float:
    """2-D spectral energy outside the central quarter over total non-DC."""
    spec = np.abs(np.fft.fft2(luma)) ** 2
    total = float(spec.sum() - spec[0, 0])
    if total <= 1e-9:
        return 0.0
    h, w = luma.shape
    fy = np.abs(np.fft.fftfreq(h) * h)
    fx = np.abs(np.fft.fftfreq(w) * w)
    low = (fy[:, None] < h / 4) & (fx[None, :] < w / 4)
    inside = float(spec[low].sum() - spec[0, 0])
    return float(np.clip((total - inside) / total, 0.0, 1.0))


def _blur_frame(luma: np.ndarray, grad_mean: float) -> np.ndarray:
    """C_b = 4 stats of one luma plane; ``grad_mean`` is its mean gradient
    magnitude, which the semantic branch has already computed."""
    lap = ndimage.convolve(luma, _LAPLACIAN, mode="reflect")
    sx = ndimage.sobel(luma, axis=1, mode="reflect")
    sy = ndimage.sobel(luma, axis=0, mode="reflect")
    return np.array(
        [
            float(lap.var()),
            float(grad_mean),
            _hf_energy_ratio(luma),
            float(np.mean(sx * sx + sy * sy)),  # Tenengrad
        ]
    )


def blur_indices(n: int, tau_b: int) -> list[int]:
    if tau_b < 1 or n % tau_b != 0:
        raise ConfigError(f"tau_b={tau_b} must divide the clip length n={n}")
    return [k * tau_b - 1 for k in range(1, n // tau_b + 1)]


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


def clip_features(clip: Clip, spec: ClipSpec) -> np.ndarray:
    """The fused float64 feature vector of a clip sampled as ``spec`` says,
    ``spec.dim`` values: flow, semantic, blur.

    Flow runs on the uint8 frames at native resolution for sub-pixel
    precision.  The semantic stats of every frame and the blur stats of every
    tau_b-th frame are computed one frame at a time on C-ordered
    (k, 224, 224) stacks of bilinearly resized luma planes, resized
    _RESIZE_RUN_FRAMES frames at a time.
    """
    if (clip.n, clip.tau) != (spec.n, spec.tau):
        raise ConfigError(f"clip has n={clip.n}, tau={clip.tau}; the spec has n={spec.n}, tau={spec.tau}")
    # untrackable pairs (constant or pure-noise content) come back as zero
    # fields, keeping the feature vector finite for any valid clip
    flows = grid_flow_sequence(clip.frames, spec.grid)
    blur_at = blur_indices(spec.n, spec.tau_b)
    semantic, blur = [], []
    for start in range(0, spec.n, _RESIZE_RUN_FRAMES):
        run = clip.frames[start : start + _RESIZE_RUN_FRAMES]
        for i, luma in enumerate(resize_float(run, SEMANTIC_SIZE, SEMANTIC_SIZE), start):
            semantic.append(_semantic_frame(luma))
            if i in blur_at:
                blur.append(_blur_frame(luma, semantic[-1][2]))
    return np.concatenate([flow_features(flows), *semantic, *blur])


# ---------------------------------------------------------------------------
# Feature cache file: one JSON header line, then little-endian f32 rows
# ---------------------------------------------------------------------------


def _cache_header(spec: ClipSpec, seed: int, count: int, videos) -> dict:
    header = {"c_o": C_O, "c_s": C_S, "c_b": C_B, "n": spec.n, "n_b": spec.n_b, "tau_b": spec.tau_b,
              "count": count, "tau": spec.tau, "grid": spec.grid, "seed": seed}
    if videos is not None:  # the first 48 bits of the SHA-256 of the paths, one a line
        text = "".join(f"{v}\n" for v in videos).encode("utf-8", "surrogateescape")
        header["videos"] = int.from_bytes(hashlib.sha256(text).digest()[:6], "big")
    return header


def save_feature_cache(path: str | Path, matrix: np.ndarray, spec: ClipSpec, seed: int,
                       videos=None) -> None:
    """Write the rows of clips sampled from ``seed`` and featurized as ``spec``
    says; ``videos``, the paths the rows came from in row order, is kept as a
    digest."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != spec.dim:
        raise ConfigError(f"matrix shape {matrix.shape} does not match dim {spec.dim}")
    save_f32(path, dict(_cache_header(spec, seed, matrix.shape[0], videos), dim=spec.dim), matrix)


def load_feature_cache(path: str | Path, spec: ClipSpec, seed: int, count: int,
                       videos=None) -> np.ndarray:
    """The ``count`` rows of a cache written for ``spec``, ``seed`` and the
    ``videos`` paths in that order.

    Raises ParseError on a malformed file and ConfigError when the header
    names other settings, another row count or other videos.  A header
    without ``tau``, ``grid``, ``seed`` or ``videos`` (an older cache) is not
    checked on those keys."""
    header, blob = load_f32_header(path, "feature cache")
    try:
        fields = {k: header[k] for k in ("c_o", "c_s", "c_b", "n", "n_b", "tau_b", "count")}
    except KeyError as exc:
        raise ParseError(f"bad feature cache header: {exc}") from exc
    fields.update((k, header[k]) for k in ("tau", "grid", "seed", "videos") if k in header)
    if any(type(v) is not int or v < 0 for v in fields.values()):
        raise ParseError(f"feature cache header fields must be non-negative integers: {fields}")
    want = _cache_header(spec, seed, count, videos)
    differ = [f"{k}={v} (want {want.get(k)})" for k, v in fields.items() if v != want.get(k)]
    if differ:
        raise ConfigError(f"feature cache does not match the manifest/config: {', '.join(differ)}")
    expect = count * spec.dim * 4
    if len(blob) < expect:
        raise ParseError(f"feature cache truncated: {len(blob)} < {expect} bytes")
    matrix = np.frombuffer(blob, "<f4", count * spec.dim).reshape(count, spec.dim)
    if not np.isfinite(matrix).all():
        raise ParseError("feature cache holds non-finite values")
    return matrix.astype(np.float64)
