"""Three-branch clip features: flow, semantic, blur.

Each branch mirrors the corresponding deep extractor's input contract but
computes fixed statistics instead of a learned embedding, so only the
regression head needs training.  Branch outputs are concatenated in flow,
semantic, blur order; with the defaults (C_o=16, N=32, C_s=8, N_b=4, C_b=4)
the fused vector has 16 + 32*8 + 4*4 = 288 coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ConfigError, InsufficientFrames, ParseError
from .media import Clip, to_luma
from .motion import FlowField, grid_flow_sequence

C_O = 16
C_S = 8
C_B = 4
DEFAULT_TAU_B = 8
SEMANTIC_SIZE = 224

_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


@dataclass
class FeatureDims:
    c_o: int = C_O
    c_s: int = C_S
    c_b: int = C_B
    n: int = 32
    n_b: int = 4
    tau_b: int = DEFAULT_TAU_B

    @property
    def dim(self) -> int:
        return self.c_o + self.n * self.c_s + self.n_b * self.c_b

    def as_dict(self) -> dict:
        return {
            "c_o": self.c_o,
            "c_s": self.c_s,
            "c_b": self.c_b,
            "n": self.n,
            "n_b": self.n_b,
            "tau_b": self.tau_b,
        }


@dataclass
class FeatureBundle:
    f_o: np.ndarray
    f_s: np.ndarray
    f_b: np.ndarray
    dims: FeatureDims


@dataclass
class FusedFeature:
    f: np.ndarray
    dim: int


# ---------------------------------------------------------------------------
# Flow branch
# ---------------------------------------------------------------------------


def _field_stats(field: FlowField, prev: FlowField | None) -> np.ndarray:
    """8 stats per field; temporal deltas are zero for the first field."""
    u, v = field.u, field.v
    mag = np.hypot(u, v)
    if prev is None:
        dmu = 0.0
        dmv = 0.0
    else:
        dmu = float(np.mean(np.abs(u - prev.u)))
        dmv = float(np.mean(np.abs(v - prev.v)))
    return np.array(
        [
            float(np.mean(u)),
            float(np.mean(v)),
            float(np.std(u)),
            float(np.std(v)),
            float(np.mean(mag)),
            float(np.std(mag)),
            dmu,
            dmv,
        ]
    )


def flow_features(flows: list[FlowField]) -> np.ndarray:
    """Temporal mean and std of the per-field stats -> C_o = 16 values."""
    if len(flows) < 2:
        raise InsufficientFrames("flow branch needs at least 2 flow fields", required=2)
    stats = np.stack(
        [_field_stats(f, flows[i - 1] if i else None) for i, f in enumerate(flows)]
    )
    return np.concatenate([stats.mean(axis=0), stats.std(axis=0)])


# ---------------------------------------------------------------------------
# Semantic branch
# ---------------------------------------------------------------------------


def _gradients(luma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gy, gx = np.gradient(luma)
    return gx, gy


def _resize_lumas(lumas: np.ndarray, size: int) -> np.ndarray:
    """Float bilinear resize of a (T, H, W) luma stack, half-pixel centers."""
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


def _semantic_from_lumas(lumas: np.ndarray) -> np.ndarray:
    """Vectorized per-frame stats over a (T, H, W) luma stack."""
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


def semantic_features(frames: np.ndarray) -> np.ndarray:
    """Per-frame statistics concatenated in temporal order -> N * C_s values."""
    return _semantic_from_lumas(to_luma(frames))


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


def _blur_frame(luma: np.ndarray) -> np.ndarray:
    lap = ndimage.convolve(luma, _LAPLACIAN, mode="reflect")
    gx, gy = _gradients(luma)
    sx = ndimage.sobel(luma, axis=1, mode="reflect")
    sy = ndimage.sobel(luma, axis=0, mode="reflect")
    return np.array(
        [
            float(lap.var()),
            float(np.hypot(gx, gy).mean()),
            _hf_energy_ratio(luma),
            float(np.mean(sx * sx + sy * sy)),  # Tenengrad
        ]
    )


def blur_indices(n: int, tau_b: int) -> list[int]:
    if tau_b < 1 or n % tau_b != 0:
        raise ConfigError(f"tau_b={tau_b} must divide the clip length n={n}")
    return [k * tau_b - 1 for k in range(1, n // tau_b + 1)]


def _blur_from_lumas(lumas: np.ndarray) -> np.ndarray:
    return np.concatenate([_blur_frame(lumas[i]) for i in range(len(lumas))])


def blur_features(frames: np.ndarray, tau_b: int = DEFAULT_TAU_B) -> np.ndarray:
    """Sharpness measures on every tau_b-th frame -> N_b * C_b values."""
    idx = blur_indices(len(frames), tau_b)
    return _blur_from_lumas(to_luma(frames[idx]))


# ---------------------------------------------------------------------------
# Fusion and the full pipeline
# ---------------------------------------------------------------------------


def fuse(bundle: FeatureBundle) -> FusedFeature:
    """Plain concatenation (f_o, f_s, f_b); every coordinate is preserved."""
    f = np.concatenate([bundle.f_o, bundle.f_s, bundle.f_b]).astype(np.float64)
    if len(f) != bundle.dims.dim:
        raise ConfigError(
            f"bundle vectors total {len(f)}, dims say {bundle.dims.dim}"
        )
    return FusedFeature(f=f, dim=len(f))


def clip_features(clip: Clip, grid: int = 8, tau_b: int = DEFAULT_TAU_B) -> FeatureBundle:
    """Extract all three branches from a clip.

    Flow runs on native-resolution luma for sub-pixel precision; semantic and
    blur statistics are computed on luma planes bilinearly resized to 224x224.
    """
    n = clip.n
    lumas = to_luma(clip.frames)
    # untrackable pairs (constant or pure-noise content) come back as zero
    # fields, keeping the feature vector finite for any valid clip
    flows = grid_flow_sequence(lumas, grid=grid)
    resized = _resize_lumas(lumas, SEMANTIC_SIZE)
    blur_idx = blur_indices(n, tau_b)
    dims = FeatureDims(n=n, n_b=n // tau_b, tau_b=tau_b)
    return FeatureBundle(
        f_o=flow_features(flows),
        f_s=_semantic_from_lumas(resized),
        f_b=_blur_from_lumas(resized[blur_idx]),
        dims=dims,
    )


# ---------------------------------------------------------------------------
# Feature cache file: one JSON header line, then little-endian f32 rows
# ---------------------------------------------------------------------------


def save_feature_cache(path: str | Path, matrix: np.ndarray, dims: FeatureDims) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    header = dict(dims.as_dict(), dim=dims.dim, count=int(matrix.shape[0]))
    if matrix.ndim != 2 or matrix.shape[1] != dims.dim:
        raise ConfigError(f"matrix shape {matrix.shape} does not match dim {dims.dim}")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(matrix.astype("<f4").tobytes())


def load_feature_cache(path: str | Path) -> tuple[np.ndarray, FeatureDims]:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("feature cache has no header line")
    try:
        header = json.loads(data[:nl])
        fields = {k: header[k] for k in ("c_o", "c_s", "c_b", "n", "n_b", "tau_b", "count")}
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: not an object
        raise ParseError(f"bad feature cache header: {exc}") from exc
    if any(type(v) is not int or v < 0 for v in fields.values()):
        raise ParseError(f"feature cache header fields must be non-negative integers: {fields}")
    count = fields.pop("count")
    dims = FeatureDims(**fields)
    expect = count * dims.dim * 4
    blob = data[nl + 1 :]
    if len(blob) < expect:
        raise ParseError(f"feature cache truncated: {len(blob)} < {expect} bytes")
    matrix = np.frombuffer(blob, "<f4", count * dims.dim).reshape(count, dims.dim)
    if not np.isfinite(matrix).all():
        raise ParseError("feature cache holds non-finite values")
    return matrix.astype(np.float64), dims
