"""Quality regression head and its training loop.

A two-layer MLP (128 hidden units, 1 output) regresses the fused clip
feature to a stability score.  Training minimizes a correlation loss plus a
weighted pairwise rank hinge, with Adam under a cosine learning-rate decay;
gradients are computed analytically through both batch-level loss terms.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    DimensionMismatch,
    InsufficientData,
    ParseError,
    TruncatedError,
)
from .media import FrameSequence, sample_clip
from . import features as feat

HIDDEN = 128
_EPS_VAR = 1e-12


@dataclass
class ModelParams:
    w1: np.ndarray  # (hidden, D)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    input_dim: int
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2),
            self.input_dim, self.norm_mean.copy(), self.norm_std.copy(),
        )


@dataclass
class TrainConfig:
    lambda_rank: float = 0.3
    epochs: int = 30
    batch_size: int = 4
    lr_head: float = 1e-3
    seed: int = 0
    schedule: str = "cosine"

    def as_dict(self) -> dict:
        return {
            "lambda_rank": self.lambda_rank,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr_head": self.lr_head,
            "seed": self.seed,
            "schedule": self.schedule,
        }


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_srocc: float | None = None


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


def init_params(input_dim: int, seed: int = 0, hidden: int = HIDDEN) -> ModelParams:
    """He-style uniform fan-in init; normalization defaults to identity."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / input_dim)
    lim2 = np.sqrt(6.0 / hidden)
    return ModelParams(
        w1=rng.uniform(-lim1, lim1, size=(hidden, input_dim)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=hidden),
        b2=0.0,
        input_dim=input_dim,
        norm_mean=np.zeros(input_dim),
        norm_std=np.ones(input_dim),
    )


def fit_norm_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean/std; zero-variance coordinates get std 1."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _as_matrix(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.input_dim:
        raise DimensionMismatch(
            f"feature dim {x.shape[1]} does not match model input_dim {params.input_dim}"
        )
    return x


def _forward(params: ModelParams, x: np.ndarray):
    z = (x - params.norm_mean) / params.norm_std
    u = z @ params.w1.T + params.b1
    h = np.maximum(u, 0.0)
    pred = h @ params.w2 + params.b2
    return pred, h, u, z


def mlp_forward(params: ModelParams, f: np.ndarray | feat.FusedFeature) -> float:
    """Predicted score for one fused feature vector."""
    if isinstance(f, feat.FusedFeature):
        f = f.f
    x = _as_matrix(params, f)
    pred, _, _, _ = _forward(params, x)
    return float(pred[0])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _check_vectors(pred: np.ndarray, mos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    mos = np.asarray(mos, dtype=np.float64).ravel()
    if pred.shape != mos.shape:
        raise DimensionMismatch(f"length mismatch: {len(pred)} vs {len(mos)}")
    if len(pred) < 2:
        raise DimensionMismatch("need at least 2 samples")
    return pred, mos


def plcc_loss(pred: np.ndarray, mos: np.ndarray) -> float:
    """(1 - r) / 2 with Pearson r; a constant prediction defines r = 0."""
    pred, mos = _check_vectors(pred, mos)
    b = mos - mos.mean()
    sbb = float(b @ b)
    if sbb < _EPS_VAR:
        raise DegenerateBatch("constant target scores: correlation undefined")
    a = pred - pred.mean()
    saa = float(a @ a)
    if saa < _EPS_VAR:
        return 0.5
    r = float(a @ b) / np.sqrt(saa * sbb)
    return (1.0 - r) / 2.0


def rank_loss(pred: np.ndarray, mos: np.ndarray) -> float:
    """Pairwise hinge with MOS-difference margins, normalized by n^2."""
    pred, mos = _check_vectors(pred, mos)
    dp = pred[:, None] - pred[None, :]
    dm = mos[:, None] - mos[None, :]
    e = np.where(dm >= 0, 1.0, -1.0)
    hinge = np.maximum(0.0, np.abs(dm) - e * dp)
    return float(hinge.sum()) / (len(pred) ** 2)


def loss_total(pred: np.ndarray, mos: np.ndarray, lambda_rank: float) -> float:
    return plcc_loss(pred, mos) + lambda_rank * rank_loss(pred, mos)


def _loss_and_grad_wrt_pred(
    pred: np.ndarray, mos: np.ndarray, lambda_rank: float
) -> tuple[float, np.ndarray]:
    """Degenerate-tolerant loss + d(loss)/d(pred) used inside training.

    Constant targets zero the correlation term's gradient; a constant
    prediction contributes loss 0.5 with zero gradient (the limit is
    direction-free)."""
    n = len(pred)
    b = mos - mos.mean()
    sbb = float(b @ b)
    a = pred - pred.mean()
    saa = float(a @ a)
    grad = np.zeros(n)
    if sbb < _EPS_VAR or saa < _EPS_VAR:
        plcc_term = 0.5
    else:
        denom = np.sqrt(saa * sbb)
        r = float(a @ b) / denom
        plcc_term = (1.0 - r) / 2.0
        grad += -0.5 * (b / denom - r * a / saa)

    dp = pred[:, None] - pred[None, :]
    dm = mos[:, None] - mos[None, :]
    e = np.where(dm >= 0, 1.0, -1.0)
    pre = np.abs(dm) - e * dp
    act = pre > 0.0
    rank_term = float(np.where(act, pre, 0.0).sum()) / (n * n)
    g_pair = np.where(act, -e, 0.0)
    grad += lambda_rank * (g_pair.sum(axis=1) - g_pair.sum(axis=0)) / (n * n)
    return plcc_term + lambda_rank * rank_term, grad


def backward(
    params: ModelParams,
    x: np.ndarray,
    mos: np.ndarray,
    lambda_rank: float = 0.3,
) -> tuple[float, Gradients]:
    """Analytic gradients of the total loss for one batch."""
    x = _as_matrix(params, x)
    mos = np.asarray(mos, dtype=np.float64).ravel()
    if len(mos) != x.shape[0]:
        raise DimensionMismatch("batch feature/score count mismatch")
    if len(mos) < 2:
        raise DimensionMismatch("a batch needs at least 2 samples")
    pred, h, u, z = _forward(params, x)
    loss, dpred = _loss_and_grad_wrt_pred(pred, mos, lambda_rank)
    gw2 = h.T @ dpred
    gb2 = float(dpred.sum())
    dh = np.outer(dpred, params.w2)
    du = dh * (u > 0)
    gw1 = du.T @ z
    gb1 = du.sum(axis=0)
    return loss, Gradients(w1=gw1, b1=gb1, w2=gw2, b2=gb2)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _stack_dataset(dataset) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for item, score in dataset:
        if isinstance(item, feat.FeatureBundle):
            item = feat.fuse(item).f
        elif isinstance(item, feat.FusedFeature):
            item = item.f
        xs.append(np.asarray(item, dtype=np.float64))
        ys.append(float(score))
    return np.stack(xs), np.array(ys)


def _cosine_factor(step: int, total: int) -> float:
    return 0.5 * (1.0 + np.cos(np.pi * step / max(total, 1)))


def train(
    dataset,
    cfg: TrainConfig,
    val_dataset=None,
) -> tuple[ModelParams, list[EpochLog]]:
    """Adam (b1=0.9, b2=0.999, eps=1e-8) with per-epoch seeded shuffling.

    Returns the parameters with the best validation SROCC when a validation
    set is given, otherwise the final parameters.
    """
    from .evaluation import srocc  # local import avoids a cycle

    x, y = _stack_dataset(dataset)
    if len(x) < 2 * cfg.batch_size:
        raise InsufficientData(
            f"need at least {2 * cfg.batch_size} samples, have {len(x)}"
        )
    if float(np.ptp(y)) <= 0:
        raise InsufficientData("all target scores are equal")
    if cfg.batch_size < 2:
        raise InsufficientData("pairwise losses need batch_size >= 2")

    rng = np.random.default_rng(cfg.seed)
    mean, std = fit_norm_stats(x)
    params = init_params(x.shape[1], seed=int(rng.integers(0, 2**31)))
    params.norm_mean, params.norm_std = mean, std

    xv = yv = None
    if val_dataset is not None:
        xv, yv = _stack_dataset(val_dataset)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2")}
    v = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2")}
    m["b2"] = 0.0
    v["b2"] = 0.0

    steps_per_epoch = max(len(x) // cfg.batch_size, 1)
    total_steps = cfg.epochs * steps_per_epoch
    logs: list[EpochLog] = []
    best = params.copy()
    best_srocc = -np.inf
    step = 0
    adam_t = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        losses = []
        for k in range(steps_per_epoch):
            idx = order[k * cfg.batch_size : (k + 1) * cfg.batch_size]
            if len(idx) < 2:
                continue
            loss, g = backward(params, x[idx], y[idx], cfg.lambda_rank)
            losses.append(loss)
            lr = cfg.lr_head
            if cfg.schedule == "cosine":
                lr *= _cosine_factor(step, total_steps)
            step += 1
            adam_t += 1
            for key in ("w1", "b1", "w2", "b2"):
                grad = getattr(g, key)
                m[key] = beta1 * m[key] + (1 - beta1) * grad
                v[key] = beta2 * v[key] + (1 - beta2) * grad * grad
                mh = m[key] / (1 - beta1**adam_t)
                vh = v[key] / (1 - beta2**adam_t)
                upd = lr * mh / (np.sqrt(vh) + eps)
                if key == "b2":
                    params.b2 = float(params.b2 - upd)
                else:
                    setattr(params, key, getattr(params, key) - upd)

        val_s = None
        if xv is not None:
            pv, _, _, _ = _forward(params, xv)
            val_s = float(srocc(pv, yv))
            if val_s > best_srocc:
                best_srocc = val_s
                best = params.copy()
        logs.append(EpochLog(epoch=epoch + 1, loss=float(np.mean(losses)), val_srocc=val_s))

    return (best if xv is not None else params), logs


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def predict_video(
    params: ModelParams,
    seq: FrameSequence,
    n_clips: int = 4,
    seed: int = 0,
    n: int = 32,
    tau: int = 2,
    grid: int = 8,
    tau_b: int = feat.DEFAULT_TAU_B,
) -> float:
    """Mean prediction over ``n_clips`` independently sampled clips."""
    if n_clips < 1:
        raise ConfigError(f"n_clips must be at least 1, got {n_clips}")
    rng = np.random.default_rng(seed)
    clip_seeds = rng.integers(0, 2**31, size=n_clips)
    scores = []
    for s in clip_seeds:
        clip = sample_clip(seq, n=n, tau=tau, seed=int(s))
        bundle = feat.clip_features(clip, grid=grid, tau_b=tau_b)
        scores.append(mlp_forward(params, feat.fuse(bundle).f))
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# Checkpoints and logs
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "stabilitykit-model-v1"


def config_hash(cfg: TrainConfig | dict | None) -> str:
    if cfg is None:
        return ""
    payload = cfg.as_dict() if isinstance(cfg, TrainConfig) else cfg
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def save_checkpoint(
    params: ModelParams, path: str | Path, cfg: TrainConfig | dict | None = None
) -> None:
    """JSON header line (dims, norm stats, config hash) + f32 weight blob."""
    header = {
        "format": _CKPT_FORMAT,
        "input_dim": params.input_dim,
        "hidden": len(params.b1),
        "norm_mean": [float(v) for v in params.norm_mean],
        "norm_std": [float(v) for v in params.norm_std],
        "config_hash": config_hash(cfg),
    }
    blob = np.concatenate(
        [params.w1.ravel(), params.b1, params.w2, [params.b2]]
    ).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(blob.tobytes())


def load_checkpoint(path: str | Path) -> ModelParams:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("checkpoint has no header line")
    try:
        header = json.loads(data[:nl])
        if header.get("format") != _CKPT_FORMAT:
            raise ParseError(f"unknown checkpoint format {header.get('format')!r}")
        d = int(header["input_dim"])
        hid = int(header["hidden"])
        norm_mean = np.array(header["norm_mean"], dtype=np.float64)
        norm_std = np.array(header["norm_std"], dtype=np.float64)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad checkpoint header: {exc}") from exc
    if d < 1 or hid < 1:
        raise ParseError(f"bad checkpoint dims: input_dim {d}, hidden {hid}")
    if norm_mean.shape != (d,) or norm_std.shape != (d,):
        raise ParseError(
            f"checkpoint norm stats have shapes {norm_mean.shape} and "
            f"{norm_std.shape}, input_dim is {d}"
        )
    need = hid * d + hid + hid + 1
    have = (len(data) - nl - 1) // 4
    if have < need:
        raise TruncatedError(f"checkpoint weights truncated: {have} of {need} values")
    blob = np.frombuffer(data, "<f4", need, nl + 1).astype(np.float64)
    w1 = blob[: hid * d].reshape(hid, d)
    b1 = blob[hid * d : hid * d + hid]
    w2 = blob[hid * d + hid : hid * d + 2 * hid]
    b2 = float(blob[-1])
    return ModelParams(w1, b1, w2, b2, d, norm_mean, norm_std)


def save_training_log(logs: list[EpochLog], path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss", "val_srocc"])
        for log in logs:
            writer.writerow(
                [
                    log.epoch,
                    f"{log.loss:.9g}",
                    "" if log.val_srocc is None else f"{log.val_srocc:.9g}",
                ]
            )
