"""Quality regression head and its training loop.

A two-layer MLP (128 hidden units, 1 output) regresses the fused clip
feature to a stability score.  Training minimizes a correlation loss plus a
weighted pairwise rank hinge, with Adam under a cosine learning-rate decay;
gradients are computed analytically through both batch-level loss terms.

During training the parameters, their gradient and Adam's two moments are
each one flat float64 vector in checkpoint order (``w1`` row-major, ``b1``,
``w2``, ``b2``); ``w1``, ``b1``, ``w2`` and ``b2`` are views into it, so one
Adam step is a few in-place ufuncs over whole vectors.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    DegenerateInput,
    DimensionMismatch,
    InsufficientData,
    ParseError,
    TruncatedError,
)
from .evaluation import _pair
from .media import FrameSequence, load_f32_header, sample_clip, save_f32
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


@dataclass
class TrainConfig:
    lambda_rank: float = 0.3
    epochs: int = 30
    batch_size: int = 4
    lr_head: float = 1e-3
    seed: int = 0
    schedule: str = "cosine"


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_srocc: float | None = None


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


def _flat(params: ModelParams) -> np.ndarray:
    """w1 (row-major), b1, w2 and b2 as one float64 vector: checkpoint order."""
    return np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])


def _on_flat(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """``params`` with w1, b1, w2 and b2 replaced by views into ``flat``
    (checkpoint order; ``b2`` is a 0-d view)."""
    hidden, d = params.w1.shape
    k = hidden * d
    return replace(
        params,
        w1=flat[:k].reshape(hidden, d),
        b1=flat[k : k + hidden],
        w2=flat[k + hidden : -1],
        b2=flat[-1, ...],
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


def _check_vectors(
    pred: np.ndarray, mos: np.ndarray, varied_targets: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    pred, mos = _pair(pred, mos, 2)
    if varied_targets:
        b = mos - mos.mean()
        if float(b @ b) < _EPS_VAR:
            raise DegenerateBatch("constant target scores: correlation undefined")
    return pred, mos


def plcc_loss(pred: np.ndarray, mos: np.ndarray) -> float:
    """(1 - r) / 2 with Pearson r; a constant prediction defines r = 0."""
    return _loss_terms(*_check_vectors(pred, mos, varied_targets=True), 0.0)[0]


def rank_loss(pred: np.ndarray, mos: np.ndarray) -> float:
    """Pairwise hinge with MOS-difference margins, normalized by n^2."""
    return _loss_terms(*_check_vectors(pred, mos), 0.0)[1]


def loss_total(pred: np.ndarray, mos: np.ndarray, lambda_rank: float) -> float:
    return _loss_and_grad_wrt_pred(*_check_vectors(pred, mos, varied_targets=True), lambda_rank)[0]


def _loss_and_grad_wrt_pred(
    pred: np.ndarray, mos: np.ndarray, lambda_rank: float
) -> tuple[float, np.ndarray]:
    """Degenerate-tolerant loss + d(loss)/d(pred) used inside training."""
    plcc_term, rank_term, grad = _loss_terms(pred, mos, lambda_rank)
    return plcc_term + lambda_rank * rank_term, grad


def _loss_terms(
    pred: np.ndarray, mos: np.ndarray, lambda_rank: float
) -> tuple[float, float, np.ndarray]:
    """The PLCC term, the rank term and d(PLCC + lambda_rank * rank)/d(pred).

    Constant targets zero the correlation term's gradient; a constant
    prediction contributes PLCC term 0.5 with zero gradient (the limit is
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
    return plcc_term, rank_term, grad


def backward(
    params: ModelParams,
    x: np.ndarray,
    mos: np.ndarray,
    lambda_rank: float = 0.3,
    out: np.ndarray | None = None,
) -> tuple[float, ModelParams]:
    """Total loss of one batch and its analytic gradients.

    The gradients are written into ``out``, a flat vector in checkpoint
    order (a new one when None), and returned as views into it named like
    the parameters.
    """
    x = _as_matrix(params, x)
    mos = np.asarray(mos, dtype=np.float64).ravel()
    if len(mos) != x.shape[0]:
        raise DimensionMismatch("batch feature/score count mismatch")
    if len(mos) < 2:
        raise DimensionMismatch("a batch needs at least 2 samples")
    pred, h, u, z = _forward(params, x)
    loss, dpred = _loss_and_grad_wrt_pred(pred, mos, lambda_rank)
    if out is None:
        out = np.empty(params.w1.size + 2 * len(params.b1) + 1)
    g = _on_flat(params, out)
    np.matmul(h.T, dpred, out=g.w2)
    g.b2[...] = dpred.sum()
    du = np.outer(dpred, params.w2)
    du *= u > 0
    np.matmul(du.T, z, out=g.w1)
    du.sum(axis=0, out=g.b1)
    return loss, g


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
    if not xs:
        raise InsufficientData("the dataset is empty")
    return np.stack(xs), np.array(ys)


def _cosine_factor(step: int, total: int) -> float:
    return 0.5 * (1.0 + np.cos(np.pi * step / max(total, 1)))


def train(
    dataset,
    cfg: TrainConfig,
    val_dataset=None,
) -> tuple[ModelParams, list[EpochLog]]:
    """Adam (b1=0.9, b2=0.999, eps=1e-8) with per-epoch seeded shuffling.

    The parameters, their gradient and the two Adam moments are flat
    vectors, and each step updates them with in-place ufuncs in the
    elementwise order of the textbook update, so results are bit-identical
    to updating each parameter array on its own.  Returns the parameters
    with the best validation SROCC when a validation set is given,
    otherwise the final parameters.  Raises ``DegenerateInput`` when an
    epoch ends with a non-finite loss or weight (the step size or the rank
    weight is too large).
    """
    from .evaluation import srocc  # resolved per call, so a wrapped srocc is the one used

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
    theta = _flat(params)
    params = _on_flat(params, theta)

    xv = yv = None
    if val_dataset is not None:
        xv, yv = _stack_dataset(val_dataset)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    grad, m, v, upd, tmp = (np.zeros_like(theta) for _ in range(5))

    steps_per_epoch = len(x) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    logs: list[EpochLog] = []
    best = theta.copy()
    best_srocc = -np.inf
    step = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(x))
        losses = []
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps_per_epoch):
                idx = order[k * cfg.batch_size : (k + 1) * cfg.batch_size]
                loss, _ = backward(params, x[idx], y[idx], cfg.lambda_rank, out=grad)
                losses.append(loss)
                lr = cfg.lr_head
                if cfg.schedule == "cosine":
                    lr *= _cosine_factor(step, total_steps)
                step += 1
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
                m *= beta1
                m += np.multiply(grad, 1 - beta1, out=tmp)
                v *= beta2
                np.multiply(grad, 1 - beta2, out=tmp)
                v += np.multiply(tmp, grad, out=tmp)
                # theta -= lr (m / c1) / (sqrt(v / c2) + eps)
                np.divide(m, 1 - beta1**step, out=upd)
                upd *= lr
                np.sqrt(np.divide(v, 1 - beta2**step, out=tmp), out=tmp)
                tmp += eps
                upd /= tmp
                theta -= upd
            epoch_loss = float(np.mean(losses))
        if not (np.isfinite(epoch_loss) and np.isfinite(theta).all()):
            raise DegenerateInput(
                f"training diverged in epoch {epoch} (non-finite loss or weights) "
                f"with lr_head {cfg.lr_head:g} and lambda {cfg.lambda_rank:g}"
            )

        val_s = None
        if xv is not None:
            pv, _, _, _ = _forward(params, xv)
            val_s = float(srocc(pv, yv))
            if val_s > best_srocc:
                best_srocc = val_s
                best = theta.copy()
        logs.append(EpochLog(epoch=epoch, loss=epoch_loss, val_srocc=val_s))

    final = best if xv is not None else theta
    return replace(_on_flat(params, final), b2=float(final[-1])), logs


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
    payload = asdict(cfg) if isinstance(cfg, TrainConfig) else cfg
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
    save_f32(path, header, _flat(params))


def load_checkpoint(path: str | Path) -> ModelParams:
    header, data = load_f32_header(path, "checkpoint")
    if header.get("format") != _CKPT_FORMAT:
        raise ParseError(f"unknown checkpoint format {header.get('format')!r}")
    try:
        d = int(header["input_dim"])
        hid = int(header["hidden"])
        norm_mean = np.array(header["norm_mean"], dtype=np.float64)
        norm_std = np.array(header["norm_std"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad checkpoint header: {exc}") from exc
    if d < 1 or hid < 1:
        raise ParseError(f"bad checkpoint dims: input_dim {d}, hidden {hid}")
    if norm_mean.shape != (d,) or norm_std.shape != (d,):
        raise ParseError(
            f"checkpoint norm stats have shapes {norm_mean.shape} and "
            f"{norm_std.shape}, input_dim is {d}"
        )
    need = hid * d + hid + hid + 1
    have = len(data) // 4
    if have < need:
        raise TruncatedError(f"checkpoint weights truncated: {have} of {need} values")
    blob = np.frombuffer(data, "<f4", need).astype(np.float64)
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
