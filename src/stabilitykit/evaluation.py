"""Model evaluation protocol: SROCC, KRCC, RMSE, and PLCC computed after a
four-parameter logistic remapping of the predictions onto the score scale.

``evaluate(pred, mos)`` takes predictions first; rank metrics are computed
on the raw predictions, PLCC and RMSE on the remapped ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import DegenerateInput, DimensionMismatch, InsufficientData


@dataclass
class MetricReport:
    srocc: float
    plcc: float
    krcc: float
    rmse: float
    logistic_beta: np.ndarray

    def as_dict(self) -> dict:
        return {
            "srocc": self.srocc,
            "plcc": self.plcc,
            "krcc": self.krcc,
            "rmse": self.rmse,
            "logistic_beta": [float(b) for b in self.logistic_beta],
        }


def _pair(a, b, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < min_len:
        raise DimensionMismatch(f"need at least {min_len} samples, have {len(a)}")
    return a, b


def pearson(a, b) -> float:
    a, b = _pair(a, b, 2)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom <= 0:
        raise DegenerateInput("constant vector: correlation undefined")
    return float(ac @ bc) / denom


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def srocc(a, b) -> float:
    """Spearman rank-order correlation with average-rank tie handling."""
    a, b = _pair(a, b, 3)
    return pearson(average_ranks(a), average_ranks(b))


def krcc(a, b) -> float:
    """Kendall tau-b (tie-corrected), via full pair enumeration."""
    a, b = _pair(a, b, 3)
    sa = np.sign(a[:, None] - a[None, :])
    sb = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(len(a), k=1)
    prod = sa[iu] * sb[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    n0 = len(a) * (len(a) - 1) // 2
    ties_a = int(np.sum(sa[iu] == 0))
    ties_b = int(np.sum(sb[iu] == 0))
    denom = np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))
    if denom <= 0:
        raise DegenerateInput("all values tied: tau undefined")
    return (concordant - discordant) / denom


def rmse(a, b) -> float:
    a, b = _pair(a, b, 1)
    return float(np.sqrt(np.mean((a - b) ** 2)))


# ---------------------------------------------------------------------------
# Four-parameter logistic mapping (VQEG-style)
# ---------------------------------------------------------------------------


def logistic_4pl(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """f(x) = (b1 - b2) * sigmoid((x - b3) / b4) + b2."""
    b1, b2, b3, b4 = beta
    return (b1 - b2) * expit((np.asarray(x, dtype=np.float64) - b3) / b4) + b2


def logistic_fit(pred, mos) -> tuple[np.ndarray, np.ndarray]:
    """Fit the 4-parameter logistic by Nelder-Mead SSE minimization.

    Deterministic init: b1=max(mos), b2=min(mos), b3=median(pred),
    b4=std(pred)/4 (floored at 1e-6).  The simplex runs to diameter 1e-8 or
    2000 iterations; a second warm-started pass polishes stalled fits.  If
    the fitted mapping is constant, the fit is rerun once from the mirrored
    init (b1=min(mos), b2=max(mos)) and kept when its mapping is not.
    """
    pred, mos = _pair(pred, mos, 5)
    if float(np.ptp(pred)) <= 0:
        raise DegenerateInput("constant predictions cannot be mapped")

    def sse(beta):
        d = logistic_4pl(pred, beta) - mos
        return float(d @ d)

    def fit(b1, b2):
        beta = np.array([b1, b2, float(np.median(pred)), max(pred.std() / 4.0, 1e-6)])
        for _ in range(2):
            res = minimize(
                sse,
                beta,
                method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000},
            )
            beta = res.x
        return beta, logistic_4pl(pred, beta)

    beta, mapped = fit(mos.max(), mos.min())
    if np.ptp(mapped) == 0:
        # Predictions anti-correlated with MOS can walk the increasing init
        # onto a saturated plateau; the decreasing init reaches the slope.
        mirrored, remapped = fit(mos.min(), mos.max())
        if np.ptp(remapped) > 0:
            beta, mapped = mirrored, remapped
    return beta, mapped


def evaluate(pred, mos) -> MetricReport:
    """Rank metrics on raw predictions; PLCC/RMSE after logistic mapping."""
    pred, mos = _pair(pred, mos, 1)
    if len(pred) < 5:
        raise InsufficientData("evaluation needs at least 5 samples")
    beta, mapped = logistic_fit(pred, mos)
    return MetricReport(
        srocc=srocc(pred, mos),
        plcc=pearson(mapped, mos),
        krcc=krcc(pred, mos),
        rmse=rmse(mapped, mos),
        logistic_beta=beta,
    )
