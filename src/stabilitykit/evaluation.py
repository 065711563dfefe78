"""Model evaluation protocol: SROCC, KRCC, RMSE, and PLCC computed after a
four-parameter logistic remapping of the predictions onto the score scale.

``evaluate(pred, mos)`` takes predictions first; rank metrics are computed
on the raw predictions, PLCC and RMSE on the remapped ones.  Every statistic
rejects NaN and infinite inputs.  The rank statistics are sort-based numpy:
O(n log n) time and O(n) memory, so they run on tens of thousands of samples.
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInput("non-finite value (NaN or inf): statistic undefined")
    return a, b


def pearson(a, b) -> float:
    a, b = _pair(a, b, 2)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom <= 0:
        raise DegenerateInput("constant vector: correlation undefined")
    return float(ac @ bc) / denom


def _run_starts(sx: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in the sorted array ``sx``."""
    starts = np.ones(len(sx), dtype=bool)
    np.not_equal(sx[1:], sx[:-1], out=starts[1:])
    return starts


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    return np.diff(np.append(np.flatnonzero(starts), len(starts)))


def _tied_pairs(run_lengths: np.ndarray) -> int:
    return int(np.sum(run_lengths * (run_lengths - 1) // 2))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions.

    One stable argsort; each run of equal sorted values, at 0-based positions
    i..j, gets the rank 0.5 * (i + j) + 1.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    counts = _run_lengths(_run_starts(x[order]))
    ends = np.cumsum(counts)  # one past each run's last position
    starts = ends - counts
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, counts)
    return ranks


def srocc(a, b) -> float:
    """Spearman rank-order correlation with average-rank tie handling."""
    a, b = _pair(a, b, 3)
    return pearson(average_ranks(a), average_ranks(b))


def _strict_inversions(r: np.ndarray, m: int) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks 0 <= r < m.

    Bottom-up merge sort over log2(n) levels.  At block width w the blocks
    are sorted; each right block counts the elements of its left neighbour
    that are greater, with one searchsorted over the ``pair_id * m + rank``
    keys of all left blocks (ascending as a whole), and one sort of the keys
    merges every pair of blocks.
    """
    n = len(r)
    pos = np.arange(n)
    r = r.astype(np.int64)
    total = 0
    w = 1
    while w < n:
        pair = pos // (2 * w)
        keys = pair * m + r
        left = (pos // w) % 2 == 0
        # a right element of pair p follows full left blocks in pairs 0..p,
        # (p + 1) * w keys; those greater than it are the ones not <= its key
        not_above = np.searchsorted(keys[left], keys[~left], side="right")
        total += int(np.sum((pair[~left] + 1) * w - not_above))
        r = np.sort(keys, kind="stable") - pair * m
        w *= 2
    return total


def krcc(a, b) -> float:
    """Kendall tau-b (tie-corrected) by Knight's O(n log n) method.

    The pairs are sorted by (a, b); the pairs tied in a, in b and in both
    are counted from run lengths, and the discordant pairs are the strict
    inversions of b in that order.  The integer counts are those of full
    pair enumeration, so the value is exact to the last bit.
    """
    a, b = _pair(a, b, 3)
    n = len(a)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    values_b, rank_b = np.unique(b, return_inverse=True)
    starts_a = _run_starts(a)
    ties_a = _tied_pairs(_run_lengths(starts_a))
    ties_ab = _tied_pairs(_run_lengths(starts_a | _run_starts(b)))
    ties_b = _tied_pairs(np.bincount(rank_b))
    discordant = _strict_inversions(rank_b, len(values_b))
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))
    if denom <= 0:
        raise DegenerateInput("all values tied: tau undefined")
    return (n0 - ties_a - ties_b + ties_ab - 2 * discordant) / denom


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
