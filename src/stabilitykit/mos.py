"""Subjective-study aggregation and quality control.

Ratings live in a subjects x videos matrix with NaN for missing entries.
Cleaning follows a single pass: a rating is an outlier when it deviates
from its video's mean by strictly more than two (population) standard
deviations, and a subject is rejected when outliers exceed 5% of the
videos that subject rated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyAfterCleaning,
    EmptyInput,
    InsufficientData,
    InsufficientRatings,
    ParseError,
)
from .evaluation import rmse as _rmse
from .evaluation import srocc as _srocc
from .media import csv_rows
from .errors import DegenerateInput, DimensionMismatch


@dataclass
class RatingsTable:
    subjects: list[str]
    videos: list[str]
    scores: np.ndarray  # (S, V) float with NaN for missing
    records: list[tuple] = field(default_factory=list)

    @classmethod
    def from_records(cls, records) -> "RatingsTable":
        """records: iterable of (subject, video, score) or (..., session).

        The first rating per (subject, video) enters the matrix; later ones
        (repeated-video presentations) stay available in ``records``.
        """
        records = [tuple(r) for r in records]
        if not records:
            raise EmptyInput("no ratings")
        subjects: list[str] = []
        videos: list[str] = []
        s_idx: dict[str, int] = {}
        v_idx: dict[str, int] = {}
        for r in records:
            s, v = str(r[0]), str(r[1])
            if s not in s_idx:
                s_idx[s] = len(subjects)
                subjects.append(s)
            if v not in v_idx:
                v_idx[v] = len(videos)
                videos.append(v)
        scores = np.full((len(subjects), len(videos)), np.nan)
        for r in records:
            s, v, val = s_idx[str(r[0])], v_idx[str(r[1])], float(r[2])
            if not 0.0 <= val <= 100.0:
                raise ParseError(f"rating {val} outside [0, 100]")
            if np.isnan(scores[s, v]):
                scores[s, v] = val
        return cls(subjects=subjects, videos=videos, scores=scores, records=records)

    @classmethod
    def from_csv(cls, path: str | Path) -> "RatingsTable":
        """CSV columns: subject_id,video_id,score[,session]; header optional."""
        rows = []
        reader = csv_rows(path, "utf-8")
        try:
            for row in reader:
                if not row:
                    continue
                try:
                    float(row[2])
                except (IndexError, ValueError):
                    if rows:
                        raise ParseError(f"bad ratings row: {row}")
                    continue  # header line
                rows.append(tuple(row[:4]))
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
        return cls.from_records(rows)


@dataclass
class MosResult:
    videos: list[str]
    mos: np.ndarray
    std: np.ndarray
    n: np.ndarray
    rejected_subjects: list[str] = field(default_factory=list)


def _column_stats(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    present = ~np.isnan(scores)
    counts = present.sum(axis=0)
    filled = np.where(present, scores, 0.0)
    safe = np.maximum(counts, 1)
    means = filled.sum(axis=0) / safe
    var = (np.where(present, (scores - means) ** 2, 0.0)).sum(axis=0) / safe
    return means, np.sqrt(var), counts


def compute_mos(table: RatingsTable) -> MosResult:
    """Per-video mean and population std over the present ratings."""
    means, stds, counts = _column_stats(table.scores)
    lacking = np.nonzero(counts < 2)[0]
    if len(lacking):
        raise InsufficientRatings(
            f"video {table.videos[lacking[0]]!r} has {counts[lacking[0]]} rating(s), need 2"
        )
    return MosResult(videos=list(table.videos), mos=means, std=stds, n=counts)


def reject_outlier_subjects(
    table: RatingsTable,
    outlier_sigma: float = 2.0,
    max_outlier_frac: float = 0.05,
    denominator: str = "rated",
) -> MosResult:
    """Single-pass cleaning: flag ratings beyond ``outlier_sigma`` population
    stds of the per-video mean, reject subjects whose outlier share strictly
    exceeds ``max_outlier_frac``, then recompute MOS without them.

    ``denominator`` chooses whether the share is over videos the subject
    rated (default) or over all videos in the table ("all").
    """
    scores = table.scores
    means, stds, _ = _column_stats(scores)
    present = ~np.isnan(scores)
    dev = np.abs(np.where(present, scores, means[None, :]) - means[None, :])
    outliers = present & (dev > outlier_sigma * stds[None, :])
    if denominator == "rated":
        denom = np.maximum(present.sum(axis=1), 1)
    elif denominator == "all":
        denom = np.full(len(table.subjects), len(table.videos))
    else:
        raise ConfigError("denominator must be 'rated' or 'all'")
    frac = outliers.sum(axis=1) / denom
    rejected_mask = frac > max_outlier_frac
    rated_any = present.any(axis=1)
    if np.all(rejected_mask[rated_any]):
        raise EmptyAfterCleaning("every subject was rejected")
    kept = scores[~rejected_mask]
    cleaned = RatingsTable(
        subjects=[s for s, r in zip(table.subjects, rejected_mask) if not r],
        videos=list(table.videos),
        scores=kept,
    )
    result = compute_mos(cleaned)
    result.rejected_subjects = [
        s for s, r in zip(table.subjects, rejected_mask) if r
    ]
    return result


# ---------------------------------------------------------------------------
# Per-subject reliability checks
# ---------------------------------------------------------------------------

GOLDEN_SROCC_THRESHOLD = 0.6


@dataclass
class GoldenCheckResult:
    srocc: float
    flagged: bool
    threshold: float = GOLDEN_SROCC_THRESHOLD


def golden_check(
    subject_ratings,
    golden_mos,
    threshold: float = GOLDEN_SROCC_THRESHOLD,
) -> GoldenCheckResult:
    """Rank agreement between one subject and the golden-video consensus."""
    value = _srocc(subject_ratings, golden_mos)
    return GoldenCheckResult(srocc=value, flagged=value < threshold, threshold=threshold)


def repeated_check(first, second) -> float:
    """RMSE between a subject's two ratings of the repeated videos."""
    first = np.asarray(first, dtype=np.float64).ravel()
    second = np.asarray(second, dtype=np.float64).ravel()
    if first.shape != second.shape or len(first) < 2:
        raise DimensionMismatch("repeated check needs two equal vectors of length >= 2")
    return _rmse(first, second)


def split_half(table: RatingsTable, n: int, repeats: int, seed: int) -> float:
    """Mean SROCC between MOS vectors of two disjoint random n-subject groups
    over their commonly rated videos, averaged over ``repeats`` draws."""
    if n < 1 or repeats < 1:
        raise ConfigError("n and repeats must be positive")
    n_subj = len(table.subjects)
    if n_subj < 2 * n:
        raise InsufficientData(f"need {2 * n} subjects, have {n_subj}")
    rng = np.random.default_rng(seed)
    present = ~np.isnan(table.scores)
    filled = np.where(present, table.scores, 0.0)
    values = []
    for _ in range(repeats):
        pick = rng.choice(n_subj, size=2 * n, replace=False)
        ga, gb = pick[:n], pick[n:]
        ca = present[ga].sum(axis=0)
        cb = present[gb].sum(axis=0)
        common = (ca > 0) & (cb > 0)
        if common.sum() < 3:
            continue
        ma = filled[ga].sum(axis=0)[common] / ca[common]
        mb = filled[gb].sum(axis=0)[common] / cb[common]
        try:
            values.append(_srocc(ma, mb))
        except DegenerateInput:
            continue
    if not values:
        raise InsufficientData("no split produced a defined SROCC")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_mos_csv(result: MosResult, path: str | Path) -> None:
    """video_id,mos,std,n rows sorted by video id."""
    order = np.argsort(np.array(result.videos))
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "mos", "std", "n"])
        for i in order:
            writer.writerow(
                [
                    result.videos[i],
                    f"{result.mos[i]:.6g}",
                    f"{result.std[i]:.6g}",
                    int(result.n[i]),
                ]
            )
