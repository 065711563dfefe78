"""Subjective-study aggregation and quality control.

Ratings live in a subjects x videos matrix with NaN for missing entries;
a subject's first rating of a video enters it, and a repeated presentation
(a later row, whatever its optional ``session`` column) is dropped.
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

from .errors import ConfigError, EmptyAfterCleaning, EmptyInput, InsufficientRatings, ParseError
from .media import csv_rows


@dataclass
class RatingsTable:
    subjects: list[str]
    videos: list[str]
    scores: np.ndarray  # (S, V) float with NaN for missing

    @classmethod
    def from_records(cls, records) -> "RatingsTable":
        """records: iterable of (subject, video, score) or (..., session).

        The first rating per (subject, video) enters the matrix; later ones
        (repeated-video presentations) are dropped.
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
        return cls(subjects=subjects, videos=videos, scores=scores)

    @classmethod
    def from_csv(cls, path: str | Path) -> "RatingsTable":
        """CSV columns: subject_id,video_id,score[,session]; the first
        non-empty row may be a header.  A bad row or a score outside
        [0, 100] (or NaN) raises ParseError naming ``path:line``."""
        rows, first = [], True
        for line, row in csv_rows(path, "utf-8"):
            if not row:
                continue
            try:
                val = float(row[2])
            except (IndexError, ValueError):
                if not first:
                    raise ParseError(f"{path}:{line}: bad ratings row: {row}") from None
            else:
                if not 0.0 <= val <= 100.0:
                    raise ParseError(f"{path}:{line}: rating {val} outside [0, 100]")
                rows.append(tuple(row[:4]))
            first = False
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


def check_settings(outlier_sigma: float, max_outlier_frac: float) -> None:
    """ConfigError unless ``outlier_sigma`` > 0 and ``max_outlier_frac`` is
    in [0, 1]: a sigma of 0 or less flags every rating that is off its mean,
    and a share above 1 rejects no one."""
    if not outlier_sigma > 0:
        raise ConfigError(f"outlier_sigma must be positive, got {outlier_sigma!r}")
    if not 0 <= max_outlier_frac <= 1:
        raise ConfigError(f"max_outlier_frac must be in [0, 1], got {max_outlier_frac!r}")


def reject_outlier_subjects(
    table: RatingsTable,
    outlier_sigma: float = 2.0,
    max_outlier_frac: float = 0.05,
) -> MosResult:
    """Single-pass cleaning: flag ratings beyond ``outlier_sigma`` population
    stds of the per-video mean, reject subjects whose outlier share (over
    the videos that subject rated) strictly exceeds ``max_outlier_frac``,
    then recompute MOS without them.  The settings are checked first
    (``check_settings``)."""
    check_settings(outlier_sigma, max_outlier_frac)
    scores = table.scores
    means, stds, _ = _column_stats(scores)
    present = ~np.isnan(scores)
    dev = np.abs(np.where(present, scores, means[None, :]) - means[None, :])
    outliers = present & (dev > outlier_sigma * stds[None, :])
    frac = outliers.sum(axis=1) / np.maximum(present.sum(axis=1), 1)
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
