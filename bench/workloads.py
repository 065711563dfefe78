"""The four workloads: their seeded inputs, request lists and figures.

Each workload is one fixed input set made from the run seed.  ``requests(k)``
gives the argv list of pass ``k``; a pass that writes files (the train
checkpoint and feature cache) gets fresh paths, so every pass does the same
work.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import gen

VIDEO_640 = (640, 360)
VIDEO_128 = (128, 96)
# Shake amplitudes are fixed per workload; the seed draws the path shape,
# texture and colours.  Run time depends on the amplitude through LK.
SCORE_AMPLITUDE = 2.5  # px
TRAIN_VIDEOS = 24  # the CLI reports validation only when 20% of rows is >= 5
TRAIN_LADDER = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)  # px of shake amplitude
CACHE_ROWS = 2000
EVAL_ROWS = 4000  # dense KRCC is O(n^2) in memory: keep n small
EVAL_REQUESTS = 12  # Nelder-Mead stalls on some inputs: average over many
TRAJ_AMPLITUDES = (1.5, 3.5)  # px; one video each

# Workload-specific end-to-end figures; 0 where a figure does not apply.
DETAIL_METRICS = (
    "frames_per_s",
    "train_s",
    "eval_p50_s",
    "fail_frac",
    "stab_err",
    "traj_err_px",
    "val_srocc",
    "val_plcc",
)


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[dict], dict]
    frames: int = 0


def prepare(name: str, seed: int, work: Path,
            load_checkpoint) -> Callable[[int], list[Request]]:
    """Write the workload's inputs under ``work``; return the function that
    gives the request list of pass k."""
    return _PREPARE[name](seed, work, load_checkpoint)


def _score_640(seed, work, load_checkpoint):
    ckpt = work / "model.ckpt"
    gen.write_checkpoint(ckpt)
    video = work / "video.y4m"
    truth = gen.make_video(video, seed, (1, 0), SCORE_AMPLITUDE, VIDEO_640)
    check = partial(checks.check_score, truth_score=gen.stability_score(truth))
    argv = ["score", str(video), "--model", str(ckpt)]
    return lambda k: [Request("score", argv, check, gen.LENGTH)]


def _train_128(seed, work, load_checkpoint):
    rows = []
    for i in range(TRAIN_VIDEOS):
        size, amp = VIDEO_128, TRAIN_LADDER[i % len(TRAIN_LADDER)]
        truth = gen.make_video(work / f"t{i:02d}.y4m", seed, (2, i), amp, size)
        rows.append((f"t{i:02d}", f"t{i:02d}.y4m", gen.shake_label(truth, size)))
    manifest = work / "train.csv"
    gen.write_manifest(manifest, rows)

    def requests(k):
        cache, ckpt = work / f"cache-{k}.bin", work / f"train-{k}.ckpt"
        cache.unlink(missing_ok=True)  # the pass must extract and write it
        check = partial(checks.check_train, ckpt=ckpt, load_checkpoint=load_checkpoint,
                        input_dim=gen.FEATURE_DIM)
        argv = ["train", str(manifest), "--cache", str(cache), "--out", str(ckpt)]
        return [Request("train", argv, check)]

    return requests


def _fit_eval_4k(seed, work, load_checkpoint):
    cache, manifest = work / "warm.cache", work / "warm.csv"
    gen.write_feature_cache(cache, manifest, seed, CACHE_ROWS)
    pairs = []
    for i in range(EVAL_REQUESTS):
        pred, mos = work / f"pred{i}.csv", work / f"mos{i}.csv"
        gen.write_eval_pair(pred, mos, seed, i, EVAL_ROWS)
        pairs.append((pred, mos))

    def requests(k):
        ckpt = work / f"fit-{k}.ckpt"
        check = partial(checks.check_train, ckpt=ckpt, load_checkpoint=load_checkpoint,
                        input_dim=gen.FEATURE_DIM, min_srocc=checks.MIN_CACHE_VAL_SROCC)
        out = [Request("train", ["train", str(manifest), "--cache", str(cache),
                                 "--out", str(ckpt)], check)]
        for pred, mos in pairs:
            check = partial(checks.check_eval, pred_csv=pred, mos_csv=mos)
            out.append(Request("eval", ["eval", str(pred), str(mos)], check))
        return out

    return requests


def _traj_homog_128(seed, work, load_checkpoint):
    reqs = []
    for i in range(len(TRAJ_AMPLITUDES)):
        video, csv = work / f"h{i}.y4m", work / f"h{i}.csv"
        truth = gen.make_video(video, seed, (6, i), TRAJ_AMPLITUDES[i], VIDEO_128)
        check = partial(checks.check_trajectory, csv_path=csv, truth=truth)
        argv = ["trajectory", str(video), str(csv), "--model-kind", "homography"]
        reqs.append(Request("trajectory", argv, check, gen.LENGTH))
    return lambda k: list(reqs)


_PREPARE = {
    "score-640": _score_640,
    "train-128": _train_128,
    "fit-eval-4k": _fit_eval_4k,
    "traj-homog-128": _traj_homog_128,
}


@dataclass
class Pass:
    """One pass over the request list: (request, result) pairs and the
    host-speed factor measured while it ran (refclock.py)."""

    pairs: list[tuple[Request, checks.RequestResult]]
    factor: float

    @property
    def ref_s(self) -> float:
        return sum(res.seconds for _, res in self.pairs) * self.factor

    def ref_times(self, kind: str) -> list[float]:
        return [res.seconds * self.factor for req, res in self.pairs if req.kind == kind]


def detail(passes: list[Pass], results: list[checks.RequestResult]) -> dict:
    """The workload-specific figures of DETAIL_METRICS.  Times are at the
    reference speed and come from the untraced ``passes``; failures and
    accuracy come from every request in ``results``."""

    def times(kind):
        return [t for p in passes for t in p.ref_times(kind)]

    def median(vals):
        return statistics.median(vals) if vals else 0.0

    frames = sum(req.frames for p in passes for req, _ in p.pairs)
    video_s = sum(times("score") + times("trajectory"))
    facts = [r.facts for r in results if r.ok]

    def fact(key, agg):
        vals = [f[key] for f in facts if key in f]
        return agg(vals) if vals else 0.0

    return {
        "frames_per_s": frames / video_s if video_s else 0.0,
        "train_s": median(times("train")),
        "eval_p50_s": median(times("eval")),
        "eval_n": len(times("eval")),
        "fail_frac": sum(not r.ok for r in results) / len(results),
        "stab_err": fact("stab_err", max),
        "traj_err_px": fact("traj_err_px", max),
        "val_srocc": fact("val_srocc", statistics.median),
        "val_plcc": fact("val_plcc", statistics.median),
        "passes": len(passes),
        "pass_wall_s": median([sum(res.seconds for _, res in p.pairs) for p in passes]),
        "speed_factor": median([p.factor for p in passes]),
    }


def environment(root: Path, src: Path, blas_threads: str, np) -> dict:
    """What each result depends on besides the code: cores, BLAS threads,
    versions, the commit when the checkout is a git tree, and the size of
    src/ in lines (information, not a gated metric)."""
    import platform

    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(blas_threads),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py"))
        ),
        "argv": sys.argv[1:],
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit; None when the checkout is not a git tree.  The
    ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
