"""Command-line entry point.

Subcommands: score, trajectory, train, eval, mos, synth.  Every command is
deterministic for a fixed config and seed; report floats are serialized with
6 significant digits so reruns are byte-identical.  Each setting is read
from its flag, else its ``--config`` key, else its default, and never from
the environment.  The exit codes are listed in ``stabilitykit.errors``.
``score`` takes its clip settings (n, tau, grid, tau_b) from the checkpoint,
where ``train`` wrote them.

Importing this module loads numpy, ``scipy.ndimage`` and every module the
video path runs, but not ``scipy.optimize``: only ``eval``, and ``train``
when it holds rows out for validation, load that least-squares solver, at
their first logistic fit (``evaluation.logistic_fit``).  ``score``,
``trajectory``, ``mos`` and ``synth`` processes never load it.

``train`` extracts its feature rows, ``trajectory`` and ``score`` map
their trajectory runs, and ``score`` its distinct clips, with one helper
(``fork_map``) on up to one worker process per CPU that this process may use
(its affinity mask).  The workers are forked, so they start with these
modules, the decoded video and the mapped function loaded, and only item
indices and results cross between processes; on one CPU, or where ``fork``
is missing, the items run in-process.  Each worker holds its own item's
work: one decoded video in ``train``, one run's pyramid or one clip's
features in ``score`` and ``trajectory``, so the memory peak over all
processes grows with the CPU count.  Results and errors come back in item
order, so a failing run reports the first failing item's error.  Only that
helper loads ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import features as feat
from . import model as model_mod
from . import mos as mos_mod
from . import synth as synth_mod
from .classic import itf, stability_score
from .errors import ConfigError, DimensionMismatch, EmptyInput, ParseError, StabilityKitError
from .evaluation import evaluate
from .media import clip_span, csv_rows, load_frame_dir, load_y4m, sample_clip
from .motion import save_trajectory_csv, video_trajectory


def _roundtrip(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _roundtrip(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_roundtrip(v) for v in obj]
    return obj


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(_roundtrip(obj), sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="ascii")


def _settings(args, table: dict) -> dict:
    """Each setting of ``table`` ({key: default}): its flag when given, else
    its ``--config`` value, else its default.  A config value must have the
    default's JSON type (an int is also a float, a float is finite, and a
    list holds numbers), and a float setting comes back as a float."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(cfg) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in table.items():
        kind = type(default)
        flag = getattr(args, key, None)
        if flag is not None:
            val = flag
        elif key in cfg:
            val = cfg[key]
            if not _same_type(val, kind):
                raise ConfigError(f"config key {key!r} must be of type {kind.__name__}, got {val!r}")
        else:
            val = default
        if key == "seed" and val < 0:  # numpy seeds are non-negative
            raise ConfigError(f"seed must be non-negative, got {val}")
        out[key] = float(val) if kind is float else val
    return out


def _same_type(val, kind: type) -> bool:
    if isinstance(val, bool) or kind is bool:
        return type(val) is kind
    if kind is float:
        return isinstance(val, (int, float)) and abs(val) <= sys.float_info.max  # float(val) is finite
    if kind is list:
        return isinstance(val, list) and all(_same_type(v, float) for v in val)
    return isinstance(val, kind)


def _load_video(path: str):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such input: {path}")
    return load_frame_dir(p) if p.is_dir() else load_y4m(p)


_JOB = None  # in a fork_map worker: the (fn, items) it maps


def _set_job(fn, items) -> None:
    global _JOB
    _JOB = fn, items


def _run_item(index: int):
    fn, items = _JOB
    return fn(*items[index])


def fork_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` on up to one forked worker per CPU of
    this process's affinity mask.  The workers inherit ``fn`` and the items
    through the fork and receive only item indices, so no array they hold is
    pickled; only the results are.  Results come back in item order, and the
    first item's error in that order is raised, as ``map`` would raise it.  A
    worker that ends without a result is a ``StabilityKitError`` naming the
    first item left without one.  On one CPU, or where ``fork`` is missing,
    the items run in-process."""
    items = list(zip(*iterables))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(items), cpus)
    if workers > 1:
        import multiprocessing  # here only: nothing else loads it
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [fn(*item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, so the workers start with numpy, scipy and the job loaded (the
    # initializer's arguments are inherited, not pickled); the executor forks
    # them all at its first submit, before it starts its own thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_job, initargs=(fn, items))
    out = []
    try:
        # results in item order; the first error cancels the rest
        for result in pool.map(_run_item, range(len(items)), chunksize=1):
            out.append(result)
    except BrokenProcessPool:
        args = ", ".join(map(str, items[len(out)]))
        raise StabilityKitError(f"a worker process ended abruptly: item {len(out)} ({args}) and "
                                "the items after it have no result") from None
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def _feature_row(path, spec: feat.ClipSpec, seed: int, index: int) -> np.ndarray:
    """The clip features of manifest row ``index``: its clip seed is spawned
    from the index alone, so rows can be extracted in any order.  A toolkit
    error is re-raised, type and attributes unchanged, with ``path``
    prefixed to its message."""
    try:
        seq = _load_video(str(path))
        clip_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])
        clip = sample_clip(seq, n=spec.n, tau=spec.tau, seed=clip_seed)
        return feat.clip_features(clip, spec)
    except StabilityKitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


_CLIP_DEFAULTS = asdict(feat.ClipSpec())  # n, tau, grid, tau_b
_HEAD = model_mod.TrainConfig()

# Each command's settings and their defaults, in the order they are checked.
# Every key is a --config key; the ones with a flag are named alike.
SETTINGS = {
    "score": {"seed": 0, "model": "", "n_clips": 4},
    "trajectory": {"seed": 0, "model_kind": "similarity"},
    "train": {"seed": 0, **_CLIP_DEFAULTS, "lambda": _HEAD.lambda_rank, "epochs": _HEAD.epochs,
              "batch_size": _HEAD.batch_size, "lr_head": _HEAD.lr_head, "val_frac": 0.2},
    "mos": {"outlier_sigma": 2.0, "max_outlier_frac": 0.05},
    "synth": {"seed": 0, "ladder": list(synth_mod.DEFAULT_LADDER), "videos_per_level": 2,
              "length": 72, "width": 128, "height": 96, "fps": 30.0},
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_score(args) -> int:
    s = _settings(args, SETTINGS["score"])
    if s["n_clips"] < 1:
        raise ConfigError(f"n_clips must be a positive integer, got {s['n_clips']!r}")
    if s["n_clips"] > model_mod.MAX_N_CLIPS:  # its draws are allocated at once
        raise ConfigError(f"n_clips must be at most {model_mod.MAX_N_CLIPS}, got {s['n_clips']!r}")
    params = model_mod.load_checkpoint(s["model"]) if s["model"] else None
    if params is not None and params.spec.dim != params.input_dim:  # before the video is decoded
        raise DimensionMismatch(f"the checkpoint's clip spec {params.spec} gives {params.spec.dim} "
                                f"features, the model takes {params.input_dim}")
    seq = _load_video(args.video)
    if params is not None:  # the clip span, before ITF and the trajectory
        clip_span(params.spec.n, params.spec.tau, len(seq))
    itf_res = itf(seq)
    traj, _ = video_trajectory(seq, "similarity", s["seed"], map_fn=fork_map)
    stab = stability_score(traj)
    report = {
        "itf_db": itf_res.score_db,
        "stability": dict(stab.component_scores, score=stab.score),
    }
    if params is not None:
        report["prediction"] = model_mod.predict_video(params, seq, n_clips=s["n_clips"], seed=s["seed"],
                                                       map_fn=fork_map)
    _emit(report, args.out)
    return 0


def cmd_trajectory(args) -> int:
    s = _settings(args, SETTINGS["trajectory"])
    seq = _load_video(args.video)
    traj, _ = video_trajectory(seq, s["model_kind"], s["seed"], map_fn=fork_map)
    save_trajectory_csv(traj, args.out)
    _emit({"frames": traj.length, "out": str(args.out)}, None)
    return 0


def cmd_train(args) -> int:
    s = _settings(args, SETTINGS["train"])
    seed, val_frac = s["seed"], s["val_frac"]
    spec = feat.ClipSpec(**{k: s[k] for k in _CLIP_DEFAULTS})
    if not 0.0 <= val_frac < 1.0:
        raise ConfigError(f"val_frac must be in [0, 1), got {val_frac!r}")
    tc = model_mod.TrainConfig(lambda_rank=s["lambda"], epochs=s["epochs"],
                               batch_size=s["batch_size"], lr_head=s["lr_head"], seed=seed)
    rows = synth_mod.load_manifest(args.manifest)
    if not rows:
        raise EmptyInput("manifest has no rows")

    videos = [path for _, path, _ in rows]
    cache_path = Path(args.cache) if args.cache else None
    if cache_path and cache_path.is_file():
        matrix = feat.load_feature_cache(cache_path, spec, seed, len(rows), videos)
    else:
        vecs = fork_map(lambda path, index: _feature_row(path, spec, seed, index),
                        videos, range(len(videos)))
        # train on the f32-rounded values the cache holds
        matrix = np.stack(vecs).astype("<f4").astype(np.float64)
        if cache_path:
            feat.save_feature_cache(cache_path, matrix, spec, seed, videos)

    y = np.array([score for _, _, score in rows])
    # held-out rows are only scored: the head trains to its last epoch, and
    # fewer rows than evaluate needs (5) are not held out at all
    perm = np.random.default_rng(seed).permutation(len(rows))
    n_val = int(round(val_frac * len(rows)))
    if n_val < 5:
        n_val = 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    val = (matrix[val_idx], y[val_idx]) if n_val else None

    params, logs = model_mod.train(matrix[train_idx], y[train_idx], tc, val)
    model_mod.save_checkpoint(replace(params, spec=spec), args.out, tc)
    if args.log:
        model_mod.save_training_log(logs, args.log)

    report: dict = {"checkpoint": str(args.out), "epochs": len(logs)}
    if n_val:
        # the saved head's figures: the checkpoint holds f32-rounded weights
        pv, _, _, _ = model_mod._forward(model_mod.load_checkpoint(args.out), matrix[val_idx])
        # n: the held-out rows these figures rest on, as few as 5
        report["validation"] = dict(evaluate(pv, y[val_idx]).as_dict(), n=n_val)
    else:
        report["final_loss"] = logs[-1].loss
    _emit(report, None)
    return 0


def _read_column(path: str, column: int = 0) -> list[float]:
    vals, first = [], True
    for line, parts in csv_rows(path, "utf-8"):
        if not parts:
            continue
        try:
            vals.append(float(parts[column]))
        except (IndexError, ValueError):
            if not first:  # only the first non-empty row may be a header
                raise ParseError(f"{path}:{line}: cannot read column {column}")
        first = False
    return vals


def cmd_eval(args) -> int:
    pred = _read_column(args.pred_csv, 0)
    mos = _read_column(args.mos_csv, 0) if args.mos_csv else _read_column(args.pred_csv, 1)
    if len(pred) != len(mos):
        raise DimensionMismatch(f"pred has {len(pred)} rows, mos has {len(mos)}")
    _emit(evaluate(np.array(pred), np.array(mos)).as_dict(), args.out)
    return 0


def cmd_mos(args) -> int:
    s = _settings(args, SETTINGS["mos"])
    mos_mod.check_settings(**s)  # before the ratings are read
    table = mos_mod.RatingsTable.from_csv(args.ratings)
    result = mos_mod.reject_outlier_subjects(table, **s)
    mos_mod.write_mos_csv(result, args.out)
    _emit(
        {
            "videos": len(result.videos),
            "rejected_subjects": sorted(result.rejected_subjects),
            "out": str(args.out),
        },
        None,
    )
    return 0


def cmd_synth(args) -> int:
    s = _settings(args, SETTINGS["synth"])
    count = s["videos_per_level"] * len(s["ladder"])
    videos = synth_mod.iter_dataset(count, amplitude_ladder=s["ladder"], seed=s["seed"],
                                    length=s["length"], frame_size=(s["width"], s["height"]),
                                    fps=s["fps"])
    manifest = synth_mod.write_dataset(videos, args.out)
    _emit({"manifest": str(manifest), "count": count}, None)
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabilitykit",
        description="No-reference video stability assessment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def settings(p, command):
        keys = ", ".join(SETTINGS[command])
        p.add_argument("--config", help=f"JSON config file with keys {keys}; flags override its values")
        if "seed" in SETTINGS[command]:
            p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    def command(name, help, **kwargs):
        # no abbreviations: a removed or mistyped flag must not pass as
        # another (score --n as --n-clips, trajectory --model as --model-kind)
        return sub.add_parser(name, help=help, allow_abbrev=False, **kwargs)

    p = command("score", "ITF, Stability Score, and optional model prediction", description=(
        "ITF, Stability Score, and optional model prediction.  The trajectory's runs of frame "
        "pairs, and then the model's distinct clips, are mapped on up to one worker process per "
        "available CPU.  Each worker holds one run's pyramid or one clip's features at a time, so "
        "the memory peak grows with the CPU count."))
    p.add_argument("video", help="Y4M file or PPM/PGM directory")
    p.add_argument("--model", help="model checkpoint for the learned score; it holds the clip settings")
    p.add_argument("--n-clips", dest="n_clips", type=int)
    p.add_argument("--out", help="also write the JSON report here")
    settings(p, "score")
    p.set_defaults(func=cmd_score)

    p = command("trajectory", "estimate and export the camera path CSV", description=(
        "Estimate and export the camera path CSV.  The trajectory's runs of frame pairs are "
        "mapped on up to one worker process per available CPU.  Each worker holds one run's "
        "pyramid at a time, so the memory peak grows with the CPU count."))
    p.add_argument("video")
    p.add_argument("out", help="output CSV (frame,x,y,theta)")
    p.add_argument("--model-kind", choices=["translation", "similarity", "homography"])
    settings(p, "trajectory")
    p.set_defaults(func=cmd_trajectory)

    p = command("train", "train the regression head on a manifest", description=(
        "Train the regression head on a manifest.  The videos' feature rows are extracted on up "
        "to one worker process per available CPU.  Each worker holds one decoded video at a "
        "time, so the extraction's memory peak grows with the CPU count."))
    p.add_argument("manifest", help="CSV: video_id,path,gt_score")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="per-epoch CSV log")
    p.add_argument("--cache", help="feature cache file, reused when present; its header must "
                   "match n, tau, grid, tau_b, the seed and the manifest's videos")
    for name in _CLIP_DEFAULTS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = command("eval", "SROCC/PLCC/KRCC/RMSE for prediction CSVs")
    p.add_argument("pred_csv", help="two-column pred,mos CSV (or predictions only)")
    p.add_argument("mos_csv", nargs="?", help="optional separate MOS CSV")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = command("mos", "MOS aggregation with outlier-subject rejection")
    p.add_argument("ratings", help="CSV: subject_id,video_id,score[,session]")
    p.add_argument("--out", required=True, help="MOS CSV output path")
    settings(p, "mos")
    p.set_defaults(func=cmd_mos)

    p = command("synth", "generate a labeled synthetic shaky-video dataset")
    p.add_argument("--out", required=True, help="output directory")
    settings(p, "synth")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StabilityKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", StabilityKitError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
