"""Command-line entry point.

Subcommands: score, trajectory, train, eval, mos, synth.  Every command is
deterministic for a fixed config and seed; report floats are serialized with
6 significant digits so reruns are byte-identical.

Exit codes: 0 success, 2 input error, 3 missing model, 4 degenerate
content, 5 insufficient data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import features as feat
from . import model as model_mod
from . import mos as mos_mod
from . import synth as synth_mod
from .classic import itf, stability_score
from .errors import (
    ConfigError,
    DegenerateBatch,
    DegenerateInput,
    DegenerateScene,
    DimensionMismatch,
    EmptyAfterCleaning,
    EmptyInput,
    InsufficientData,
    InsufficientFrames,
    InsufficientRatings,
    MarginError,
    ParseError,
    TrackingFailure,
    UnderDetermined,
)
from .evaluation import evaluate
from .media import load_frame_dir, load_y4m, sample_clip
from .motion import RansacParams, save_trajectory_csv, video_trajectory

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_MODEL = 3
EXIT_DEGENERATE = 4
EXIT_INSUFFICIENT = 5

SEED_ENV_VAR = "STABILITYKIT_SEED"

_INPUT_ERRORS = (
    ParseError,
    DimensionMismatch,
    EmptyInput,
    ConfigError,
    MarginError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
)
_DEGENERATE_ERRORS = (
    DegenerateScene,
    TrackingFailure,
    UnderDetermined,
    DegenerateInput,
    DegenerateBatch,
)
_INSUFFICIENT_ERRORS = (
    InsufficientFrames,
    InsufficientData,
    InsufficientRatings,
    EmptyAfterCleaning,
)


class _MissingModel(Exception):
    pass


def _fmt(x: float) -> float:
    return float(f"{x:.6g}")


def _roundtrip(obj):
    if isinstance(obj, float):
        return _fmt(obj)
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


def _load_config(path: str | None, allowed: set[str]) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _resolve_seed(arg_seed: int | None, cfg: dict) -> int:
    if arg_seed is not None:
        return arg_seed
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def _load_video(path: str):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such input: {path}")
    return load_frame_dir(p) if p.is_dir() else load_y4m(p)


def _clip_opts(cfg: dict, args) -> dict:
    out = {
        "n": cfg.get("n", 32),
        "tau": cfg.get("tau", 2),
        "grid": cfg.get("grid", 8),
        "tau_b": cfg.get("tau_b", feat.DEFAULT_TAU_B),
    }
    for key in out:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_SCORE_KEYS = {"seed", "n", "tau", "grid", "tau_b", "n_clips", "model"}


def cmd_score(args) -> int:
    cfg = _load_config(args.config, _SCORE_KEYS)
    seed = _resolve_seed(args.seed, cfg)
    model_path = args.model or cfg.get("model")
    n_clips = cfg.get("n_clips", args.n_clips)
    # checked before decoding: a bad value would otherwise surface only
    # after the whole trajectory has been estimated
    if model_path and (not isinstance(n_clips, int) or n_clips < 1):
        raise ConfigError(f"n_clips must be a positive integer, got {n_clips!r}")
    seq = _load_video(args.video)
    itf_res = itf(seq)
    traj, _ = video_trajectory(seq, "similarity", RansacParams(seed=seed))
    stab = stability_score(traj)
    report = {
        "itf_db": itf_res.score_db,
        "stability": {
            "score": stab.score,
            "x": stab.component_scores["x"],
            "y": stab.component_scores["y"],
            "theta": stab.component_scores["theta"],
        },
    }
    if model_path:
        if not Path(model_path).is_file():
            raise _MissingModel(f"model checkpoint not found: {model_path}")
        params = model_mod.load_checkpoint(model_path)
        opts = _clip_opts(cfg, args)
        report["prediction"] = model_mod.predict_video(
            params, seq, n_clips=n_clips, seed=seed, **opts
        )
    _emit(report, args.out)
    return EXIT_OK


def cmd_trajectory(args) -> int:
    cfg = _load_config(args.config, {"seed", "model_kind"})
    seed = _resolve_seed(args.seed, cfg)
    model_kind = args.model_kind or cfg.get("model_kind", "similarity")
    seq = _load_video(args.video)
    traj, _ = video_trajectory(seq, model_kind, RansacParams(seed=seed))
    save_trajectory_csv(traj, args.out)
    _emit({"frames": traj.length, "out": str(args.out)}, None)
    return EXIT_OK


_TRAIN_KEYS = {
    "seed", "lambda", "epochs", "batch_size", "lr_head", "val_frac",
    "n", "tau", "grid", "tau_b",
}


def cmd_train(args) -> int:
    cfg = _load_config(args.config, _TRAIN_KEYS)
    seed = _resolve_seed(args.seed, cfg)
    opts = _clip_opts(cfg, args)
    rows = synth_mod.load_manifest(args.manifest)
    if not rows:
        raise EmptyInput("manifest has no rows")

    dims = feat.FeatureDims(
        n=opts["n"], n_b=opts["n"] // opts["tau_b"], tau_b=opts["tau_b"]
    )
    cache_path = Path(args.cache) if args.cache else None
    matrix = None
    if cache_path and cache_path.is_file():
        matrix, cached_dims = feat.load_feature_cache(cache_path)
        if cached_dims != dims or matrix.shape[0] != len(rows):
            raise ConfigError("feature cache does not match the manifest/config")
    if matrix is None:
        vecs = []
        for i, (_, path, _) in enumerate(rows):
            seq = _load_video(str(path))
            clip_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
            clip = sample_clip(seq, n=opts["n"], tau=opts["tau"], seed=clip_seed)
            bundle = feat.clip_features(clip, grid=opts["grid"], tau_b=opts["tau_b"])
            vecs.append(feat.fuse(bundle).f)
        matrix = np.stack(vecs)
        if cache_path:
            feat.save_feature_cache(cache_path, matrix, dims)
            matrix, _ = feat.load_feature_cache(cache_path)  # train on f32-rounded values
        else:
            matrix = matrix.astype("<f4").astype(np.float64)

    y = np.array([score for _, _, score in rows])
    tc = model_mod.TrainConfig(
        lambda_rank=float(cfg.get("lambda", 0.3)),
        epochs=int(cfg.get("epochs", 30)),
        batch_size=int(cfg.get("batch_size", 4)),
        lr_head=float(cfg.get("lr_head", 1e-3)),
        seed=seed,
    )
    val_frac = float(cfg.get("val_frac", 0.2))
    perm = np.random.default_rng(seed).permutation(len(rows))
    n_val = int(round(val_frac * len(rows)))
    if n_val < 3:  # rank correlation needs 3 points; tiny sets train on all
        n_val = 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train_set = list(zip(matrix[train_idx], y[train_idx]))
    val_set = list(zip(matrix[val_idx], y[val_idx])) if n_val else None

    params, logs = model_mod.train(train_set, tc, val_set)
    model_mod.save_checkpoint(params, args.out, tc)
    if args.log:
        model_mod.save_training_log(logs, args.log)

    report: dict = {"checkpoint": str(args.out), "epochs": len(logs)}
    if n_val >= 5:
        pv, _, _, _ = model_mod._forward(params, matrix[val_idx])
        report["validation"] = evaluate(pv, y[val_idx]).as_dict()
    else:
        report["final_loss"] = logs[-1].loss
    _emit(report, None)
    return EXIT_OK


def _read_column(path: str, column: int = 0) -> list[float]:
    vals = []
    for ln, line in enumerate(Path(path).read_text().strip().splitlines()):
        parts = [p.strip() for p in line.split(",")]
        try:
            vals.append(float(parts[column]))
        except (IndexError, ValueError):
            if ln == 0:
                continue  # header
            raise ParseError(f"{path}:{ln + 1}: cannot read column {column}")
    return vals


def cmd_eval(args) -> int:
    if args.mos_csv:
        pred = _read_column(args.pred_csv, 0)
        mos = _read_column(args.mos_csv, 0)
    else:
        pred = _read_column(args.pred_csv, 0)
        mos = _read_column(args.pred_csv, 1)
    if len(pred) != len(mos):
        raise DimensionMismatch(f"pred has {len(pred)} rows, mos has {len(mos)}")
    _emit(evaluate(np.array(pred), np.array(mos)).as_dict(), args.out)
    return EXIT_OK


_MOS_KEYS = {"seed", "outlier_sigma", "max_outlier_frac", "denominator"}


def cmd_mos(args) -> int:
    cfg = _load_config(args.config, _MOS_KEYS)
    table = mos_mod.RatingsTable.from_csv(args.ratings)
    result = mos_mod.reject_outlier_subjects(
        table,
        outlier_sigma=float(cfg.get("outlier_sigma", 2.0)),
        max_outlier_frac=float(cfg.get("max_outlier_frac", 0.05)),
        denominator=cfg.get("denominator", "rated"),
    )
    mos_mod.write_mos_csv(result, args.out)
    _emit(
        {
            "videos": len(result.videos),
            "rejected_subjects": sorted(result.rejected_subjects),
            "out": str(args.out),
        },
        None,
    )
    return EXIT_OK


_SYNTH_KEYS = {
    "seed", "ladder", "videos_per_level", "count", "length", "width", "height", "fps",
}


def cmd_synth(args) -> int:
    cfg = _load_config(args.config, _SYNTH_KEYS)
    seed = _resolve_seed(args.seed, cfg)
    ladder = cfg.get("ladder", list(synth_mod.DEFAULT_LADDER))
    per_level = int(cfg.get("videos_per_level", 2))
    count = int(cfg.get("count", per_level * len(ladder)))
    videos = synth_mod.iter_dataset(
        count,
        amplitude_ladder=ladder,
        seed=seed,
        length=int(cfg.get("length", 72)),
        frame_size=(int(cfg.get("width", 128)), int(cfg.get("height", 96))),
        fps=float(cfg.get("fps", 30.0)),
    )
    manifest = synth_mod.write_dataset(videos, args.out)
    _emit({"manifest": str(manifest), "count": count}, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabilitykit",
        description="No-reference video stability assessment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")

    p = sub.add_parser("score", help="ITF, Stability Score, and optional model prediction")
    p.add_argument("video", help="Y4M file or PPM/PGM directory")
    p.add_argument("--model", help="model checkpoint for the learned score")
    p.add_argument("--n-clips", dest="n_clips", type=int, default=4)
    for name in ("n", "tau", "grid", "tau_b"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    p.add_argument("--out", help="also write the JSON report here")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("trajectory", help="estimate and export the camera path CSV")
    p.add_argument("video")
    p.add_argument("out", help="output CSV (frame,x,y,theta)")
    p.add_argument("--model-kind", choices=["translation", "similarity", "homography"])
    common(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("train", help="train the regression head on a manifest")
    p.add_argument("manifest", help="CSV: video_id,path,gt_score")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="per-epoch CSV log")
    p.add_argument("--cache", help="feature cache file (reused when present)")
    for name in ("n", "tau", "grid", "tau_b"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="SROCC/PLCC/KRCC/RMSE for prediction CSVs")
    p.add_argument("pred_csv", help="two-column pred,mos CSV (or predictions only)")
    p.add_argument("mos_csv", nargs="?", help="optional separate MOS CSV")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mos", help="MOS aggregation with outlier-subject rejection")
    p.add_argument("ratings", help="CSV: subject_id,video_id,score[,session]")
    p.add_argument("--out", required=True, help="MOS CSV output path")
    common(p)
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser("synth", help="generate a labeled synthetic shaky-video dataset")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _MissingModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_MODEL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _DEGENERATE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _INSUFFICIENT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
