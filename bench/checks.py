"""Output oracles for benchmark requests.

A request fails when the command exits non-zero, when its stdout is not
strict JSON (``NaN`` and ``Infinity`` are rejected), or when an output check
below fails.  Failures are counted, never raised past ``run_request``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

# Accuracy gates, a small multiple of the worst value seen over 70 seeds
# (stab_err 0.0012, traj_err_px 0.38 px, warm-cache SROCC 0.93 at least),
# so that an estimate made several times less accurate fails the run.
MAX_STAB_ERR = 0.005
MAX_TRAJ_ERR_PX = 1.0
MIN_CACHE_VAL_SROCC = 0.85
RANK_TOL = 1e-6  # the CLI prints 6 significant digits


class CheckFailed(Exception):
    """An output did not pass its oracle."""


@dataclass
class RequestResult:
    argv: list[str]
    seconds: float
    ok: bool
    facts: dict = field(default_factory=dict)
    error: str = ""


def run_request(main, argv: list[str], check, now=time.perf_counter) -> RequestResult:
    """Call ``main(argv)`` in-process with stdout captured, time it with
    ``now``, then apply ``check(report)`` to the parsed stdout outside the
    timed region."""
    out, err = io.StringIO(), io.StringIO()
    start = now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a traceback and exit 1 for a user
        code = 1
        err.write(traceback.format_exc())
    seconds = now() - start
    if code != 0:
        return RequestResult(argv, seconds, False, error=f"exit {code}: {err.getvalue()[-500:]}")
    try:
        facts = check(strict_json(out.getvalue()))
    except CheckFailed as exc:
        return RequestResult(argv, seconds, False, error=str(exc))
    return RequestResult(argv, seconds, True, facts=facts)


def strict_json(text: str) -> dict:
    def reject(token):
        raise CheckFailed(f"stdout holds the non-JSON constant {token}")

    try:
        obj = json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CheckFailed("stdout is not a JSON object")
    return obj


def _number(obj: dict, key: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    val = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise CheckFailed(f"{key!r} is missing or not a finite number: {val!r}")
    if not lo <= val <= hi:
        raise CheckFailed(f"{key!r} = {val} is outside [{lo}, {hi}]")
    return float(val)


def check_score(report: dict, truth_score: float) -> dict:
    """All fields finite, scores in [0, 1]; returns |reported SS - truth SS|."""
    _number(report, "itf_db")
    _number(report, "prediction")
    stab = report.get("stability")
    score = _number(stab, "score", 0.0, 1.0)
    for axis in ("x", "y", "theta"):
        _number(stab, axis, 0.0, 1.0)
    err = abs(score - truth_score)
    if err > MAX_STAB_ERR:
        raise CheckFailed(f"stability score {score} is {err:.3g} from the truth {truth_score:.6g}")
    return {"stab_err": err}


def check_trajectory(report: dict, csv_path: Path, truth: dict) -> dict:
    """Header ``frame,x,y,theta`` and one finite row per frame; returns the
    largest x or y distance from the ground-truth path."""
    n = len(truth["x"])
    if report.get("frames") != n or report.get("out") != str(csv_path):
        raise CheckFailed(f"trajectory report {report} does not describe {n} frames")
    lines = csv_path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "frame,x,y,theta" or len(lines) != n + 1:
        raise CheckFailed(f"{csv_path.name}: bad header or {len(lines) - 1} rows for {n} frames")
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{csv_path.name}: {exc}") from exc
    if rows.shape != (n, 4) or not np.isfinite(rows).all() or (rows[:, 0] != np.arange(n)).any():
        raise CheckFailed(f"{csv_path.name}: rows are not frame-indexed finite values")
    err = float(max(np.abs(rows[:, 1] - truth["x"]).max(), np.abs(rows[:, 2] - truth["y"]).max()))
    if err > MAX_TRAJ_ERR_PX:
        raise CheckFailed(f"{csv_path.name}: path is {err:.3g} px from the truth")
    return {"traj_err_px": err}


def check_train(report: dict, ckpt: Path, load_checkpoint, input_dim: int,
                min_srocc: float = -1.0) -> dict:
    """The checkpoint reloads with the program's own reader and the
    validation block is finite; returns its SROCC and PLCC."""
    if report.get("checkpoint") != str(ckpt):
        raise CheckFailed(f"train report names checkpoint {report.get('checkpoint')!r}")
    try:
        params = load_checkpoint(ckpt)
    except Exception as exc:
        raise CheckFailed(f"checkpoint does not reload: {exc!r}") from exc
    weights = np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])
    if params.input_dim != input_dim or not np.isfinite(weights).all():
        raise CheckFailed("reloaded checkpoint has the wrong shape or non-finite weights")
    val = report.get("validation")
    srocc = _number(val, "srocc", -1.0, 1.0)
    plcc = _number(val, "plcc", -1.0, 1.0)
    _number(val, "krcc", -1.0, 1.0)
    _number(val, "rmse", 0.0)
    if srocc < min_srocc:
        raise CheckFailed(f"held-out SROCC {srocc} is below {min_srocc}")
    return {"val_srocc": srocc, "val_plcc": plcc}


def check_eval(report: dict, pred_csv: Path, mos_csv: Path) -> dict:
    """SROCC and KRCC match scipy on the same CSVs within the CLI rounding."""
    pred = np.loadtxt(pred_csv, skiprows=1, ndmin=1)
    mos = np.loadtxt(mos_csv, skiprows=1, ndmin=1)
    ref = {
        "srocc": stats.spearmanr(pred, mos).statistic,
        "krcc": stats.kendalltau(pred, mos).statistic,
    }
    for key, want in ref.items():
        got = _number(report, key, -1.0, 1.0)
        if abs(got - want) > RANK_TOL * max(1.0, abs(want)):
            raise CheckFailed(f"eval {key} = {got}, scipy gives {want:.9g}")
    _number(report, "plcc", -1.0, 1.0)
    _number(report, "rmse", 0.0)
    beta = report.get("logistic_beta")
    if not isinstance(beta, list) or len(beta) != 4:
        raise CheckFailed("logistic_beta is not a list of 4 numbers")
    for i, b in enumerate(beta):
        _number({f"beta{i}": b}, f"beta{i}")
    return {}
