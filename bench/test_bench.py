"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stabilitykit import cli, media, model  # noqa: E402

MODULES = tracing.program_modules()


def _capture(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", ["fit-eval-4k", "traj-homog-128"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    trees = []
    for run, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / run).mkdir()
        workloads.prepare(name, seed, tmp_path / run, model.load_checkpoint)
        trees.append(_tree(tmp_path / run))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_small_video_is_seeded_and_decodes(tmp_path):
    size = (64, 48)
    a = gen.make_video(tmp_path / "a.y4m", 3, (1,), 2.0, size)
    b = gen.make_video(tmp_path / "b.y4m", 3, (1,), 2.0, size)
    assert (tmp_path / "a.y4m").read_bytes() == (tmp_path / "b.y4m").read_bytes()
    assert all((a[k] == b[k]).all() for k in a)
    seq = media.load_y4m(tmp_path / "a.y4m")
    assert seq.frames.shape == (gen.LENGTH, 48, 64, 3)
    # theta stays in radians: jitter <= 2 * 0.003 * 1.5 rad and noise sd
    # 0.06 px / 28 px lever.  Noise left in pixels (sd 0.06) would exceed this.
    assert abs(a["theta"]).max() < 0.05


def _score_main(stdout: str, code: int = 0):
    def main(argv):
        print(stdout)
        return code
    return main


GOOD_SCORE = ('{"itf_db": 30.0, "prediction": 50.0, "stability": '
              '{"score": 0.2, "theta": 0.3, "x": 0.2, "y": 0.4}}')


def test_valid_output_passes():
    check = lambda report: checks.check_score(report, truth_score=0.202)  # noqa: E731
    res = checks.run_request(_score_main(GOOD_SCORE), ["score"], check)
    assert res.ok and res.facts["stab_err"] == pytest.approx(0.002)


@pytest.mark.parametrize("stdout,code", [
    (GOOD_SCORE.replace("50.0", "NaN"), 0),
    (GOOD_SCORE.replace("30.0", "Infinity"), 0),
    (GOOD_SCORE.replace('"score": 0.2', '"score": 1.5'), 0),
    (GOOD_SCORE.replace('"score": 0.2', '"score": 0.21'), 0),  # 0.01 off the truth
    (GOOD_SCORE, 2),
    ("not json", 0),
])
def test_planted_nan_or_bad_exit_counts_as_failure(stdout, code):
    check = lambda report: checks.check_score(report, truth_score=0.2)  # noqa: E731
    assert not checks.run_request(_score_main(stdout, code), ["score"], check).ok


def test_uncaught_exception_counts_as_failure():
    def main(argv):
        raise ValueError("boom")

    res = checks.run_request(main, ["eval"], lambda report: {})
    assert not res.ok and "exit 1" in res.error


def test_eval_oracle_matches_scipy_and_rejects_a_wrong_value(tmp_path):
    pred, mos = tmp_path / "p.csv", tmp_path / "m.csv"
    gen.write_eval_pair(pred, mos, 1, 0, 300)
    check = lambda report: checks.check_eval(report, pred, mos)  # noqa: E731
    ok = checks.run_request(cli.main, ["eval", str(pred), str(mos)], check)
    assert ok.ok, ok.error

    report = checks.strict_json(_capture(cli.main, ["eval", str(pred), str(mos)]))
    report["krcc"] = round(report["krcc"] + 1e-4, 6)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(report, pred, mos)


def _patched_now():
    return {(m, a): getattr(MODULES[m], a) for m, a, _ in tracing.PATCHES}


def test_wrappers_restore_every_patched_name():
    before = _patched_now()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _patched_now()
        for key, fn in during.items():
            assert fn is not before[key] and fn.__wrapped__ is before[key], key
    assert all(_patched_now()[k] is before[k] for k in before)


def test_wrappers_restore_after_an_error():
    before = _patched_now()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("request blew up")
    assert all(_patched_now()[k] is before[k] for k in before)


def test_traced_eval_reports_layer_metrics(tmp_path):
    pred, mos = tmp_path / "p.csv", tmp_path / "m.csv"
    gen.write_eval_pair(pred, mos, 2, 0, 200)
    tracer = tracing.Tracer()
    with tracer.installed():
        _capture(lambda argv: cli.main(argv), ["eval", str(pred), str(mos)])
    rep = tracer.report()
    assert set(rep) == set(tracing.LAYER_METRICS)
    assert rep["evaluation.krcc.s"] > 0 and rep["evaluation.srocc.calls"] == 1
    assert rep["evaluation.evaluate.s"] >= rep["evaluation.krcc.s"] + rep["evaluation.logistic_fit.s"]
    assert rep["cli.main.s"] >= 0 and rep["motion.estimate_motion.calls"] == 0


def test_reported_names_are_the_registered_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [*tracing.LAYER_METRICS, "trace.overhead_frac", *workloads.DETAIL_METRICS]


def test_refclock_is_net_of_its_probes_and_restores_the_handler():
    import signal
    import statistics
    import time

    import refclock

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        wall, net = time.perf_counter(), clock.now()
        while time.perf_counter() - wall < 0.8:
            pass
        wall, net = time.perf_counter() - wall, clock.now() - net
    assert len(clock.samples) >= 2 and clock.probe_s > 0
    assert net == pytest.approx(wall - clock.probe_s, abs=1e-3)
    assert sum(clock.samples) < clock.probe_s  # each probe also runs an untimed warm-up
    assert clock.factor() == pytest.approx(refclock.REF_PROBE_S / statistics.fmean(clock.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert refclock.RefClock().factor() == 1.0
