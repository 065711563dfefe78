import argparse
import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_bytes, shaky_video
from stabilitykit import cli, errors
from stabilitykit import features as feat
from stabilitykit import model as model_mod
from stabilitykit.evaluation import evaluate
from stabilitykit.features import ClipSpec, save_feature_cache
from stabilitykit.media import FrameSequence, load_y4m, save_y4m
from stabilitykit.synth import iter_dataset, write_dataset


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


_FRESH_CLI = (
    "import sys; sys.path.insert(0, sys.argv[1]); from stabilitykit.cli import main; "
    "code = main(sys.argv[2:]); print('scipy.optimize' in sys.modules, file=sys.stderr); "
    "sys.exit(code)"
)


def fresh_cli(*argv):
    """The CLI run in a fresh interpreter: its exit code, its stdout, and
    whether scipy.optimize was loaded when it returned."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", _FRESH_CLI, src, *argv],
                         capture_output=True, text=True)
    loaded = out.stderr.splitlines()[-1] if out.stderr else ""
    assert loaded in ("True", "False"), out.stderr
    return out.returncode, out.stdout, loaded == "True"


def spec_checkpoint(path, dim=288, drop=(), **raw):
    """A checkpoint of an untrained ``dim``-input head whose header holds the
    default clip spec's keys, with the JSON text in ``raw`` in place of their
    values and those in ``drop`` left out, as a hand edit would leave them."""
    model_mod.save_checkpoint(model_mod.init_params(dim, seed=0), path)
    line, blob = path.read_bytes().split(b"\n", 1)
    keys = {k: str(v) for k, v in asdict(ClipSpec()).items()} | raw
    text = "".join(f', "{k}": {v}' for k, v in keys.items() if k not in drop)
    path.write_bytes(line[:-1] + text.encode() + b"}\n" + blob)
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    videos = list(iter_dataset(
        12, amplitude_ladder=[0.0, 2.0, 5.0], seed=21, length=18, frame_size=(64, 64)
    ))
    manifest = write_dataset(videos, root / "data")
    static = root / "data" / "synth_0000.y4m"  # amplitude 0 -> static
    shaky = root / "data" / "synth_0002.y4m"
    flat_path = root / "flat.y4m"
    save_y4m(
        FrameSequence(frames=np.full((18, 32, 32), 128, dtype=np.uint8)), flat_path
    )
    return {"root": root, "manifest": manifest, "static": static, "shaky": shaky,
            "flat": flat_path}


class TestScore:
    def test_static_video(self, capsys, workspace):
        code, out, _ = run(capsys, "score", str(workspace["static"]))
        assert code == 0
        report = json.loads(out)
        assert report["itf_db"] == 100.0
        assert report["stability"]["score"] == 1.0

    def test_shakier_scores_lower(self, capsys, workspace):
        _, out_static, _ = run(capsys, "score", str(workspace["static"]))
        _, out_shaky, _ = run(capsys, "score", str(workspace["shaky"]))
        a = json.loads(out_static)
        b = json.loads(out_shaky)
        assert b["stability"]["score"] < a["stability"]["score"]
        assert b["itf_db"] < a["itf_db"]

    def test_missing_input_exits_2(self, capsys, workspace):
        code, _, err = run(capsys, "score", str(workspace["root"] / "nope.y4m"))
        assert code == 2 and "error" in err

    def test_textureless_exits_4(self, capsys, workspace):
        code, _, _ = run(capsys, "score", str(workspace["flat"]))
        assert code == 4

    # corners come from pyramid level 1, which is 32x32 here: too few corners
    # there, or none at all, send the detection back to level 0
    def test_64x64_video_scores(self, capsys, tmp_path):
        path = tmp_path / "small.y4m"
        save_y4m(shaky_video(7, count=18, size=(64, 64))[0], path)
        code, out, err = run(capsys, "score", str(path))
        assert code == 0, err
        assert 0.0 <= strict_json(out)["stability"]["score"] <= 1.0

    def test_flat_64x64_video_exits_4(self, capsys, tmp_path):
        path = tmp_path / "flat64.y4m"
        save_y4m(FrameSequence(frames=np.full((18, 64, 64), 128, dtype=np.uint8)), path)
        code, _, err = run(capsys, "score", str(path))
        assert code == 4 and "no texture: flat corner response" in err

    @pytest.mark.parametrize("argv, raw, message", [
        pytest.param(["--n-clips", "0"], {}, "n_clips must be a positive integer, got 0", id="0"),
        pytest.param(["--n-clips", "-2"], {}, "n_clips must be a positive integer, got -2", id="-2"),
        # the header's spec: ClipSpec's own range checks
        pytest.param([], {"n": "1"}, "need n >= 2 and tau >= 1, got n=1, tau=2", id="n-1"),
        pytest.param([], {"tau": "0"}, "need n >= 2 and tau >= 1, got n=32, tau=0", id="tau-0"),
        pytest.param([], {"grid": "3"}, "grid must be in [4, 32], got 3", id="grid-3"),
        pytest.param([], {"grid": "33"}, "grid must be in [4, 32], got 33", id="grid-33"),
        pytest.param([], {"tau_b": "3"}, "tau_b=3 must divide the clip length n=32", id="tau-b-3"),
        # a 288-d head whose header says n 16: both figures and the spec named
        pytest.param([], {"n": "16"}, "the checkpoint's clip spec ClipSpec(n=16, tau=2, grid=8, "
                     "tau_b=8) gives 152 features, the model takes 288", id="dim-of-n-16"),
        pytest.param([], {"n": "1000000000000", "tau_b": "1"},
                     "the checkpoint's clip spec ClipSpec(n=1000000000000, tau=2, grid=8, tau_b=1) "
                     "gives 12000000000016 features, the model takes 288", id="dim-of-n-1e12"),
        pytest.param(["--n-clips", "0"], {"grid": "3"}, "n_clips must be a positive integer, got 0",
                     id="n-clips-before-grid"),
    ])
    def test_no_clips_exits_2_before_decoding(self, capsys, workspace, tmp_path,
                                              monkeypatch, argv, raw, message):
        ckpt = spec_checkpoint(tmp_path / "model.ckpt", **raw)
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        monkeypatch.setattr(feat, "blur_indices", None)  # no check may list a huge n's blur frames
        code, out, err = run(
            capsys, "score", str(workspace["static"]), "--model", str(ckpt), *argv,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert decoded == []

    @pytest.mark.parametrize("argv, message", [
        (["--n-clips", "0"], "n_clips must be a positive integer, got 0"),
        (["--n-clips", "100000000000"], "n_clips must be at most 100000, got 100000000000"),
    ], ids=["n-clips-0", "n-clips-1e11"])
    def test_bad_clip_option_exits_2_without_model(self, capsys, workspace, monkeypatch,
                                                   argv, message):
        # n_clips is checked before anything else, with or without --model
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        code, out, err = run(capsys, "score", str(workspace["static"]), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert decoded == []

    @pytest.mark.parametrize("argv", [["--n", "8"], ["--tau", "1"], ["--grid", "6"], ["--tau-b", "4"]])
    def test_clip_flags_are_gone(self, capsys, workspace, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["score", str(workspace["static"]), *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "tau", "grid", "tau_b"])
    def test_clip_config_keys_are_gone(self, capsys, workspace, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 8}))
        code, out, err = run(capsys, "score", str(workspace["static"]), "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: unknown config keys: [{key!r}]\n")

    def test_model_scores_with_its_own_spec(self, capsys, workspace, tmp_path):
        # trained off the default spec, scored with no clip option
        ckpt = tmp_path / "model.ckpt"
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 2}))
        code, _, err = run(capsys, "train", str(workspace["manifest"]), "--out", str(ckpt),
                           "--config", str(cfg), "--n", "8", "--tau-b", "4", "--grid", "6")
        assert code == 0, err
        spec = ClipSpec(n=8, tau_b=4, grid=6)
        params = model_mod.load_checkpoint(ckpt)
        assert params.spec == spec
        code, out, err = run(capsys, "score", str(workspace["shaky"]), "--model", str(ckpt))
        assert code == 0, err
        want = model_mod.predict_video(replace(params, spec=spec), load_y4m(workspace["shaky"]),
                                       n_clips=4, seed=0)
        assert json.loads(out)["prediction"] == cli._roundtrip(want)

    def test_header_without_spec_scores_as_the_default_spec(self, capsys, tmp_path):
        # no checkpoint written before the spec keys has them, the bench's
        # fixed one included: it scores exactly as with the default spec's
        keyless = tmp_path / "keyless.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), keyless)
        keyed = spec_checkpoint(tmp_path / "keyed.ckpt")
        video = tmp_path / "long.y4m"
        save_y4m(shaky_video(5, count=64, size=(64, 64))[0], video)
        reports = [run(capsys, "score", str(video), "--model", str(ckpt)) for ckpt in (keyless, keyed)]
        assert reports[0] == reports[1] and reports[0][0] == 0
        params = model_mod.load_checkpoint(keyless)
        assert params.spec == ClipSpec()
        want = model_mod.predict_video(params, load_y4m(video), n_clips=4, seed=0)
        assert json.loads(reports[0][1])["prediction"] == cli._roundtrip(want)

    def test_short_video_exits_5_before_trajectory(self, capsys, workspace, tmp_path,
                                                   monkeypatch):
        ckpt = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), ckpt)
        called = []
        monkeypatch.setattr(cli, "itf", called.append)
        monkeypatch.setattr(cli, "video_trajectory", called.append)
        # the 18-frame video is shorter than the default clip span of 63
        code, out, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt))
        assert code == 5 and "need 63 frames" in err
        assert out == ""
        assert called == []

    @pytest.mark.parametrize("flag, want", [([], 1), (["--n-clips", "3"], 3),
                                            (["--n-clips", "100000"], model_mod.MAX_N_CLIPS)])
    def test_n_clips_flag_overrides_config(self, capsys, workspace, tmp_path, monkeypatch,
                                           flag, want):
        # n = 8 spans 15 of the 18 frames; the model takes its 84 features
        ckpt = spec_checkpoint(tmp_path / "model.ckpt", ClipSpec(n=8).dim, n=8)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_clips": 1}))
        seen = []
        monkeypatch.setattr(model_mod, "predict_video",
                            lambda *args, n_clips, **kwargs: seen.append(n_clips) or 0.0)
        code, _, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt),
                           "--config", str(cfg), *flag)
        assert code == 0, err
        assert seen == [want]

    def test_too_many_clips_exits_2_with_a_model(self, capsys, workspace, tmp_path):
        # 10^11 clip draws once reached predict_video, whose seed array numpy
        # could not allocate: a traceback and exit 1.  The bound is checked
        # before anything is allocated, so no machine's memory decides this.
        ckpt = spec_checkpoint(tmp_path / "model.ckpt", ClipSpec(n=8).dim, n=8)
        code, out, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt),
                             "--n-clips", "100000000000")
        assert (code, out, err) == (2, "", "error: n_clips must be at most 100000, got 100000000000\n")

    def test_truncated_checkpoint_exits_2(self, capsys, workspace, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        code, out, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt))
        assert code == 2 and "truncated" in err
        assert out == ""

    def test_checkpoint_norm_mismatch_exits_2(self, capsys, workspace, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), ckpt)
        header, blob = ckpt.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        meta["norm_std"] = meta["norm_std"][:100]
        ckpt.write_bytes(json.dumps(meta).encode() + b"\n" + blob)
        code, out, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt))
        assert code == 2 and "norm stats" in err
        assert out == ""

    @pytest.mark.parametrize(
        "field, at, value",
        [("weights", "w2", 0x7FC00000), ("weights", "w2", 0x7F800001),
         ("weights", "b2", 0x7F800000), ("norm_std", 5, 0.0), ("norm_std", 5, -1.0),
         ("norm_std", 0, float("nan")), ("norm_mean", 0, float("inf"))],
        ids=["nan-w2", "signalling-nan-w2", "inf-b2", "zero-std", "negative-std",
             "nan-std", "inf-mean"],
    )
    def test_non_finite_checkpoint_exits_2(self, capsys, workspace, tmp_path, field, at, value):
        ckpt = tmp_path / "model.ckpt"
        params = model_mod.init_params(288, seed=0)
        model_mod.save_checkpoint(params, ckpt)
        header, blob = ckpt.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        if field == "weights":  # value is the f32 bit pattern
            bits = np.frombuffer(blob, "<u4").copy()
            bits[params.w1.size + params.b1.size if at == "w2" else -1] = value
            blob = bits.tobytes()
        else:
            meta[field][at] = value
        ckpt.write_bytes(json.dumps(meta).encode() + b"\n" + blob)
        code, out, err = run(capsys, "score", str(workspace["static"]), "--model", str(ckpt))
        assert code == 2 and "checkpoint" in err
        assert out == ""

    def test_missing_model_exits_3(self, capsys, workspace):
        code, _, _ = run(
            capsys, "score", str(workspace["static"]),
            "--model", str(workspace["root"] / "missing.ckpt"),
        )
        assert code == 3


class TestBadY4mHeader:
    @pytest.fixture
    def bad_size(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUV4MPEG2 W1x H32 F30:1 C444\nFRAME\n" + bytes(3 * 32 * 32))
        return path

    def test_trajectory_exits_2(self, capsys, bad_size, tmp_path):
        code, out, err = run(capsys, "trajectory", str(bad_size), str(tmp_path / "t.csv"))
        assert code == 2 and "frame size" in err
        assert out == ""

    def test_score_exits_2(self, capsys, bad_size):
        code, out, err = run(capsys, "score", str(bad_size))
        assert code == 2 and "frame size" in err
        assert out == ""


class TestTrajectory:
    def test_static_video_zero_columns(self, capsys, workspace, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "trajectory", str(workspace["static"]), str(out_csv))
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "frame,x,y,theta"
        vals = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert np.all(np.abs(vals) < 1e-6)

    def test_textureless_exits_4(self, capsys, workspace, tmp_path):
        code, _, _ = run(
            capsys, "trajectory", str(workspace["flat"]), str(tmp_path / "t.csv")
        )
        assert code == 4

    @pytest.mark.parametrize("command", ["trajectory", "score"])
    def test_fresh_process_never_loads_the_solver(self, workspace, tmp_path, command):
        argv = [command, str(workspace["shaky"])] + ([str(tmp_path / "t.csv")] if command == "trajectory" else [])
        code, out, loaded = fresh_cli(*argv)
        assert code == 0 and strict_json(out)
        assert loaded is False

    def test_homography_writes_nothing_to_stderr(self, tmp_path):
        # a fresh interpreter, so numpy warnings reach stderr as a user sees them
        save_y4m(shaky_video(303, count=16)[0], tmp_path / "v.y4m")
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys; sys.path.insert(0, sys.argv[1]); from stabilitykit.cli import main; sys.exit(main(sys.argv[2:]))"
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, src, "trajectory", str(tmp_path / "v.y4m"),
             str(tmp_path / "t.csv"), "--model-kind", "homography"],
            capture_output=True, text=True,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert strict_json(out.stdout)["frames"] == 16


class TestTrain:
    def test_end_to_end(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 3, "n": 8, "tau": 2, "tau_b": 4, "grid": 6}))
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        code, out, err = run(
            capsys, "train", str(workspace["manifest"]),
            "--out", str(ckpt), "--log", str(log),
            "--config", str(cfg), "--seed", "1",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["epochs"] == 3
        assert ckpt.is_file()
        assert log.read_text().splitlines()[0] == "epoch,loss,val_srocc"

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["--grid", "3"], "grid", id="grid-3"),
        pytest.param(["--grid", "33"], "grid", id="grid-33"),
        pytest.param(["--tau", "0"], "tau >= 1", id="tau-0"),
    ])
    def test_bad_clip_option_exits_2_before_decoding(self, capsys, workspace, tmp_path,
                                                     monkeypatch, argv, name):
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        code, out, err = run(
            capsys, "train", str(workspace["manifest"]), "--out", str(tmp_path / "m.ckpt"), *argv,
        )
        assert code == 2 and name in err
        assert out == ""
        assert decoded == []

    def test_cache_leaves_the_checkpoint_unchanged(self, capsys, workspace, tmp_path):
        # every run trains on the f32-rounded features: extracted without a
        # cache, extracted and written to one, and read back from it
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 3, "n": 8, "tau": 2, "tau_b": 4, "grid": 6}))
        cache = tmp_path / "features.bin"
        ckpts = []
        for extra in ([], ["--cache", str(cache)], ["--cache", str(cache)]):
            ckpts.append(tmp_path / f"m{len(ckpts)}.ckpt")
            code, _, err = run(
                capsys, "train", str(workspace["manifest"]), "--out", str(ckpts[-1]),
                "--config", str(cfg), *extra,
            )
            assert code == 0, err
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes() == ckpts[2].read_bytes()

    def test_validation_block_reports_its_row_count(self, capsys, workspace, tmp_path):
        # 14 rows from a warm cache: 6 held out (val_frac 0.4), 8 to train on
        rows = workspace["manifest"].read_text().splitlines()
        big = workspace["manifest"].parent / "big.csv"
        big.write_text("\n".join(rows + [f"extra{i}," + rows[i + 1].split(",", 1)[1]
                                         for i in range(2)]) + "\n")
        cache = tmp_path / "features.bin"
        matrix = np.random.default_rng(3).normal(size=(14, 288))
        save_feature_cache(cache, matrix, ClipSpec(), 0)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 2, "val_frac": 0.4}))
        code, out, err = run(
            capsys, "train", str(big), "--out", str(tmp_path / "m.ckpt"),
            "--config", str(cfg), "--cache", str(cache),
        )
        assert code == 0, err
        assert json.loads(out)["validation"]["n"] == 6

    @staticmethod
    def _warm_cache(tmp_path, rows, seed=0):
        """A manifest of ``rows`` videos and its feature cache for ``seed``: a
        warm cache is never checked against the videos, so none is written."""
        rng = np.random.default_rng(rows)
        y = rng.uniform(0, 100, rows)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("video_id,path,gt_score\n" + "".join(
            f"v{i},v{i}.y4m,{score:.17g}\n" for i, score in enumerate(y)))
        matrix = np.zeros((rows, 288))
        matrix[:, :16] = y[:, None] / 25.0 + rng.normal(size=(rows, 16))  # the flow columns
        cache = tmp_path / "features.bin"
        save_feature_cache(cache, matrix, ClipSpec(), seed)
        return manifest, cache, y, matrix.astype("<f4").astype(np.float64)

    def test_validation_block_scores_the_saved_checkpoint(self, capsys, tmp_path):
        # 30 rows, 6 held out: the block is the saved (last-epoch) head's
        # figures on the rows the seed's permutation holds out
        manifest, cache, y, matrix = self._warm_cache(tmp_path, 30, seed=4)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 6, "lr_head": 0.01}))
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
        code, out, err = run(capsys, "train", str(manifest), "--out", str(ckpt), "--log", str(log),
                             "--cache", str(cache), "--config", str(cfg), "--seed", "4")
        assert code == 0, err
        block = json.loads(out)["validation"]
        held_out = np.random.default_rng(4).permutation(30)[:6]
        params = model_mod.load_checkpoint(ckpt)
        pred = [model_mod.mlp_forward(params, row) for row in matrix[held_out]]
        # scored one row at a time, the forward may differ from the batched
        # one in the last bits, well below the report's 6 digits
        assert block == cli._roundtrip(dict(evaluate(pred, y[held_out]).as_dict(), n=6))
        last = log.read_text().splitlines()[-1].split(",")
        assert last[0] == "6" and block["srocc"] == cli._roundtrip(float(last[2]))

    def test_validation_block_is_the_reloaded_checkpoints(self, capsys, tmp_path):
        # the checkpoint holds f32 weights; the block is theirs, digit for digit,
        # where the float64 weights in memory gave other reported figures
        manifest, cache, y, matrix = self._warm_cache(tmp_path, 30, seed=7)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 6, "lr_head": 1e-3}))
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", str(manifest), "--out", str(ckpt),
                             "--cache", str(cache), "--config", str(cfg), "--seed", "7")
        assert code == 0, err
        held_out = np.random.default_rng(7).permutation(30)[:6]
        pred, _, _, _ = model_mod._forward(model_mod.load_checkpoint(ckpt), matrix[held_out])
        want = cli._roundtrip(dict(evaluate(pred, y[held_out]).as_dict(), n=6))
        assert json.loads(out)["validation"] == want

    @pytest.mark.parametrize("rows, n_val", [(15, 3), (20, 4)])
    def test_too_few_held_out_rows_train_on_every_row(self, capsys, tmp_path, rows, n_val):
        # round(0.2 * rows) is below the 5 rows evaluate needs
        manifest, cache, _, _ = self._warm_cache(tmp_path, rows)
        assert round(0.2 * rows) == n_val
        reports = []
        for val_frac in (0.2, 0.0):
            cfg = tmp_path / "train.json"
            cfg.write_text(json.dumps({"epochs": 2, "batch_size": 2, "val_frac": val_frac}))
            code, out, err = run(capsys, "train", str(manifest), "--out",
                                 str(tmp_path / f"{val_frac}.ckpt"),
                                 "--cache", str(cache), "--config", str(cfg))
            assert code == 0, err
            reports.append(json.loads(out))
        assert reports[0]["final_loss"] == reports[1]["final_loss"]
        assert "validation" not in reports[0]
        assert (tmp_path / "0.2.ckpt").read_bytes() == (tmp_path / "0.0.ckpt").read_bytes()

    def test_tiny_manifest_exits_5(self, capsys, workspace, tmp_path):
        # keep the truncated manifest beside the videos: paths are relative
        small = workspace["manifest"].parent / "small.csv"
        rows = workspace["manifest"].read_text().splitlines()
        small.write_text("\n".join(rows[:4]) + "\n")  # header + 3 videos
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "n": 8, "tau": 2, "tau_b": 4}))
        code, _, _ = run(
            capsys, "train", str(small), "--out", str(tmp_path / "m.ckpt"),
            "--config", str(cfg),
        )
        assert code == 5

    @pytest.mark.parametrize(
        "bad_row, message",
        [("synth_0001,synth_0001.y4m", "need 3 fields"),
         ("synth_0001,synth_0001.y4m,high", "non-numeric score"),
         ("synth_0001,synth_0001.y4m,nan", "non-finite score")],
    )
    def test_bad_manifest_row_exits_2(self, capsys, workspace, tmp_path, bad_row, message):
        bad = workspace["manifest"].parent / "bad.csv"
        rows = workspace["manifest"].read_text().splitlines()
        rows[3] = bad_row
        bad.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "train", str(bad), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert f"bad.csv:4: {message}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "count, bad_value",
        [(None, 0.0), (1.5, 0.0), (-1, 0.0), (12, np.nan)],
        ids=["list-header", "float-count", "negative-count", "nan-row"],
    )
    def test_bad_feature_cache_exits_2(self, capsys, workspace, tmp_path, count, bad_value):
        # the default dims and the manifest's 12 rows, so only the flaw differs
        header = [1, 2] if count is None else dict(
            c_o=16, c_s=8, c_b=4, n=32, n_b=4, tau_b=8, dim=288, count=count)
        rows = np.zeros((12, 288), dtype="<f4")
        rows[5, 40] = bad_value
        path = tmp_path / "features.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + rows.tobytes())
        code, out, err = run(
            capsys, "train", str(workspace["manifest"]),
            "--out", str(tmp_path / "m.ckpt"), "--cache", str(path),
        )
        assert code == 2 and "feature cache" in err
        assert out == ""

    @pytest.mark.parametrize("written, argv, names", [
        (dict(spec=ClipSpec(grid=4), seed=1), ["--grid", "8", "--tau", "1", "--seed", "5"],
         "tau=2 (want 1), grid=4 (want 8), seed=1 (want 5)"),
        (dict(spec=ClipSpec(grid=4)), [], "grid=4 (want 8)"),
        (dict(spec=ClipSpec(tau=1)), [], "tau=1 (want 2)"),
        (dict(seed=1), ["--seed", "5"], "seed=1 (want 5)"),
        (dict(spec=ClipSpec(tau_b=4)), [], "n_b=8 (want 4), tau_b=4 (want 8)"),
        (dict(rows=11), [], "count=11 (want 12)"),
    ], ids=["grid-tau-seed", "grid", "tau", "seed", "tau_b", "count"])
    def test_cache_of_other_settings_exits_2(self, capsys, workspace, tmp_path, monkeypatch,
                                             written, argv, names):
        # a cache is reused only for the clip spec, seed and row count it was
        # written for; another one is an error, not a silent reuse
        spec = written.get("spec", ClipSpec())
        cache = tmp_path / "features.bin"
        save_feature_cache(cache, np.ones((written.get("rows", 12), spec.dim)), spec, written.get("seed", 0))
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        code, out, err = run(capsys, "train", str(workspace["manifest"]), "--out",
                             str(tmp_path / "m.ckpt"), "--cache", str(cache), *argv)
        want = f"error: feature cache does not match the manifest/config: {names}\n"
        assert (code, out, err) == (2, "", want)
        assert decoded == [] and not (tmp_path / "m.ckpt").exists()

    def test_cache_of_other_dim_exits_2(self, capsys, workspace, tmp_path, monkeypatch):
        # a hand-edited header whose row width is not the spec's, with the
        # rows of the width it names: every other key matches
        cache = tmp_path / "features.bin"
        save_feature_cache(cache, np.ones((12, ClipSpec().dim)), ClipSpec(), 0)
        line, _, _ = cache.read_bytes().partition(b"\n")
        header = dict(json.loads(line), dim=289)
        rows = np.ones((12, 289), dtype="<f4")
        cache.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rows.tobytes())
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        code, out, err = run(capsys, "train", str(workspace["manifest"]), "--out",
                             str(tmp_path / "m.ckpt"), "--cache", str(cache))
        want = "error: feature cache does not match the manifest/config: dim=289 (want 288)\n"
        assert (code, out, err) == (2, "", want)
        assert decoded == [] and not (tmp_path / "m.ckpt").exists()

    def test_cache_of_other_videos_exits_2(self, capsys, workspace, tmp_path, monkeypatch):
        # the same row count in another order: each label would meet another
        # video's features, so the header's digest of the paths must differ
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "n": 8, "tau_b": 4}))
        cache = tmp_path / "features.bin"
        code, _, err = run(capsys, "train", str(workspace["manifest"]), "--out",
                           str(tmp_path / "first.ckpt"), "--cache", str(cache), "--config", str(cfg))
        assert code == 0, err
        header, *rows = workspace["manifest"].read_text().splitlines()
        reversed_manifest = workspace["manifest"].parent / "reversed.csv"
        reversed_manifest.write_text("\n".join([header, *rows[::-1]]) + "\n")
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", str(reversed_manifest), "--out", str(ckpt),
                             "--cache", str(cache), "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: feature cache does not match the manifest/config: videos=")
        assert err.count("\n") == 1
        assert decoded == [] and not ckpt.exists()
        # the cache still serves the manifest it was written for
        code, out, err = run(capsys, "train", str(workspace["manifest"]), "--out", str(ckpt),
                             "--cache", str(cache), "--config", str(cfg))
        assert code == 0, err
        assert decoded == []

    def test_cache_without_newer_keys_loads(self, capsys, workspace, tmp_path, monkeypatch):
        # a header without tau, grid and seed, as older caches and the bench's
        # warm cache write it, is checked only on the keys it has
        rows = np.random.default_rng(5).normal(size=(12, 288)).astype("<f4")
        header = dict(c_b=4, c_o=16, c_s=8, n=32, n_b=4, tau_b=8, count=12, dim=288)
        cache = tmp_path / "features.bin"
        cache.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rows.tobytes())
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        decoded = []
        monkeypatch.setattr(cli, "load_y4m", decoded.append)
        for argv in ([], ["--seed", "5", "--tau", "1", "--grid", "6"]):
            code, out, err = run(capsys, "train", str(workspace["manifest"]), "--out",
                                 str(tmp_path / "m.ckpt"), "--cache", str(cache),
                                 "--config", str(cfg), *argv)
            assert code == 0, err
            assert json.loads(out)["epochs"] == 1
        assert decoded == []

    def test_unknown_config_key_exits_2(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 5}))
        code, _, err = run(
            capsys, "train", str(workspace["manifest"]),
            "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg),
        )
        assert code == 2 and "unknown config keys" in err


def set_cpus(monkeypatch, count):
    """Make ``count`` CPUs the set this process may run on, as train reads it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _exit_at_once(*args):
    # module level, so that the pool can send it to a forked worker by name
    os._exit(1)


def _row_1_fails_last(path, spec, seed, index):
    # rows 1 and 2 fail, row 1 half a second after row 2 has
    if index == 1:
        time.sleep(0.5)
    if index in (1, 2):
        raise errors.ParseError(f"planted failure in row {index}")
    return np.zeros(spec.dim)


class TestTrainWorkers:
    CONFIG = {"epochs": 2, "n": 8, "tau_b": 4}

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools train builds."""
        built = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return built

    def _train(self, capsys, tmp_path, manifest, *argv, config=CONFIG):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        result = run(capsys, "train", str(manifest), "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg), *argv)
        assert multiprocessing.active_children() == []  # the pool is shut down
        return result

    def test_pooled_rows_are_the_serial_rows(self, capsys, monkeypatch, workspace, tmp_path, pools):
        # the 12 videos of a synth manifest, on one CPU and on two: the same
        # cache, checkpoint and report, byte for byte
        cache, ckpt = tmp_path / "features.bin", tmp_path / "m.ckpt"
        outputs = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            code, out, err = self._train(capsys, tmp_path, workspace["manifest"], "--cache", str(cache))
            assert code == 0, err
            outputs.append((out, cache.read_bytes(), ckpt.read_bytes()))
            cache.unlink()
            ckpt.unlink()
        assert pools == [2]
        assert outputs[0] == outputs[1]

    def test_warm_cache_builds_no_pool(self, capsys, monkeypatch, tmp_path):
        def no_pool(*args, **kwargs):
            raise AssertionError("a warm cache needs no workers")

        manifest, cache, _, _ = TestTrain._warm_cache(tmp_path, 30)
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, err = self._train(capsys, tmp_path, manifest, "--cache", str(cache),
                                     config={"epochs": 2})
        assert code == 0, err
        assert json.loads(out)["validation"]["n"] == 6

    def test_first_bad_video_in_manifest_order_is_reported(self, capsys, monkeypatch, workspace,
                                                           tmp_path, pools):
        # rows 3 and 7 name missing videos: a pool reports row 3's error, as
        # the in-process loop does
        header, *rows = workspace["manifest"].read_text().splitlines()
        for i in (3, 7):
            rows[i] = rows[i].replace(".y4m", "-missing.y4m")
        bad = workspace["manifest"].parent / "two-missing.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        results = []
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            results.append(self._train(capsys, tmp_path, bad))
        assert pools == [2]
        assert results[0] == results[1]
        code, out, err = results[0]
        first = (bad.parent / rows[3].split(",")[1]).resolve()
        assert (code, out, err) == (2, "", f"error: no such input: {first}\n")

    def test_first_error_in_manifest_order_even_when_it_comes_last(self, capsys, monkeypatch,
                                                                    workspace, tmp_path, pools):
        monkeypatch.setattr(cli, "_feature_row", _row_1_fails_last)
        for count in (1, 2):
            set_cpus(monkeypatch, count)
            result = self._train(capsys, tmp_path, workspace["manifest"])
            assert result == (2, "", "error: planted failure in row 1\n")
        assert pools == [2]

    def test_dead_worker_exits_2(self, capsys, monkeypatch, workspace, tmp_path, pools):
        # a worker that ends without a result, as one the kernel kills would:
        # the fork inherits the patched row function
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_feature_row", _exit_at_once)
        code, out, err = self._train(capsys, tmp_path, workspace["manifest"])
        assert pools == [2]
        assert (code, out) == (2, "")
        first = (workspace["manifest"].parent / "synth_0000.y4m").resolve()
        assert err.startswith(f"error: a feature worker process ended abruptly: {first} and ")
        assert err.count("\n") == 1 and not (tmp_path / "m.ckpt").exists()


class TestEval:
    def test_two_column_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        mos = rng.uniform(0, 100, 12)
        path = tmp_path / "pairs.csv"
        path.write_text("pred,mos\n" + "\n".join(f"{p},{q}" for p, q in zip(mos, mos)))
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"srocc", "plcc", "krcc", "rmse"}
        assert report["srocc"] == 1.0

    def test_fresh_process_loads_the_solver_at_its_fit(self, tmp_path):
        mos = np.random.default_rng(2).uniform(0, 100, 12)
        path = tmp_path / "pairs.csv"
        path.write_text("pred,mos\n" + "\n".join(f"{q + 3 * np.sin(q)},{q}" for q in mos))
        code, out, loaded = fresh_cli("eval", str(path))
        assert code == 0
        assert strict_json(out)["srocc"] > 0.9
        assert loaded is True

    def test_two_files(self, capsys, tmp_path):
        a = tmp_path / "pred.csv"
        b = tmp_path / "mos.csv"
        vals = np.linspace(1, 40, 9)
        a.write_text("\n".join(str(v) for v in vals))
        b.write_text("\n".join(str(v) for v in vals**2))
        code, out, _ = run(capsys, "eval", str(a), str(b))
        assert code == 0
        assert json.loads(out)["srocc"] == 1.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_exits_4(self, capsys, tmp_path, bad):
        rng = np.random.default_rng(1)
        mos = rng.uniform(0, 100, 12)
        rows = [f"{q + rng.normal()},{q}" for q in mos]
        path = tmp_path / "pairs.csv"
        path.write_text("pred,mos\n" + "\n".join(rows) + "\n")
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        assert set(strict_json(out)) >= {"srocc", "plcc", "krcc", "rmse"}
        rows[5] = f"{bad},{mos[5]}"
        path.write_text("pred,mos\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "eval", str(path))
        assert code == 4 and "non-finite" in err
        assert out == ""

    def test_undecodable_byte_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(b"pred,mos\n1.5,caf\xe9\n2.5,3\n")
        with pytest.raises(errors.ParseError, match=f"{path}:2:"):
            cli._read_column(str(path), 1)
        code, out, err = run(capsys, "eval", str(path))
        assert code == 2 and out == ""
        assert f"{path}:2:" in err

    def test_only_the_first_row_may_be_a_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("\npred,mos\n1.5,2\n\nx,3\n")
        assert cli._read_column(str(path), 1) == [2.0, 3.0]
        with pytest.raises(errors.ParseError, match=f"{path}:5: cannot read column 0"):
            cli._read_column(str(path), 0)

    def test_length_mismatch_exits_2(self, capsys, tmp_path):
        a = tmp_path / "pred.csv"
        b = tmp_path / "mos.csv"
        a.write_text("1\n2\n3\n4\n5\n")
        b.write_text("1\n2\n3\n4\n5\n6\n")
        code, _, _ = run(capsys, "eval", str(a), str(b))
        assert code == 2


# rows the commands accept, beside csv_bytes, so that some runs succeed
_PAIRS = st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=12).map(
    lambda rows: "".join(f"{a!r},{b!r}\n" for a, b in rows).encode())
_RATINGS = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy"), st.floats(0, 100)),
                    min_size=3, max_size=12).map(
    lambda rows: "".join(f"s{s},v{v},{r!r}\n" for s, v, r in rows).encode())


class TestCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(csv_bytes, st.sampled_from([0, 1]))
    def test_eval_columns_raise_only_library_errors(self, data, column):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "pred.csv")
            path.write_bytes(data)
            with contextlib.suppress(errors.StabilityKitError):
                assert all(isinstance(v, float) for v in cli._read_column(str(path), column))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["eval", "eval2", "mos"]), csv_bytes | _PAIRS | _RATINGS,
           csv_bytes | _PAIRS)
    def test_cli_exits_documented_code_with_strict_json(self, command, first, second):
        with tempfile.TemporaryDirectory() as root:
            a, b = Path(root, "a.csv"), Path(root, "b.csv")
            a.write_bytes(first)
            b.write_bytes(second)
            argv = {"eval": ["eval", str(a)], "eval2": ["eval", str(a), str(b)],
                    "mos": ["mos", str(a), "--out", str(b)]}[command]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        assert code in {0, 2, 3, 4, 5}
        assert strict_json(out.getvalue()) if code == 0 else out.getvalue() == ""


class TestMos:
    def _write_ratings(self, path, planted=True):
        rng = np.random.default_rng(4)
        latent = rng.uniform(20, 80, 20)
        lines = ["subject_id,video_id,score"]
        for s in range(10):
            for v in range(20):
                val = float(np.clip(latent[v] + rng.normal(0, 3), 0, 100))
                lines.append(f"s{s},v{v:02d},{val:.3f}")
        if planted:
            for v in range(19):
                val = latent[v] + 50 if latent[v] <= 50 else latent[v] - 50
                lines.append(f"bad,v{v:02d},{float(np.clip(val, 0, 100)):.3f}")
            lines.append(f"bad,v19,{latent[19]:.3f}")
        path.write_text("\n".join(lines) + "\n")

    def test_planted_outlier_named(self, capsys, tmp_path):
        ratings = tmp_path / "ratings.csv"
        self._write_ratings(ratings, planted=True)
        out_csv = tmp_path / "mos.csv"
        code, out, _ = run(capsys, "mos", str(ratings), "--out", str(out_csv))
        assert code == 0
        assert json.loads(out)["rejected_subjects"] == ["bad"]
        assert out_csv.read_text().splitlines()[0] == "video_id,mos,std,n"

    def test_clean_table_empty_rejections(self, capsys, tmp_path):
        ratings = tmp_path / "ratings.csv"
        self._write_ratings(ratings, planted=False)
        code, out, _ = run(capsys, "mos", str(ratings), "--out", str(tmp_path / "m.csv"))
        assert code == 0
        assert json.loads(out)["rejected_subjects"] == []

    @pytest.mark.parametrize("rows, line", [
        (["subject_id,video_id,score", "x,y,junk", "junk2,a,b", "s0,v0,50"], 2),
        (["s0,v0,50", "", "s0,v1"], 3),
        (["subject_id,video_id,score", "s0,v0,50", "s1,v0,abc"], 3),
    ], ids=["junk-after-header", "short-row", "non-numeric-score"])
    def test_bad_row_names_its_line(self, capsys, tmp_path, rows, line):
        # only the first non-empty row may be a header
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "mos", str(ratings), "--out", str(tmp_path / "m.csv"))
        bad = rows[line - 1].split(",")
        assert (code, out, err) == (2, "", f"error: {ratings}:{line}: bad ratings row: {bad}\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("score, shown", [("160", "160.0"), ("nan", "nan"), ("-0.5", "-0.5")])
    def test_rating_out_of_range_names_its_line(self, capsys, tmp_path, score, shown):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(f"subject_id,video_id,score\ns0,v0,50\ns1,v0,{score}\ns2,v0,60\n")
        code, out, err = run(capsys, "mos", str(ratings), "--out", str(tmp_path / "m.csv"))
        assert (code, out, err) == (2, "", f"error: {ratings}:3: rating {shown} outside [0, 100]\n")
        assert not (tmp_path / "m.csv").exists()

    def test_no_seed_option(self, capsys, tmp_path):
        # mos draws no random numbers, so it takes no seed
        ratings = tmp_path / "ratings.csv"
        self._write_ratings(ratings, planted=False)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "mos", str(ratings), "--out", str(tmp_path / "m.csv"), "--seed", "99")
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        code, out, err = run(capsys, "mos", str(ratings), "--out", str(tmp_path / "m.csv"),
                             "--config", str(cfg))
        assert code == 2 and "unknown config keys" in err and "seed" in err
        assert out == ""


class TestSynth:
    def test_ladder_times_count(self, capsys, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(
            json.dumps(
                {
                    "ladder": [0.0, 1.0, 4.0],
                    "videos_per_level": 10,
                    "length": 16,
                    "width": 48,
                    "height": 48,
                }
            )
        )
        out_dir = tmp_path / "ds"
        code, out, _ = run(
            capsys, "synth", "--out", str(out_dir), "--config", str(cfg), "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["count"] == 30
        assert len(list(out_dir.glob("*.y4m"))) == 30
        assert (out_dir / "manifest.csv").is_file()

    @pytest.mark.parametrize("ladder", [[], [-100.0], [1e9], [0.0, 2.0, 97.0]],
                             ids=["empty", "negative", "1e9", "over-the-shorter-side"])
    def test_bad_ladder_exits_2(self, capsys, tmp_path, ladder):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"ladder": ladder, "count": 10}))
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "ds"), "--config", str(cfg))
        assert code == 2 and f"ladder {ladder}" in err
        assert out == ""

    @pytest.mark.parametrize("config, message", [
        ({"ladder": [], "count": 10}, "the amplitude ladder [] must hold amplitudes in [0, 96] px "
                                      "(the frame's shorter side)"),
        ({"ladder": [1.0], "count": 9}, "a dataset needs at least 10 videos"),
        ({"count": 0}, "a dataset needs at least 10 videos"),
        ({"count": None}, "config key 'count' must be of type int, got None"),
        ({"fps": 0}, "fps must be positive"),
        ({"width": 8}, "output size must be at least 16x16"),
        ({"length": 10}, "trajectory length must be at least 16"),
        # bounded before anything is allocated: numpy once raised MemoryError
        ({"width": 10**9, "height": 10**9, "count": 10},
         "need sides <= 1920 px and length <= 9000, got (1000000000, 1000000000), 72"),
        ({"length": 10**12}, "need sides <= 1920 px and length <= 9000, got (128, 96), 1000000000000"),
    ], ids=["empty-ladder", "count-9", "count-0", "count-null", "fps-0", "width-8", "length-10",
            "sides-1e9", "length-1e12"])
    def test_bad_config_leaves_no_files(self, capsys, tmp_path, config, message):
        # the first video is drawn before the output directory is made
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "ds"
        code, out, err = run(capsys, "synth", "--out", str(out_dir), "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_dir.exists()


class TestSeedResolution:
    def test_env_fallback(self, capsys, workspace, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        code, out1, _ = run(capsys, "score", str(workspace["shaky"]))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "notanint")
        code2, _, err = run(capsys, "score", str(workspace["shaky"]))
        assert code == 0
        assert code2 == 2 and "must be an integer" in err

    @pytest.mark.parametrize("flag, cfg, env, want", [
        (5, {"seed": 6}, "7", 5), (None, {"seed": 6}, "notanint", 6), (None, {}, "7", 7),
        (None, {}, None, 0),
    ])
    def test_flag_then_config_then_env(self, monkeypatch, tmp_path, flag, cfg, env, want):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        args = argparse.Namespace(seed=flag, config=str(config))
        assert cli._settings(args, {"seed": 0}) == {"seed": want}


# Every config key of every command and the JSON type its value must have.
CONFIG_TYPES = {
    "score": {"seed": "int", "model": "str", "n_clips": "int"},
    "trajectory": {"seed": "int", "model_kind": "str"},
    "train": {"seed": "int", "n": "int", "tau": "int", "grid": "int", "tau_b": "int",
              "lambda": "float", "epochs": "int", "batch_size": "int", "lr_head": "float",
              "val_frac": "float"},
    "mos": {"outlier_sigma": "float", "max_outlier_frac": "float", "denominator": "str"},
    "synth": {"seed": "int", "ladder": "list", "videos_per_level": "int", "count": "int",
              "length": "int", "width": "int", "height": "int", "fps": "float"},
}
# argv that reaches the settings; no path needs to exist, the settings come first
COMMAND_ARGV = {
    "score": ["score", "{tmp}/v.y4m"],
    "trajectory": ["trajectory", "{tmp}/v.y4m", "{tmp}/t.csv"],
    "train": ["train", "{tmp}/manifest.csv", "--out", "{tmp}/m.ckpt"],
    "mos": ["mos", "{tmp}/ratings.csv", "--out", "{tmp}/mos.csv"],
    "synth": ["synth", "--out", "{tmp}/ds"],
}
WRONG_TYPE = {"int": "x", "float": "x", "str": 1, "list": "abc"}


class TestSettings:
    def test_twenty_six_config_keys(self):
        assert {c: list(t) for c, t in cli.SETTINGS.items()} == {
            c: list(t) for c, t in CONFIG_TYPES.items()}
        assert sum(map(len, CONFIG_TYPES.values())) == 26

    @pytest.mark.parametrize("command, key, kind", [
        (c, k, t) for c, table in CONFIG_TYPES.items() for k, t in table.items()])
    def test_wrong_type_exits_2(self, capsys, monkeypatch, tmp_path, command, key, kind):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: WRONG_TYPE[kind]}))
        argv = [a.format(tmp=tmp_path) for a in COMMAND_ARGV[command]]
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        want = f"error: config key {key!r} must be of type {kind}, got {WRONG_TYPE[kind]!r}\n"
        assert (code, out, err) == (2, "", want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command, key", [
        (c, k) for c, table in CONFIG_TYPES.items() for k, t in table.items() if t == "float"])
    def test_int_is_a_float(self, monkeypatch, tmp_path, command, key):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        got = cli._settings(argparse.Namespace(config=str(cfg)), cli.SETTINGS[command])[key]
        assert type(got) is float and got == 1.0

    @pytest.mark.parametrize("command", CONFIG_TYPES)
    def test_config_help_names_the_table(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per option
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.lstrip().startswith("--config CONFIG"))
        keys = line.split("with keys ", 1)[1].split(";", 1)[0].split(", ")
        assert keys == list(cli.SETTINGS[command])

    @pytest.mark.parametrize("argv, flag", [
        (["score", "v.y4m", "--n-clip", "2"], "--n-clip"),
        (["trajectory", "v.y4m", "t.csv", "--model", "similarity"], "--model"),
        (["train", "m.csv", "--out", "m.ckpt", "--cach", "c.bin"], "--cach"),
        (["eval", "p.csv", "--ou", "e.json"], "--ou"),
        (["mos", "r.csv", "--out", "mos.csv", "--conf", "c.json"], "--conf"),
        (["synth", "--out", "ds", "--se", "3"], "--se"),
    ], ids=["score", "trajectory", "train", "eval", "mos", "synth"])
    def test_abbreviated_flag_exits_2(self, capsys, argv, flag):
        # a prefix of a flag is not that flag: a removed or mistyped one
        # must not run as another
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


# Bad options and config values: each of these once ended in a traceback and
# exit 1 (a NaN lambda in a NaN on stdout), and must be an input error.
_TRAIN = ["train", "{manifest}", "--out", "{tmp}/m.ckpt"]
_SCORE = ["score", "{shaky}", "--model"]
_MOS = ["mos", "{ratings}", "--out", "{tmp}/mos.csv"]
_SYNTH = ["synth", "--out", "{tmp}/ds"]
_SMALL_CLIPS = {"n": 8, "tau_b": 4}
# hand-edited checkpoint clip specs: spec_checkpoint's arguments
SPEC_EDITS = {
    "n_1": {"n": "1"},
    "tau_0": {"tau": "0"},
    "n_string": {"n": '"x"'},
    "n_bool": {"n": "true"},
    "grid_float": {"grid": "8.0"},
    "tau_1e400": {"tau": "1e400"},
    "no_tau_b": {"drop": ("tau_b",)},
}
EXIT_1_LEAKS = {
    "score-n-1": (_SCORE + ["{spec_n_1}"], None),
    "score-tau-0": (_SCORE + ["{spec_tau_0}"], None),
    "score-model-n-string": (_SCORE + ["{spec_n_string}"], None),
    "score-model-n-bool": (_SCORE + ["{spec_n_bool}"], None),
    "score-model-grid-float": (_SCORE + ["{spec_grid_float}"], None),
    "score-model-tau-1e400": (_SCORE + ["{spec_tau_1e400}"], None),
    "score-model-three-spec-keys": (_SCORE + ["{spec_no_tau_b}"], None),
    "train-n-1": (_TRAIN + ["--n", "1"], None),
    "train-tau-b-0": (_TRAIN + ["--tau-b", "0"], None),
    "train-epochs-string": (_TRAIN, dict(_SMALL_CLIPS, epochs="abc")),
    "train-lambda-null": (_TRAIN, dict(_SMALL_CLIPS, **{"lambda": None})),
    "train-lambda-nan": (_TRAIN, dict(_SMALL_CLIPS, **{"lambda": float("nan")})),
    "train-epochs-0": (_TRAIN, dict(_SMALL_CLIPS, epochs=0)),
    "train-val-frac-2": (_TRAIN, dict(_SMALL_CLIPS, val_frac=2)),
    "train-lambda-int-over-float-range": (_TRAIN, dict(_SMALL_CLIPS, **{"lambda": 10**400})),
    "score-seed-string": (["score", "{shaky}"], {"seed": "abc"}),
    "score-seed-negative": (["score", "{shaky}", "--seed", "-1"], None),
    "synth-seed-negative": (_SYNTH, {"seed": -3}),
    "mos-sigma-string": (_MOS, {"outlier_sigma": "x"}),
    "mos-denominator": (_MOS, {"denominator": "x"}),
    "synth-count-3": (_SYNTH, {"count": 3}),
    "synth-width-8": (_SYNTH, {"width": 8}),
    "synth-fps-int-over-float-range": (_SYNTH, {"fps": 10**400}),
    "synth-ladder-string": (_SYNTH, {"ladder": "abc"}),
    "mos-not-utf8": (["mos", "{latin1}", "--out", "{tmp}/mos.csv"], None),
    "eval-not-utf8": (["eval", "{latin1}"], None),
    "eval-field-too-large": (["eval", "{big_field}"], None),
    "eval-mos-field-too-large": (["eval", "{preds}", "{big_field}"], None),
    "score-checkpoint-dim-1e400": (["score", "{shaky}", "--model", "{huge_dim_ckpt}"], None),
    "score-pgm-width-negative": (["score", "{negative_pgm}"], None),
    "trajectory-pgm-width-negative": (["trajectory", "{negative_pgm}", "{tmp}/t.csv"], None),
}


class TestExitCodes:
    @pytest.fixture
    def paths(self, workspace, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), ckpt)
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("subject_id,video_id,score\n" + "".join(
            f"s{s},v{v},{(7 * s + 13 * v) % 100}\n" for s in range(5) for v in range(6)))
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("pred,mos\n1,2\nd\u00e9j\u00e0,3\n".encode("latin-1"))
        preds = tmp_path / "preds.csv"
        preds.write_text("pred\n1\n2\n3\n")
        big_field = tmp_path / "big-field.csv"  # over the csv module's 131072-character limit
        big_field.write_text("pred,mos\n1,2\n" + "9" * 200_000 + ",3\n")
        huge_dim_ckpt = tmp_path / "huge-dim.ckpt"
        huge_dim_ckpt.write_bytes(ckpt.read_bytes().replace(b'"input_dim": 288', b'"input_dim": 1e400'))
        negative_pgm = tmp_path / "frames"
        negative_pgm.mkdir()
        for name in ("a.pgm", "b.pgm"):
            (negative_pgm / name).write_bytes(b"P5 -32 32 255\n" + bytes(32 * 32))
        specs = {f"spec_{name}": spec_checkpoint(tmp_path / f"{name}.ckpt", **edit)
                 for name, edit in SPEC_EDITS.items()}
        return {**specs, "manifest": workspace["manifest"], "shaky": workspace["shaky"], "ckpt": ckpt,
                "ratings": ratings, "latin1": latin1, "preds": preds, "big_field": big_field,
                "huge_dim_ckpt": huge_dim_ckpt,
                "negative_pgm": negative_pgm, "tmp": tmp_path}

    @pytest.mark.parametrize("argv, config", EXIT_1_LEAKS.values(), ids=EXIT_1_LEAKS.keys())
    def test_former_exit_1_leak_exits_2(self, capsys, paths, argv, config):
        argv = [a.format(**paths) for a in argv]
        if config is not None:
            cfg = paths["tmp"] / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    def test_config_nested_too_deep_exits_2(self, capsys, paths):
        cfg = paths["tmp"] / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "mos", str(paths["ratings"]), "--out",
                             str(paths["tmp"] / "mos.csv"), "--config", str(cfg))
        assert code == 2 and "not valid JSON" in err
        assert out == ""

    @pytest.mark.parametrize("config", [{"lr_head": 1e300}, {"lambda": 1e308}])
    def test_diverging_training_exits_4_without_checkpoint(self, capsys, workspace, tmp_path,
                                                           config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(_SMALL_CLIPS, epochs=3, **config)))
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run(capsys, "train", str(workspace["manifest"]),
                             "--out", str(ckpt), "--config", str(cfg))
        assert code == 4, err
        assert err.startswith("error: training diverged in epoch 1") and err.count("\n") == 1
        assert out == ""
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", [2, 3])
    @pytest.mark.parametrize("kind", ["ratings", "manifest"])
    def test_undecodable_byte_names_its_line(self, capsys, tmp_path, kind, line):
        rows = {"ratings": [b"subject_id,video_id,score", b"s1,v1,50", b"s2,v1,60"],
                "manifest": [b"video_id,path,gt_score", b"a,a.y4m,1.5", b"b,b.y4m,2.5"]}[kind]
        rows[line - 1] = rows[line - 1].replace(b",", b"\xff,", 1)
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        argv = {"ratings": ["mos", str(path), "--out", str(tmp_path / "mos.csv")],
                "manifest": ["train", str(path), "--out", str(tmp_path / "m.ckpt")]}[kind]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("kind", ["ratings", "manifest"])
    def test_oversized_field_names_its_line(self, capsys, tmp_path, kind):
        # the shared CSV reader maps the csv module's errors for every command
        header = {"ratings": "subject_id,video_id,score", "manifest": "video_id,path,gt_score"}[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n" + "1," * 2 + "9" * 200_000 + "\n")
        argv = {"ratings": ["mos", str(path), "--out", str(tmp_path / "mos.csv")],
                "manifest": ["train", str(path), "--out", str(tmp_path / "m.ckpt")]}[kind]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {path}:2: field larger than field limit")
        assert err.count("\n") == 1 and out == ""

    def test_every_row_held_out_exits_5(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(_SMALL_CLIPS, val_frac=0.99)))
        code, out, err = run(capsys, "train", str(workspace["manifest"]),
                             "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg))
        assert code == 5 and "empty" in err
        assert out == ""


# The exit codes documented in stabilitykit.errors.
DOCUMENTED_EXIT_CODES = {
    "StabilityKitError": 2, "ParseError": 2, "TruncatedError": 2, "DimensionMismatch": 2,
    "EmptyInput": 2, "ConfigError": 2, "MarginError": 2,
    "MissingModel": 3,
    "DegenerateScene": 4, "TrackingFailure": 4, "UnderDetermined": 4, "DegenerateInput": 4,
    "InsufficientFrames": 5, "InsufficientData": 5, "InsufficientRatings": 5,
    "EmptyAfterCleaning": 5,
}


def _error_classes(cls=errors.StabilityKitError):
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield from _error_classes(sub)


class TestExitCodeTable:
    def test_table_names_every_class(self):
        assert sorted(c.__name__ for c in _error_classes()) == sorted(DOCUMENTED_EXIT_CODES)

    @pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
    def test_documented_code(self, capsys, monkeypatch, cls):
        def fail(args):
            raise cls("planted failure")

        monkeypatch.setattr(cli, "cmd_eval", fail)
        code, out, err = run(capsys, "eval", "pairs.csv")
        assert cls.exit_code == code == DOCUMENTED_EXIT_CODES[cls.__name__]
        assert err == "error: planted failure\n" and out == ""

    @pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
    def test_survives_pickle(self, cls):
        # train's workers send their errors back pickled
        back = pickle.loads(pickle.dumps(cls("planted failure")))
        assert type(back) is cls and str(back) == "planted failure"
        assert back.exit_code == DOCUMENTED_EXIT_CODES[cls.__name__]

    def test_required_frames_survive_pickle(self):
        back = pickle.loads(pickle.dumps(errors.InsufficientFrames("too short", required=15)))
        assert (str(back), back.required) == ("too short", 15)

    def test_os_error_exits_2(self, capsys, monkeypatch):
        def fail(args):
            raise PermissionError("permission denied: pairs.csv")

        monkeypatch.setattr(cli, "cmd_eval", fail)
        assert run(capsys, "eval", "pairs.csv")[:2] == (2, "")
