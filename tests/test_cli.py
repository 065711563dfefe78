import json

import numpy as np
import pytest

from stabilitykit import cli
from stabilitykit import model as model_mod
from stabilitykit.media import FrameSequence, save_y4m
from stabilitykit.synth import gen_dataset, write_dataset


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    videos = gen_dataset(
        12, amplitude_ladder=[0.0, 2.0, 5.0], seed=21, length=18, frame_size=(64, 64)
    )
    manifest = write_dataset(videos, root / "data")
    static = root / "data" / "synth_0000.y4m"  # amplitude 0 -> static
    shaky = root / "data" / "synth_0002.y4m"
    flat_path = root / "flat.y4m"
    save_y4m(
        FrameSequence(frames=np.full((18, 32, 32, 3), 128, dtype=np.uint8)), flat_path
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

    @pytest.mark.parametrize("n_clips", ["0", "-2"])
    def test_no_clips_exits_2_before_decoding(self, capsys, workspace, tmp_path,
                                              monkeypatch, n_clips):
        ckpt = tmp_path / "model.ckpt"
        model_mod.save_checkpoint(model_mod.init_params(288, seed=0), ckpt)

        def no_decode(path):
            raise AssertionError("video decoded before the options were checked")

        monkeypatch.setattr(cli, "_load_video", no_decode)
        code, out, err = run(
            capsys, "score", str(workspace["static"]), "--model", str(ckpt),
            "--n-clips", n_clips,
        )
        assert code == 2 and "n_clips" in err
        assert out == ""

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

    def test_unknown_config_key_exits_2(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 5}))
        code, _, err = run(
            capsys, "train", str(workspace["manifest"]),
            "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg),
        )
        assert code == 2 and "unknown config keys" in err


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

    def test_length_mismatch_exits_2(self, capsys, tmp_path):
        a = tmp_path / "pred.csv"
        b = tmp_path / "mos.csv"
        a.write_text("1\n2\n3\n4\n5\n")
        b.write_text("1\n2\n3\n4\n5\n6\n")
        code, _, _ = run(capsys, "eval", str(a), str(b))
        assert code == 2


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


class TestSeedResolution:
    def test_env_fallback(self, capsys, workspace, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        code, out1, _ = run(capsys, "score", str(workspace["shaky"]))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "notanint")
        code2, _, err = run(capsys, "score", str(workspace["shaky"]))
        assert code == 0
        assert code2 == 2 and "must be an integer" in err
