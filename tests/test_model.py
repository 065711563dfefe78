import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilitykit import model as m
from stabilitykit.evaluation import srocc
from stabilitykit.errors import (
    ConfigError,
    DegenerateBatch,
    DegenerateInput,
    DimensionMismatch,
    InsufficientData,
    InsufficientFrames,
    ParseError,
    TruncatedError,
)
from stabilitykit.synth import gen_dataset


def toy_params(d=6, hidden=8, seed=0):
    p = m.init_params(d, seed=seed, hidden=hidden)
    return p


def naive_forward(params, f):
    """Independent forward oracle: plain loops, no shared code path."""
    z = [(fi - mu) / sd for fi, mu, sd in zip(f, params.norm_mean, params.norm_std)]
    hidden = []
    for i in range(len(params.b1)):
        acc = params.b1[i]
        for j, zj in enumerate(z):
            acc += params.w1[i, j] * zj
        hidden.append(max(acc, 0.0))
    out = params.b2
    for i, h in enumerate(hidden):
        out += params.w2[i] * h
    return out


def naive_fd_gradients(params, x, y, lam, h=1e-4):
    """Central finite differences by looping over every coordinate and
    re-evaluating the loss with the production forward/loss code."""

    def loss_at(p):
        pred, _, _, _ = m._forward(p, x)
        total, _ = m._loss_and_grad_wrt_pred(pred, y, lam)
        return total

    grads = {}
    for key in ("w1", "b1", "w2"):
        base = getattr(params, key)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            p_hi = copy.deepcopy(params)
            getattr(p_hi, key)[idx] += h
            p_lo = copy.deepcopy(params)
            getattr(p_lo, key)[idx] -= h
            g[idx] = (loss_at(p_hi) - loss_at(p_lo)) / (2 * h)
        grads[key] = g
    p_hi = copy.deepcopy(params)
    p_hi.b2 += h
    p_lo = copy.deepcopy(params)
    p_lo.b2 -= h
    grads["b2"] = (loss_at(p_hi) - loss_at(p_lo)) / (2 * h)
    return grads


def old_plcc_loss(pred, mos):
    """The standalone PLCC loss that preceded the shared loss core."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    mos = np.asarray(mos, dtype=np.float64).ravel()
    b = mos - mos.mean()
    sbb = float(b @ b)
    if sbb < 1e-12:
        raise DegenerateBatch("constant target scores: correlation undefined")
    a = pred - pred.mean()
    saa = float(a @ a)
    if saa < 1e-12:
        return 0.5
    r = float(a @ b) / np.sqrt(saa * sbb)
    return (1.0 - r) / 2.0


def old_rank_loss(pred, mos):
    """The standalone rank hinge that preceded the shared loss core."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    mos = np.asarray(mos, dtype=np.float64).ravel()
    dp = pred[:, None] - pred[None, :]
    dm = mos[:, None] - mos[None, :]
    e = np.where(dm >= 0, 1.0, -1.0)
    hinge = np.maximum(0.0, np.abs(dm) - e * dp)
    return float(hinge.sum()) / (len(pred) ** 2)


def old_checkpoint_bytes(params, cfg_payload):
    """The checkpoint writer that preceded the shared f32 container, with the
    config hash of the old hand-written ``TrainConfig.as_dict``."""
    digest = hashlib.sha256(json.dumps(cfg_payload, sort_keys=True).encode()).hexdigest()[:16]
    header = {
        "format": "stabilitykit-model-v1",
        "input_dim": params.input_dim,
        "hidden": len(params.b1),
        "norm_mean": [float(v) for v in params.norm_mean],
        "norm_std": [float(v) for v in params.norm_std],
        "config_hash": digest,
    }
    blob = np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]]).astype("<f4")
    return json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + blob.tobytes()


def old_backward(params, x, mos, lambda_rank):
    """The backward pass that returned fresh gradient arrays, one per parameter."""
    pred, h, u, z = m._forward(params, x)
    loss, dpred = m._loss_and_grad_wrt_pred(pred, mos, lambda_rank)
    du = np.outer(dpred, params.w2) * (u > 0)
    return loss, {"w1": du.T @ z, "b1": du.sum(axis=0), "w2": h.T @ dpred,
                  "b2": float(dpred.sum())}


def old_train(dataset, cfg, val_dataset=None):
    """The training loop that kept Adam's moments per parameter in dicts."""
    x, y = m._stack_dataset(dataset)
    rng = np.random.default_rng(cfg.seed)
    mean, std = m.fit_norm_stats(x)
    params = m.init_params(x.shape[1], seed=int(rng.integers(0, 2**31)))
    params.norm_mean, params.norm_std = mean, std
    xv = yv = None
    if val_dataset is not None:
        xv, yv = m._stack_dataset(val_dataset)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mom = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2")}
    var = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2")}
    mom["b2"] = var["b2"] = 0.0
    steps_per_epoch = max(len(x) // cfg.batch_size, 1)
    total_steps = cfg.epochs * steps_per_epoch
    logs, best, best_srocc, step, adam_t = [], copy.deepcopy(params), -np.inf, 0, 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        losses = []
        for k in range(steps_per_epoch):
            idx = order[k * cfg.batch_size : (k + 1) * cfg.batch_size]
            loss, g = old_backward(params, x[idx], y[idx], cfg.lambda_rank)
            losses.append(loss)
            lr = cfg.lr_head
            if cfg.schedule == "cosine":
                lr *= m._cosine_factor(step, total_steps)
            step += 1
            adam_t += 1
            for key in ("w1", "b1", "w2", "b2"):
                grad = g[key]
                mom[key] = beta1 * mom[key] + (1 - beta1) * grad
                var[key] = beta2 * var[key] + (1 - beta2) * grad * grad
                mh = mom[key] / (1 - beta1**adam_t)
                vh = var[key] / (1 - beta2**adam_t)
                upd = lr * mh / (np.sqrt(vh) + eps)
                if key == "b2":
                    params.b2 = float(params.b2 - upd)
                else:
                    setattr(params, key, getattr(params, key) - upd)
        val_s = None
        if xv is not None:
            pv, _, _, _ = m._forward(params, xv)
            val_s = float(srocc(pv, yv))
            if val_s > best_srocc:
                best_srocc = val_s
                best = copy.deepcopy(params)
        logs.append(m.EpochLog(epoch=epoch + 1, loss=float(np.mean(losses)), val_srocc=val_s))
    return (best if xv is not None else params), logs


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(np.asarray(a, dtype=float), floor)])


class TestForward:
    def test_zero_weights_bias_only(self):
        p = toy_params(d=4)
        p.w1[:] = 0
        p.w2[:] = 0
        p.b1[:] = 0
        p.b2 = 50.0
        assert m.mlp_forward(p, np.ones(4)) == 50.0

    def test_identity_toy(self):
        p = toy_params(d=1, hidden=4)
        p.w1[:] = 0
        p.w1[0, 0] = 1.0
        p.b1[:] = 0
        p.w2[:] = 0
        p.w2[0] = 1.0
        p.b2 = 0.0
        assert m.mlp_forward(p, np.array([2.0])) == 2.0  # relu(2) = 2

    def test_matches_independent_oracle(self, rng):
        p = toy_params(d=6, hidden=8, seed=3)
        p.norm_mean = rng.normal(size=6)
        p.norm_std = np.abs(rng.normal(size=6)) + 0.5
        for _ in range(5):
            f = rng.normal(size=6)
            assert m.mlp_forward(p, f) == pytest.approx(naive_forward(p, f), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            m.mlp_forward(toy_params(d=4), np.ones(5))


class TestPlccLoss:
    def test_perfect_correlation(self):
        v = np.array([1.0, 2.0, 3.0, 5.0])
        assert m.plcc_loss(v, v) == 0.0

    def test_perfect_anticorrelation(self):
        v = np.array([1.0, 2.0, 3.0, 5.0])
        assert m.plcc_loss(-v, v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_example(self):
        pred = np.array([1.0, 2.0, 3.0, 5.0])
        mos = np.array([2.0, 4.0, 6.0, 7.0])
        # independent covariance-formula oracle
        pc = pred - pred.mean()
        mc = mos - mos.mean()
        r = float(pc @ mc) / np.sqrt(float(pc @ pc) * float(mc @ mc))
        assert m.plcc_loss(pred, mos) == pytest.approx((1 - r) / 2, abs=1e-12)

    def test_constant_pred_defines_half(self):
        assert m.plcc_loss(np.array([3.0, 3.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.5

    def test_constant_mos_raises(self):
        with pytest.raises(DegenerateBatch):
            m.plcc_loss(np.array([1.0, 2.0]), np.array([5.0, 5.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            m.plcc_loss(np.ones(3), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0), st.integers(0, 2**32 - 1))
    def test_positive_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=6)
        mos = rng.normal(size=6)
        base = m.plcc_loss(pred, mos)
        assert m.plcc_loss(a * pred + b, mos) == pytest.approx(base, abs=1e-10)

    def test_negative_scaling_flips(self, rng):
        pred = rng.normal(size=8)
        mos = rng.normal(size=8)
        assert m.plcc_loss(-pred, mos) == pytest.approx(1 - m.plcc_loss(pred, mos), abs=1e-10)


class TestRankLoss:
    def test_zero_at_exact_match(self):
        v = np.array([0.0, 3.0, 7.0])
        assert m.rank_loss(v, v) == 0.0

    def test_constant_pred(self):
        # pairs (0,1) and (1,0) each contribute |0-10| -> 20/4
        assert m.rank_loss(np.array([5.0, 5.0]), np.array([0.0, 10.0])) == 5.0

    def test_reversed_pred(self):
        assert m.rank_loss(np.array([10.0, 0.0]), np.array([0.0, 10.0])) == 10.0

    def test_enumeration_oracle(self, rng):
        pred = rng.normal(size=5)
        mos = rng.normal(size=5)
        total = 0.0
        for i in range(5):
            for j in range(5):
                e = 1.0 if mos[i] >= mos[j] else -1.0
                total += max(0.0, abs(mos[i] - mos[j]) - e * (pred[i] - pred[j]))
        assert m.rank_loss(pred, mos) == pytest.approx(total / 25.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        assert m.rank_loss(rng.normal(size=6), rng.normal(size=6)) >= 0.0


class TestLossTotal:
    def test_zero_at_match(self):
        v = np.array([1.0, 4.0, 9.0])
        for lam in (0.0, 0.3, 1.0):
            assert m.loss_total(v, v, lam) == 0.0

    def test_lambda_zero_equals_plcc(self, rng):
        pred = rng.normal(size=6)
        mos = rng.normal(size=6)
        assert m.loss_total(pred, mos, 0.0) == m.plcc_loss(pred, mos)

    def test_paper_weighting(self):
        # components (0.5, 5.0): constant pred vs spread targets
        pred = np.array([5.0, 5.0])
        mos = np.array([0.0, 10.0])
        assert m.plcc_loss(pred, mos) == 0.5
        assert m.rank_loss(pred, mos) == 5.0
        assert m.loss_total(pred, mos, 0.3) == pytest.approx(2.0, abs=1e-12)

    def test_additivity(self, rng):
        pred = rng.normal(size=8)
        mos = rng.normal(size=8)
        for lam in (0.0, 0.3, 1.0):
            expect = m.plcc_loss(pred, mos) + lam * m.rank_loss(pred, mos)
            assert m.loss_total(pred, mos, lam) == pytest.approx(expect, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=7)
        mos = rng.normal(size=7)
        perm = rng.permutation(7)
        a = m.loss_total(pred, mos, 0.3)
        b = m.loss_total(pred[perm], mos[perm], 0.3)
        assert a == pytest.approx(b, abs=1e-12)


class TestLossOracles:
    """plcc_loss, rank_loss and loss_total wrap the training core's loss
    terms; they stay bit-identical to the standalone versions."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    def test_bit_identical(self, seed, n, ties):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=n) * rng.uniform(0.01, 50)
        mos = rng.uniform(0, 100, size=n)
        if ties:
            pred = np.round(pred)
            mos = np.round(mos / 25.0)
        if np.ptp(mos) == 0:
            mos[0] += 1.0
        assert m.plcc_loss(pred, mos) == old_plcc_loss(pred, mos)
        assert m.rank_loss(pred, mos) == old_rank_loss(pred, mos)
        for lam in (0.0, 0.3, 1.7):
            want = old_plcc_loss(pred, mos) + lam * old_rank_loss(pred, mos)
            assert m.loss_total(pred, mos, lam) == want

    def test_constant_prediction_and_targets(self):
        pred, mos = np.full(5, 3.0), np.array([1.0, 4.0, 2.0, 2.0, 9.0])
        assert m.plcc_loss(pred, mos) == old_plcc_loss(pred, mos) == 0.5
        assert m.rank_loss(pred, mos) == old_rank_loss(pred, mos)
        assert m.rank_loss(mos, np.ones(5)) == old_rank_loss(mos, np.ones(5))
        with pytest.raises(DegenerateBatch):
            m.loss_total(mos, np.ones(5), 0.3)

    @pytest.mark.parametrize("loss", [m.plcc_loss, m.rank_loss, lambda p, q: m.loss_total(p, q, 0.3)])
    def test_non_finite_rejected(self, loss):
        # the losses share evaluation's input check
        with pytest.raises(DegenerateInput):
            loss(np.array([1.0, np.nan, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestBackward:
    def test_zero_gradient_at_minimum(self):
        p = toy_params(d=3, hidden=4, seed=1)
        x = np.eye(3)
        pred, _, _, _ = m._forward(p, x)
        loss, g = m.backward(p, x, pred, lambda_rank=0.3)
        assert loss == pytest.approx(0.0, abs=1e-12)
        norm = np.sqrt(
            np.sum(g.w1**2) + np.sum(g.b1**2) + np.sum(g.w2**2) + g.b2**2
        )
        assert norm < 1e-8

    def test_gradient_additivity_in_lambda(self, rng):
        p = toy_params(d=4, hidden=6, seed=2)
        x = rng.normal(size=(4, 4))
        y = rng.normal(size=4)
        _, g0 = m.backward(p, x, y, lambda_rank=0.0)
        _, g1 = m.backward(p, x, y, lambda_rank=1.0)
        _, g3 = m.backward(p, x, y, lambda_rank=0.3)
        for key in ("w1", "b1", "w2"):
            expect = getattr(g0, key) + 0.3 * (getattr(g1, key) - getattr(g0, key))
            assert np.allclose(getattr(g3, key), expect, atol=1e-12)

    def test_matches_naive_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = toy_params(d=5, hidden=6, seed=seed)
            x = rng.normal(size=(4, 5))
            y = rng.normal(size=4) * 10
            _, g = m.backward(p, x, y, lambda_rank=0.3)
            fd = naive_fd_gradients(p, x, y, 0.3)
            for key in ("w1", "b1", "w2"):
                assert np.max(rel_err(getattr(g, key), fd[key])) < 1e-4, (seed, key)
            assert rel_err(np.array(g.b2), np.array(fd["b2"])) < 1e-4

    def test_constant_mos_zeroes_plcc_gradient(self):
        p = toy_params(d=3, hidden=4, seed=4)
        x = np.eye(3)
        y = np.array([5.0, 5.0, 5.0])
        loss, g = m.backward(p, x, y, lambda_rank=0.0)
        assert loss == 0.5
        assert np.all(g.w1 == 0) and np.all(g.w2 == 0) and g.b2 == 0.0


class TestTrain:
    def _dataset(self, n=24, d=10, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = x @ w + 0.05 * rng.normal(size=n)
        return [(x[i], float(y[i])) for i in range(n)]

    def test_zero_learning_rate_keeps_params(self):
        data = self._dataset()
        cfg = m.TrainConfig(epochs=2, lr_head=0.0, seed=5)
        params, _ = m.train(data, cfg)
        fresh_rng = np.random.default_rng(5)
        reference = m.init_params(10, seed=int(fresh_rng.integers(0, 2**31)))
        assert np.array_equal(params.w1, reference.w1)
        assert np.array_equal(params.w2, reference.w2)
        assert params.b2 == reference.b2

    def test_seeded_run_reproducible(self):
        data = self._dataset()
        cfg = m.TrainConfig(epochs=3, seed=9)
        p1, logs1 = m.train(data, cfg)
        p2, logs2 = m.train(data, cfg)
        assert [l.loss for l in logs1] == [l.loss for l in logs2]
        assert np.array_equal(p1.w1, p2.w1)

    def test_loss_decreases_on_separable_data(self):
        data = self._dataset(n=48, seed=3)
        cfg = m.TrainConfig(epochs=20, seed=1)
        _, logs = m.train(data, cfg)
        assert logs[-1].loss < logs[0].loss

    def test_best_validation_params_returned(self):
        data = self._dataset(n=32, seed=4)
        val = self._dataset(n=12, seed=5)
        cfg = m.TrainConfig(epochs=5, seed=2)
        params, logs = m.train(data, cfg, val)
        assert all(l.val_srocc is not None for l in logs)

    def test_too_small_dataset(self):
        with pytest.raises(InsufficientData):
            m.train(self._dataset(n=7), m.TrainConfig())

    def test_constant_targets_rejected(self):
        data = [(np.ones(4) * i, 5.0) for i in range(10)]
        with pytest.raises(InsufficientData):
            m.train(data, m.TrainConfig())


class TestTrainMatchesOldLoop:
    """The flat-buffer Adam against the per-parameter loop it replaced: the
    same elementwise operations in the same order, so results are equal."""

    @staticmethod
    def _data(n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 7)) * rng.uniform(0.5, 3.0, size=7)
        y = x @ rng.normal(size=7) + rng.normal(size=n)
        return [(x[i], float(y[i])) for i in range(n)]

    @pytest.mark.parametrize("batch_size", [2, 3, 4])
    @pytest.mark.parametrize("schedule", ["cosine", "constant"])
    @pytest.mark.parametrize("lambda_rank", [0.0, 0.3])
    @pytest.mark.parametrize("with_val", [False, True])
    def test_equal_params_logs_and_checkpoint(self, tmp_path, batch_size, schedule,
                                              lambda_rank, with_val):
        data = self._data(23, seed=batch_size)
        val = self._data(9, seed=100 + batch_size) if with_val else None
        cfg = m.TrainConfig(lambda_rank=lambda_rank, epochs=4, batch_size=batch_size,
                            lr_head=5e-3, seed=batch_size + 10, schedule=schedule)
        got, got_logs = m.train(data, cfg, val)
        want, want_logs = old_train(data, cfg, val)
        for key in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert type(got.b2) is float and got.b2 == want.b2
        assert got_logs == want_logs
        m.save_checkpoint(got, tmp_path / "new.ckpt", cfg)
        m.save_checkpoint(want, tmp_path / "old.ckpt", cfg)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()

    def test_backward_fills_the_given_buffer(self, rng):
        p = toy_params(d=5, hidden=6, seed=3)
        x, y = rng.normal(size=(4, 5)), rng.normal(size=4)
        out = np.full(6 * 5 + 6 + 6 + 1, np.nan)
        loss, g = m.backward(p, x, y, 0.3, out=out)
        want_loss, want = old_backward(p, x, y, 0.3)
        assert loss == want_loss
        assert np.array_equal(out, np.concatenate([want["w1"].ravel(), want["b1"], want["w2"],
                                                   [want["b2"]]]))
        assert np.shares_memory(g.w1, out) and np.shares_memory(g.b2, out)


@pytest.fixture(scope="module")
def video():
    return gen_dataset(10, amplitude_ladder=[1.5], seed=8, length=20,
                       frame_size=(64, 48))[0]


class TestPredictVideo:

    def test_single_clip_equivalence(self, video):
        d = 16 + 8 * 8 + 2 * 4
        params = m.init_params(d, seed=0)
        one = m.predict_video(params, video.seq, n_clips=1, seed=3, n=8, tau=2,
                              grid=6, tau_b=4)
        from stabilitykit.features import clip_features, fuse
        from stabilitykit.media import sample_clip

        clip_seed = int(np.random.default_rng(3).integers(0, 2**31, size=1)[0])
        clip = sample_clip(video.seq, n=8, tau=2, seed=clip_seed)
        direct = m.mlp_forward(params, fuse(clip_features(clip, grid=6, tau_b=4)).f)
        assert one == pytest.approx(direct, abs=1e-12)

    def test_too_short_video(self, video):
        params = m.init_params(288, seed=0)
        with pytest.raises(InsufficientFrames):
            m.predict_video(params, video.seq, n_clips=1, seed=0, n=32, tau=2)

    @pytest.mark.parametrize("n_clips", [0, -1])
    def test_no_clips_rejected(self, video, n_clips):
        params = m.init_params(16 + 8 * 8 + 2 * 4, seed=0)
        with pytest.raises(ConfigError):
            m.predict_video(params, video.seq, n_clips=n_clips, n=8, tau=2, grid=6,
                            tau_b=4)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        p = toy_params(d=7, hidden=5, seed=6)
        p.norm_mean = rng.normal(size=7)
        p.norm_std = np.abs(rng.normal(size=7)) + 0.1
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(p, path, m.TrainConfig())
        q = m.load_checkpoint(path)
        assert q.input_dim == 7
        assert np.allclose(q.w1, p.w1, atol=1e-6)
        assert np.allclose(q.w2, p.w2, atol=1e-6)
        assert np.allclose(q.norm_mean, p.norm_mean, atol=1e-12)
        assert q.b2 == pytest.approx(p.b2, abs=1e-6)

    def test_truncated_weights(self, tmp_path):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(toy_params(d=7, hidden=5), path)
        data = path.read_bytes()
        for cut in (1, 4, 10):
            path.write_bytes(data[:-cut])
            with pytest.raises(TruncatedError):
                m.load_checkpoint(path)

    @pytest.mark.parametrize("field", ["norm_mean", "norm_std"])
    def test_norm_stats_length_mismatch(self, tmp_path, field):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(toy_params(d=7, hidden=5), path)
        header, blob = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        meta[field] = meta[field][:-1]
        path.write_bytes(json.dumps(meta).encode() + b"\n" + blob)
        with pytest.raises(ParseError, match="norm stats"):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: [meta],
        lambda meta: dict(meta, input_dim=-1, norm_mean=[], norm_std=[]),
        lambda meta: dict(meta, hidden="five"),
    ])
    def test_malformed_header(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(toy_params(d=7, hidden=5), path)
        header, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)
        with pytest.raises(ParseError):
            m.load_checkpoint(path)

    def test_config_hash_pinned(self):
        # the value of the hand-written TrainConfig.as_dict before dataclasses.asdict
        assert m.config_hash(m.TrainConfig()) == "e75f530214d29593"
        assert m.config_hash(None) == ""

    def test_bytes_match_old_writer(self, tmp_path, rng):
        p = toy_params(d=9, hidden=6, seed=3)
        p.b2 = -0.4375
        p.norm_mean = rng.normal(size=9)
        p.norm_std = np.abs(rng.normal(size=9)) + 0.1
        cfg = m.TrainConfig(lambda_rank=0.5, epochs=7, batch_size=3, lr_head=2e-3, seed=11)
        payload = {"lambda_rank": 0.5, "epochs": 7, "batch_size": 3, "lr_head": 2e-3,
                   "seed": 11, "schedule": "cosine"}
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(p, path, cfg)
        assert path.read_bytes() == old_checkpoint_bytes(p, payload)


    def test_log_csv(self, tmp_path):
        logs = [m.EpochLog(1, 0.5, None), m.EpochLog(2, 0.25, 0.9)]
        path = tmp_path / "log.csv"
        m.save_training_log(logs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,val_srocc"
        assert lines[1].startswith("1,0.5")
        assert lines[2].endswith("0.9")
