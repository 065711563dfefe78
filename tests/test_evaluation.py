import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilitykit import evaluation as ev
from stabilitykit.errors import DegenerateInput, DimensionMismatch


def brute_srocc(a, b):
    """Definitional oracle: ranks by comparison counting, Pearson by the
    covariance formula."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def ranks(x):
        out = np.empty(len(x))
        for i, xi in enumerate(x):
            less = sum(1 for xj in x if xj < xi)
            equal = sum(1 for j, xj in enumerate(x) if xj == xi and j != i)
            out[i] = 1.0 + less + equal / 2.0
        return out

    ra, rb = ranks(a), ranks(b)
    ca = ra - ra.mean()
    cb = rb - rb.mean()
    return float(ca @ cb) / np.sqrt(float(ca @ ca) * float(cb @ cb))


def brute_krcc(a, b):
    """Definitional tau-b oracle: explicit double loop over pairs."""
    n = len(a)
    conc = disc = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da * db > 0:
                conc += 1
            elif da * db < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))


class TestSrocc:
    def test_identity(self):
        v = np.array([1.0, 5.0, 2.0, 9.0])
        assert ev.srocc(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert ev.srocc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_ranks(self):
        # ranks of [1,1,2] are (1.5, 1.5, 3); Pearson vs (1,2,3) = sqrt(3)/2
        value = ev.srocc([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert value == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_constant_vector(self):
        with pytest.raises(DegenerateInput):
            ev.srocc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_monotone_transform_invariance(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        base = ev.srocc(a, b)
        assert ev.srocc(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert ev.srocc(a, b**3) == pytest.approx(ev.srocc(a, b), abs=1e-12)


class TestKrcc:
    def test_identity(self):
        assert ev.krcc([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert ev.krcc([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_single_swap(self):
        # pairs: 5 concordant, 1 discordant out of 6
        assert ev.krcc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-12)

    def test_all_tied(self):
        with pytest.raises(DegenerateInput):
            ev.krcc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestRankOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    def test_match_brute_force_with_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        b = rng.integers(0, 4, size=n).astype(float)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            return
        assert ev.srocc(a, b) == pytest.approx(brute_srocc(a, b), abs=1e-12)
        assert ev.krcc(a, b) == pytest.approx(brute_krcc(a, b), abs=1e-12)


class TestRmse:
    def test_zero(self):
        v = np.array([1.0, 2.0])
        assert ev.rmse(v, v) == 0.0

    def test_hand_computed(self):
        assert ev.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_constant_offset(self):
        v = np.array([5.0, 9.0, 1.0])
        assert ev.rmse(v, v + 7.0) == pytest.approx(7.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ev.rmse([1.0], [1.0, 2.0])


class TestLogisticFit:
    def test_noiseless_refit(self, rng):
        beta_true = np.array([92.0, 8.0, 0.4, 0.25])
        pred = rng.uniform(-1, 2, size=40)
        mos = ev.logistic_4pl(pred, beta_true)
        beta, mapped = ev.logistic_fit(pred, mos)
        sse = float(np.sum((mapped - mos) ** 2))
        assert sse < 1e-6

    def test_monotone_mapping_preserves_order(self, rng):
        pred = np.sort(rng.uniform(0, 10, size=30))
        mos = 10 + 80 / (1 + np.exp(-(pred - 5)))
        _, mapped = ev.logistic_fit(pred, mos)
        assert np.all(np.diff(mapped) >= -1e-9)

    def test_noise_fit_is_bounded(self, rng):
        pred = rng.normal(size=50)
        mos = rng.uniform(0, 100, size=50)
        beta, mapped = ev.logistic_fit(pred, mos)
        assert np.all(np.isfinite(beta))
        eps = 1.0
        assert mapped.min() >= mos.min() - eps and mapped.max() <= mos.max() + eps

    def test_constant_pred(self):
        with pytest.raises(DegenerateInput):
            ev.logistic_fit(np.ones(6), np.arange(6.0))

    def test_flat_fit_is_refit_from_mirrored_init(self):
        # validation predictions anti-correlated with MOS: the increasing
        # init saturates the sigmoid and maps every point to one value
        pred = np.array([-8.7571, -8.8092, 0.0332, -8.3723, -5.2507])
        mos = np.array([65.181, 50.626, 24.072, 65.662, 63.13])
        beta, mapped = ev.logistic_fit(pred, mos)
        assert np.ptp(mapped) > 0
        assert beta[0] < beta[1]  # decreasing mapping
        assert float(np.sum((mapped - mos) ** 2)) < 200.0
        assert ev.evaluate(pred, mos).plcc > 0.9

    def test_non_flat_fit_runs_no_refit(self, rng, monkeypatch):
        calls = []
        minimize = ev.minimize
        monkeypatch.setattr(ev, "minimize", lambda *a, **k: calls.append(1) or minimize(*a, **k))
        mos = rng.uniform(0, 100, size=10)
        ev.logistic_fit(mos + rng.normal(size=10), mos)
        assert len(calls) == 2


class TestEvaluate:
    def test_perfect_prediction(self, rng):
        mos = rng.uniform(0, 100, size=20)
        report = ev.evaluate(mos, mos)
        assert report.srocc == pytest.approx(1.0, abs=1e-12)
        assert report.krcc == pytest.approx(1.0, abs=1e-12)
        assert report.plcc == pytest.approx(1.0, abs=1e-9)
        assert report.rmse == pytest.approx(0.0, abs=1e-4)

    def test_monotone_nonlinear_mapping_helps_plcc(self, rng):
        mos = np.sort(rng.uniform(1, 100, size=40))
        pred = np.cbrt(mos)  # monotone, strongly nonlinear
        report = ev.evaluate(pred, mos)
        raw_plcc = ev.pearson(pred, mos)
        assert report.srocc == pytest.approx(1.0, abs=1e-12)
        assert report.krcc == pytest.approx(1.0, abs=1e-12)
        assert report.plcc > raw_plcc

    def test_anticorrelated(self, rng):
        mos = rng.uniform(0, 100, size=12)
        report = ev.evaluate(-mos, mos)
        assert report.srocc == pytest.approx(-1.0, abs=1e-12)

    def test_report_fields(self, rng):
        mos = rng.uniform(0, 100, size=10)
        d = ev.evaluate(mos + rng.normal(size=10), mos).as_dict()
        assert set(d) == {"srocc", "plcc", "krcc", "rmse", "logistic_beta"}
        assert len(d["logistic_beta"]) == 4
