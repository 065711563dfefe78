import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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


def dense_krcc(a, b):
    """The former O(n^2)-memory tau-b, kept verbatim as a bit-exact oracle."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sa = np.sign(a[:, None] - a[None, :])
    sb = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(len(a), k=1)
    prod = sa[iu] * sb[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    n0 = len(a) * (len(a) - 1) // 2
    ties_a = int(np.sum(sa[iu] == 0))
    ties_b = int(np.sum(sb[iu] == 0))
    denom = np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))
    return (concordant - discordant) / denom


def loop_ranks(x):
    """The former while-loop average ranks, kept as a bit-exact oracle."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def tie_heavy(rng, n):
    """Integer-valued vectors with few levels, zeros of both signs, and a
    real-valued companion half of the time."""
    a = rng.integers(-3, 4, size=n).astype(float)
    b = rng.integers(-2, int(rng.integers(0, 7)), size=n).astype(float)
    if rng.random() < 0.5:
        b += np.round(rng.normal(size=n), 1)
    for v in (a, b):
        zero = v == 0
        v[zero] = np.where(rng.random(int(np.sum(zero))) < 0.5, 0.0, -0.0)
    return a, b


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


class TestFastRankKernels:
    def test_krcc_bit_identical_to_dense(self):
        rng = np.random.default_rng(20231)
        for n in list(range(3, 40)) + [64, 127, 128, 129, 255, 333, 500]:
            for _ in range(4):
                a, b = tie_heavy(rng, n)
                if np.ptp(a) == 0 or np.ptp(b) == 0:
                    continue
                assert ev.krcc(a, b) == dense_krcc(a, b)
                assert ev.krcc(b, a) == dense_krcc(b, a)

    def test_signed_zeros_tie(self):
        a = np.array([0.0, -0.0, 1.0, -0.0, 2.0])
        b = np.array([-0.0, 0.0, 0.0, 3.0, 1.0])
        assert ev.krcc(a, b) == dense_krcc(a, b)
        assert ev.average_ranks(a).tolist() == [2.0, 2.0, 4.0, 2.0, 5.0]

    def test_ranks_identical_to_loop(self):
        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 5, 17, 500):
            a, b = tie_heavy(rng, n)
            assert np.array_equal(ev.average_ranks(a), loop_ranks(a))
            assert np.array_equal(ev.average_ranks(b), loop_ranks(b))

    def test_strict_inversions_brute_force(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 8, 9, 31, 100):
            r = rng.integers(0, 5, size=n)
            brute = sum(int(r[i] > r[j]) for i in range(n) for j in range(i + 1, n))
            assert ev._strict_inversions(r, 5) == brute

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for n in (3, 10, 200, 3000):
            a = np.round(rng.normal(size=n), 1)
            b = np.round(a + rng.normal(size=n), 1)
            assert ev.krcc(a, b) == pytest.approx(stats.kendalltau(a, b)[0], abs=1e-12)
            assert ev.srocc(a, b) == pytest.approx(stats.spearmanr(a, b)[0], abs=1e-12)
            assert np.array_equal(ev.average_ranks(a), stats.rankdata(a))

    def test_evaluate_20k_memory_is_linear(self):
        # dense sign matrices would need 2 x 3.2 GB at this size
        rng = np.random.default_rng(2)
        mos = np.round(rng.uniform(1, 99, 20000), 2)
        pred = np.round(mos / 100 + rng.normal(0, 0.05, 20000), 6)
        tracemalloc.start()
        try:
            report = ev.evaluate(pred, mos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert report.krcc == pytest.approx(stats.kendalltau(pred, mos)[0], abs=1e-12)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about 0.5 s of import time on every CLI call
        src = str(Path(ev.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import stabilitykit.cli; "
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", code, src], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "stat", [ev.pearson, ev.srocc, ev.krcc, ev.rmse, ev.logistic_fit, ev.evaluate]
    )
    def test_rejected(self, stat, bad):
        a = np.arange(8.0)
        b = a**2
        a[3] = bad
        with pytest.raises(DegenerateInput):
            stat(a, b)
        with pytest.raises(DegenerateInput):
            stat(b, a)


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
