import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import csv_bytes
from stabilitykit import mos
from stabilitykit.errors import ConfigError, EmptyAfterCleaning, InsufficientRatings, ParseError, StabilityKitError


def table_from_matrix(matrix, subjects=None, videos=None):
    records = []
    s_names = subjects or [f"s{i}" for i in range(matrix.shape[0])]
    v_names = videos or [f"v{j}" for j in range(matrix.shape[1])]
    for i, s in enumerate(s_names):
        for j, v in enumerate(v_names):
            if not np.isnan(matrix[i, j]):
                records.append((s, v, float(matrix[i, j])))
    return mos.RatingsTable.from_records(records)


def planted_outlier_table(seed=17, n_videos=20, n_honest=10, offset=50.0):
    """Honest raters around a latent score; one subject far off on 19 videos."""
    rng = np.random.default_rng(seed)
    latent = rng.uniform(20, 80, size=n_videos)
    rows = np.clip(
        latent[None, :] + rng.normal(0, 3.0, size=(n_honest, n_videos)), 0, 100
    )
    bad = latent.copy()
    bad[:19] = np.where(latent[:19] <= 50, latent[:19] + offset, latent[:19] - offset)
    matrix = np.vstack([rows, np.clip(bad, 0, 100)[None, :]])
    subjects = [f"s{i}" for i in range(n_honest)] + ["planted"]
    return table_from_matrix(matrix, subjects=subjects)


class TestComputeMos:
    def test_two_raters(self):
        table = table_from_matrix(np.array([[40.0], [60.0]]))
        result = mos.compute_mos(table)
        assert result.mos[0] == 50.0
        assert result.std[0] == 10.0
        assert result.n[0] == 2

    def test_full_agreement(self):
        table = table_from_matrix(np.full((5, 3), 70.0))
        result = mos.compute_mos(table)
        assert np.all(result.mos == 70.0) and np.all(result.std == 0.0)

    def test_population_std(self):
        table = table_from_matrix(np.array([[10.0], [20.0], [30.0], [40.0]]))
        result = mos.compute_mos(table)
        assert result.mos[0] == 25.0
        assert result.std[0] == pytest.approx(np.sqrt(125.0), abs=1e-9)
        assert result.std[0] == pytest.approx(11.1803, abs=1e-4)

    def test_single_rating_rejected(self):
        matrix = np.array([[50.0, 60.0], [55.0, np.nan]])
        with pytest.raises(InsufficientRatings):
            mos.compute_mos(table_from_matrix(matrix))

    def test_order_invariance(self, rng):
        matrix = rng.uniform(0, 100, size=(6, 5))
        base = mos.compute_mos(table_from_matrix(matrix))
        perm_s = rng.permutation(6)
        perm_v = rng.permutation(5)
        shuffled = table_from_matrix(
            matrix[np.ix_(perm_s, perm_v)],
            subjects=[f"s{i}" for i in perm_s],
            videos=[f"v{j}" for j in perm_v],
        )
        other = mos.compute_mos(shuffled)
        lookup = dict(zip(other.videos, other.mos))
        for vid, value in zip(base.videos, base.mos):
            assert lookup[vid] == pytest.approx(value, abs=1e-12)


class TestRejectOutliers:
    def test_planted_subject_rejected(self):
        result = mos.reject_outlier_subjects(planted_outlier_table())
        assert result.rejected_subjects == ["planted"]

    @pytest.mark.parametrize("bad", [
        {"outlier_sigma": -1.0}, {"outlier_sigma": 0.0}, {"outlier_sigma": float("nan")},
        {"max_outlier_frac": 1.5}, {"max_outlier_frac": -0.1}, {"max_outlier_frac": float("nan")},
    ], ids=["sigma-negative", "sigma-0", "sigma-nan", "frac-1.5", "frac-negative", "frac-nan"])
    def test_bad_settings_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            mos.reject_outlier_subjects(planted_outlier_table(), **bad)

    def test_identical_ratings_keep_everyone(self):
        table = table_from_matrix(np.full((6, 4), 42.0))
        result = mos.reject_outlier_subjects(table)
        assert result.rejected_subjects == []

    def test_exactly_five_percent_is_retained(self):
        # 20 videos at 5% -> exactly 1 outlier must NOT reject (strict >)
        rng = np.random.default_rng(3)
        latent = rng.uniform(30, 60, size=20)
        offsets = np.linspace(-1.0, 1.0, 9)  # tight, bounded rater spread
        honest = latent[None, :] + offsets[:, None]
        edge = latent.copy()
        edge[0] = latent[0] + 40.0  # single gross outlier
        matrix = np.vstack([honest, edge[None, :]])
        table = table_from_matrix(np.clip(matrix, 0, 100))
        result = mos.reject_outlier_subjects(table)
        assert result.rejected_subjects == []

    def test_unaffected_videos_keep_their_mos(self):
        table = planted_outlier_table()
        cleaned = mos.reject_outlier_subjects(table)
        # video 19 got no planted rating offset; its MOS uses all 11 subjects
        # minus the rejected one, which never contributed an outlier there
        plain = mos.compute_mos(table)
        idx = table.videos.index("v19")
        assert cleaned.mos[idx] != plain.mos[idx]  # planted subject removed

    def test_all_rejected(self):
        # 6 subjects, each spiking on 2 of 20 videos (10% > 5% threshold).
        # Note a 2-sigma outlier needs >= 6 raters at all: the max z-score
        # over n samples is (n-1)/sqrt(n).
        rng = np.random.default_rng(5)
        latent = rng.uniform(25, 45, size=20)
        offsets = np.linspace(-1.0, 1.0, 6)
        matrix = latent[None, :] + offsets[:, None]
        for s in range(6):
            matrix[s, 2 * s] = latent[2 * s] + 50.0
            matrix[s, 2 * s + 1] = latent[2 * s + 1] + 50.0
        with pytest.raises(EmptyAfterCleaning):
            mos.reject_outlier_subjects(table_from_matrix(np.clip(matrix, 0, 100)))

    def test_determinism(self):
        a = mos.reject_outlier_subjects(planted_outlier_table())
        b = mos.reject_outlier_subjects(planted_outlier_table())
        assert a.rejected_subjects == b.rejected_subjects
        assert np.array_equal(a.mos, b.mos)


class TestCsvIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "subject_id,video_id,score,session\n"
            "s0,v0,50,1\ns1,v0,70,1\ns0,v1,20,1\ns1,v1,40,2\n"
        )
        table = mos.RatingsTable.from_csv(path)
        assert table.subjects == ["s0", "s1"]
        assert table.videos == ["v0", "v1"]
        result = mos.compute_mos(table)
        out = tmp_path / "mos.csv"
        mos.write_mos_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "video_id,mos,std,n"
        assert lines[1].startswith("v0,60,")

    def test_out_of_range_rating(self):
        with pytest.raises(ParseError):
            mos.RatingsTable.from_records([("s0", "v0", 160.0)])

    def test_repeated_presentation_keeps_first(self):
        table = mos.RatingsTable.from_records(
            [("s0", "v0", 10.0, "1"), ("s0", "v0", 30.0, "2"), ("s1", "v0", 20.0, "1")]
        )
        assert table.scores[0, 0] == 10.0

    @settings(max_examples=300, deadline=None)
    @given(csv_bytes)
    def test_fuzz_raises_only_library_errors(self, data):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "ratings.csv")
            path.write_bytes(data)
            with contextlib.suppress(StabilityKitError):
                table = mos.RatingsTable.from_csv(path)
                assert table.scores.shape == (len(table.subjects), len(table.videos))
