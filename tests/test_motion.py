import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import shaky_video, textured_frame, textured_plane
from stabilitykit import motion
from stabilitykit.errors import (
    ConfigError,
    DegenerateScene,
    DimensionMismatch,
    TrackingFailure,
    UnderDetermined,
)
from stabilitykit.media import FrameSequence
from stabilitykit.motion import (
    MotionParams,
    Trajectory,
    accumulate_trajectory,
    detect_corners,
    estimate_motion,
    grid_flow_sequence,
    track_lk,
    video_trajectory,
)
from stabilitykit.synth import render_shaky


def naive_min_eig(luma):
    """Exhaustive oracle for the corner response: explicit loops over the
    same 5x5 structure tensor that the detector vectorizes."""
    luma = luma.astype(np.float64)
    gy, gx = np.gradient(luma)
    h, w = luma.shape
    resp = np.zeros((h, w))
    for y in range(2, h - 2):
        for x in range(2, w - 2):
            sxx = syy = sxy = 0.0
            for dy in range(-2, 3):
                for dx in range(-2, 3):
                    a = gx[y + dy, x + dx]
                    b = gy[y + dy, x + dx]
                    sxx += a * a
                    syy += b * b
                    sxy += a * b
            sxx /= 25.0
            syy /= 25.0
            sxy /= 25.0
            tr = 0.5 * (sxx + syy)
            resp[y, x] = tr - np.sqrt(max(0.25 * (sxx - syy) ** 2 + sxy * sxy, 0.0))
    return resp


def shift_pair(seed=0, shift=(3, 0), size=(128, 96)):
    """Wrap-free shifted frame pair cropped out of one larger base; the
    content of ``nxt`` sits ``shift`` pixels further along than in ``prev``."""
    w, h = size
    dx, dy = shift
    base = textured_plane(seed, w + 2 * abs(dx) + 4, h + 2 * abs(dy) + 4)
    x0, y0 = abs(dx) + 2, abs(dy) + 2
    prev = base[y0 : y0 + h, x0 : x0 + w]
    nxt = base[y0 - dy : y0 - dy + h, x0 - dx : x0 - dx + w]
    return prev, nxt


def pair_flow(prev, nxt, grid=8):
    """The flow field of one pair: grid_flow_sequence on its two-frame stack."""
    return grid_flow_sequence(np.stack([prev, nxt]), grid)[0]


def to_frame(plane):
    """A float plane of whole gray levels as a stored uint8 luma frame."""
    return plane.astype(np.uint8)


def loop_homography_dlt(p0, p1):
    """Reference single-fit normalized DLT: the per-hypothesis solve that the
    batched _homography_dlt replaced; None marks an invalid fit."""

    def normalize(p):
        c = p.mean(axis=0)
        d = np.sqrt(((p - c) ** 2).sum(axis=1)).mean()
        if d < 1e-9:
            return None, None
        s = np.sqrt(2.0) / d
        t = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1.0]])
        return (p - c) * s, t

    n0, t0 = normalize(p0)
    n1, t1 = normalize(p1)
    if n0 is None or n1 is None:
        return None
    m = len(p0)
    a = np.zeros((2 * m, 9))
    x, y = n0[:, 0], n0[:, 1]
    u, v = n1[:, 0], n1[:, 1]
    a[0::2] = np.c_[x, y, np.ones(m), np.zeros((m, 3)), -u * x, -u * y, -u]
    a[1::2] = np.c_[np.zeros((m, 3)), x, y, np.ones(m), -v * x, -v * y, -v]
    _, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-12:
        return None
    h = np.linalg.inv(t1) @ vt[-1].reshape(3, 3) @ t0
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def loop_ransac_homography(p0, p1, samples, inlier_px):
    """Reference RANSAC: one DLT and one projection per hypothesis in a
    Python loop; strict '>' keeps the earliest of tied counts."""
    best_count, best_row, best_inl = -1, None, None
    for i, row in enumerate(samples):
        h = loop_homography_dlt(p0[row], p1[row])
        if h is None:
            continue
        inl = np.linalg.norm(apply_h(h, p0) - p1, axis=1) <= inlier_px
        if int(inl.sum()) > best_count:
            best_count, best_row, best_inl = int(inl.sum()), i, inl
    if best_inl is None or best_count < 4:
        raise UnderDetermined("fewer than 4 inlier matches for homography")
    h = loop_homography_dlt(p0[best_inl], p1[best_inl])
    if h is None:
        raise UnderDetermined("degenerate inlier configuration")
    return best_row, best_inl, h


def oracle_pyramid(img, levels=3, dtype=np.float64):
    """Reference per-frame pyramid of the sampled-tap LK below; each blur of
    a coarser level rounds to ``dtype``."""
    out = [img.astype(np.float64)]
    for _ in range(levels - 1):
        prev = out[-1]
        if min(prev.shape) // 2 < 2 * 7 + 3:
            break
        blurred = ndimage.correlate1d(prev, motion._BINOMIAL5, axis=0, mode="nearest", output=dtype)
        blurred = ndimage.correlate1d(blurred, motion._BINOMIAL5, axis=1, mode="nearest", output=dtype)
        out.append(blurred[::2, ::2])
    return out


def oracle_sample(img, xs, ys, dtype=np.float64):
    """Reference bilinear gather: every tap clipped, cast to ``dtype`` and
    gathered alone, and lerped in ``dtype``."""
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0).astype(dtype)
    fy = (ys - y0).astype(dtype)
    flat = img.ravel().astype(dtype)
    i00 = flat[y0 * w + x0]
    i01 = flat[y0 * w + x1]
    i10 = flat[y1 * w + x0]
    i11 = flat[y1 * w + x1]
    top = i00 + (i01 - i00) * fx
    bot = i10 + (i11 - i10) * fx
    return top + (bot - top) * fy


WIN_OFF = np.arange(-7, 8, dtype=np.float64)
WIN_X = np.tile(WIN_OFF, 15)
WIN_Y = np.repeat(WIN_OFF, 15)


def oracle_track_points(prev, nxt, pts, levels=3, max_iter=30, eps=0.01, max_residual=25.0,
                        dtype=np.float64):
    """Reference pyramidal LK of one frame pair, sampling all 225 taps of a
    window independently; returns (new_pts, ok).  Pyramid levels and samples
    are ``dtype``; sums, steps and positions are float64."""
    n = len(pts)
    h, w = prev.shape
    pyr_p = oracle_pyramid(prev, levels, dtype)
    pyr_n = oracle_pyramid(nxt, levels, dtype)
    sample = partial(oracle_sample, dtype=dtype)
    dot = partial(np.sum, axis=1, dtype=np.float64)

    def win_inside(p):
        return (p[:, 0] - 7 >= 0) & (p[:, 0] + 7 <= w - 1) & (p[:, 1] - 7 >= 0) & (
            p[:, 1] + 7 <= h - 1)

    d = np.zeros((n, 2))
    ok = win_inside(pts)
    converged = np.zeros(n, dtype=bool)
    for lev in range(len(pyr_p) - 1, -1, -1):
        scale = 2.0**lev
        p_img, n_img = pyr_p[lev], pyr_n[lev]
        p_lev = pts / scale
        d_lev = d / scale
        tx = p_lev[:, 0:1] + WIN_X[None, :]
        ty = p_lev[:, 1:2] + WIN_Y[None, :]
        tmpl = sample(p_img, tx, ty)
        # central differences of samples one tap away, each sampled alone
        gxs = (sample(p_img, tx + 1.0, ty) - sample(p_img, tx - 1.0, ty)) / 2.0
        gys = (sample(p_img, tx, ty + 1.0) - sample(p_img, tx, ty - 1.0)) / 2.0
        gxx = dot(gxs * gxs)
        gxy = dot(gxs * gys)
        gyy = dot(gys * gys)
        det = gxx * gyy - gxy * gxy
        trackable = det > 1e-9
        ok &= trackable
        det = np.where(trackable, det, 1.0)
        converged[:] = False
        rows = np.nonzero(ok)[0]
        for _ in range(max_iter):
            if len(rows) == 0:
                break
            cur = sample(n_img, tx[rows] + d_lev[rows, 0:1], ty[rows] + d_lev[rows, 1:2])
            err = cur - tmpl[rows]
            bx = -dot(gxs[rows] * err)
            by = -dot(gys[rows] * err)
            step_x = (gyy[rows] * bx - gxy[rows] * by) / det[rows]
            step_y = (gxx[rows] * by - gxy[rows] * bx) / det[rows]
            d_lev[rows, 0] += step_x
            d_lev[rows, 1] += step_y
            done = np.hypot(step_x, step_y) < eps
            converged[rows[done]] = True
            rows = rows[~done]
        d = d_lev * scale
    cur = sample(pyr_n[0], pts[:, 0:1] + d[:, 0:1] + WIN_X, pts[:, 1:2] + d[:, 1:2] + WIN_Y)
    tmpl0 = sample(pyr_p[0], pts[:, 0:1] + WIN_X, pts[:, 1:2] + WIN_Y)
    resid = np.sqrt(np.mean((cur - tmpl0) ** 2, axis=1, dtype=np.float64))
    new_pts = pts + d
    ok &= converged & win_inside(new_pts) & (resid <= max_residual)
    return new_pts, ok


H_TRUE = np.array([[1.02, 0.03, 5.0], [-0.02, 0.98, -3.0], [1e-4, -2e-4, 1.0]])


def apply_h(h, p):
    q = np.c_[p, np.ones(len(p))] @ h.T
    return q[:, :2] / q[:, 2:3]


def planted_matches(seed, m=120, outlier_frac=0.3, duplicates=4):
    """Corners in a 128x96 frame mapped through H_TRUE with 0.3 px noise,
    a share of gross outliers, and a few exactly duplicated corners so that
    some 4-point samples are degenerate."""
    rng = np.random.default_rng(seed)
    p0 = rng.uniform([8, 8], [120, 88], size=(m, 2))
    p1 = apply_h(H_TRUE, p0) + rng.normal(0, 0.3, size=(m, 2))
    bad = rng.random(m) < outlier_frac
    p1[bad] += rng.uniform(-20, 20, size=(int(bad.sum()), 2))
    p0[m - duplicates :], p1[m - duplicates :] = p0[:duplicates], p1[:duplicates]
    samples = np.argpartition(rng.random((500, m)), 3, axis=1)[:, :4]
    return p0, p1, samples


class TestDetectCorners:
    def test_constant_plane_is_degenerate(self):
        with pytest.raises(DegenerateScene):
            detect_corners(np.full((48, 48), 120.0))

    def test_small_square_corners_match_oracle(self):
        # nine 3x3 squares: one corner each at nms_radius 1, one more than
        # the least a plane must have
        luma = np.zeros((96, 96))
        square_corners = set()
        for y0 in (20, 44, 68):
            for x0 in (20, 44, 68):
                luma[y0 : y0 + 3, x0 : x0 + 3] = 255.0
                square_corners |= {(y0 + dy, x0 + dx) for dy in (0, 2) for dx in (0, 2)}
        resp = naive_min_eig(luma)
        oracle_peaks = np.argwhere(resp >= 0.999 * resp.max())

        def near_corner(y, x):  # within +-1 px per axis of some square corner
            return min(max(abs(y - cy), abs(x - cx)) for cy, cx in square_corners) <= 1

        assert all(near_corner(y, x) for y, x in oracle_peaks)
        pts = detect_corners(luma, nms_radius=1)
        assert len(pts) == 9
        assert all(near_corner(y, x) for x, y in pts)

    def test_fewer_than_eight_corners_is_degenerate(self):
        luma = np.zeros((96, 96))
        for x0 in (20, 44, 68):
            luma[40:43, x0 : x0 + 3] = 255.0
        with pytest.raises(DegenerateScene, match="only 3 corners found, need 8"):
            detect_corners(luma, nms_radius=1)

    def test_checkerboard_cap_and_border_respected(self):
        # 8 px tiles on a 160x160 plane: 19 x 19 tile corners, more than
        # the 200 the detector keeps even without the 8 px border
        tile = np.kron(np.indices((20, 20)).sum(axis=0) % 2, np.ones((8, 8))) * 255
        pts = detect_corners(tile.astype(np.float64))
        assert len(pts) == motion._MAX_CORNERS == 200
        # a corner's 15x15 LK window stays inside the plane
        assert pts.min() >= motion._LK_WIN and pts.max() <= 159 - motion._LK_WIN

    def test_sorted_by_score_descending(self):
        plane = textured_plane(3, 96, 96)
        pts = detect_corners(plane)
        resp = motion.corner_response(plane)
        scores = [resp[int(round(y)), int(round(x))] for x, y in pts]
        # allow tiny wobble from sub-pixel refinement when reading back scores
        assert all(s1 >= s2 - 1e-6 * abs(s1) for s1, s2 in zip(scores, scores[1:]))

    def test_respects_quality_floor(self):
        # a checkerboard whose right half has 100/255 of the contrast, so
        # its corners respond at (100/255)^2 < 0.5 of the left half's
        plane = np.kron(np.indices((12, 12)).sum(axis=0) % 2, np.ones((8, 8))) * 255.0
        plane[:, 48:] *= 100 / 255
        pts = detect_corners(plane, quality=0.5)
        resp = motion.corner_response(plane)
        floor = 0.5 * resp.max()
        for x, y in pts:
            assert resp[int(round(y)), int(round(x))] >= floor * 0.9
        # the weaker half has corners, and all of them fall below the floor
        assert pts[:, 0].max() < 48 and 0.1 * floor < resp[:, 56:].max() < floor


class TestTrackLk:
    def test_identical_frames_zero_displacement(self):
        plane = textured_plane(1)
        pts = detect_corners(plane)
        for (x0, y0), (x1, y1) in track_lk(plane, plane, pts):
            assert abs(x1 - x0) <= 0.01 and abs(y1 - y0) <= 0.01

    def test_three_pixel_shift(self):
        prev, nxt = shift_pair(seed=2, shift=(3, 0))
        pts = detect_corners(prev)
        pairs = track_lk(prev, nxt, pts)
        disp = np.array([[x1 - x0, y1 - y0] for (x0, y0), (x1, y1) in pairs])
        med = np.median(disp, axis=0)
        assert med[0] == pytest.approx(3.0, abs=0.25)
        assert med[1] == pytest.approx(0.0, abs=0.25)

    def test_uncorrelated_noise_fails(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 255, (96, 96))
        b = rng.uniform(0, 255, (96, 96))
        pts = detect_corners(a)
        try:
            pairs = track_lk(a, b, pts)
            assert len(pairs) < 0.2 * len(pts)
        except TrackingFailure:
            pass

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            track_lk(np.zeros((32, 32)), np.zeros((32, 48)), np.array([[5.0, 5.0]]))


class TestEstimateMotion:
    def test_identity_on_identical_frames(self):
        frame = textured_frame(7)
        mp = estimate_motion(frame, frame, "similarity")
        assert abs(mp.dx) <= 0.05 and abs(mp.dy) <= 0.05
        assert abs(mp.theta) <= 0.001
        assert mp.scale == pytest.approx(1.0, abs=0.001)

    def test_known_vertical_shift(self):
        prev, nxt = shift_pair(seed=8, shift=(0, 5))
        mp = estimate_motion(to_frame(prev), to_frame(nxt), "similarity")
        assert mp.dy == pytest.approx(5.0, abs=0.25)
        assert mp.dx == pytest.approx(0.0, abs=0.25)

    def test_known_rotation(self):
        theta = np.deg2rad(2.0)
        traj = Trajectory(
            x=np.zeros(2), y=np.zeros(2), theta=np.array([0.0, theta])
        )
        base = textured_frame(9, 200, 160)
        seq = render_shaky(base, traj, (144, 112))
        mp = estimate_motion(seq.frames[0], seq.frames[1], "similarity")
        assert mp.theta == pytest.approx(theta, abs=0.002)

    def test_all_models_collapse_on_pure_translation(self):
        prev, nxt = shift_pair(seed=11, shift=(4, -2))
        for kind in ("translation", "similarity", "homography"):
            mp = estimate_motion(to_frame(prev), to_frame(nxt), kind)
            assert mp.dx == pytest.approx(4.0, abs=0.25), kind
            assert mp.dy == pytest.approx(-2.0, abs=0.25), kind

    def test_seeded_ransac_is_deterministic(self):
        prev, nxt = shift_pair(seed=13, shift=(2, 1))
        a = estimate_motion(prev, nxt, "similarity", 42)
        b = estimate_motion(prev, nxt, "similarity", 42)
        assert (a.dx, a.dy, a.theta, a.scale) == (b.dx, b.dy, b.theta, b.scale)

    def test_homography_underdetermined(self, monkeypatch):
        frame = textured_frame(14)
        few = np.array([[20.0, 20.0], [40.0, 30.0], [60.0, 50.0]])
        monkeypatch.setattr(motion, "detect_corners", lambda *a, **k: few)
        with pytest.raises(UnderDetermined):
            estimate_motion(frame, frame, "homography")

    def test_unknown_model(self):
        frame = textured_frame(1)
        with pytest.raises(ConfigError):
            estimate_motion(frame, frame, "affine")

    def test_grid_flow_agrees_with_estimate(self):
        prev, nxt = shift_pair(seed=15, shift=(3, 0))
        mp = estimate_motion(to_frame(prev), to_frame(nxt), "translation")
        flow = pair_flow(prev, nxt)
        assert abs(float(np.mean(flow.u)) - mp.dx) <= 0.5
        assert abs(float(np.mean(flow.v)) - mp.dy) <= 0.5


class TestBatchedHomography:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_hypothesis_loop(self, seed):
        p0, p1, samples = planted_matches(seed)
        want = loop_ransac_homography(p0, p1, samples, 2.0)
        got = motion._ransac_homography(p0, p1, samples, 2.0)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    def test_batched_dlt_matches_single_fits(self):
        p0, p1, samples = planted_matches(3)
        hs, valid = motion._homography_dlt(p0[samples], p1[samples])
        for h, ok, row in zip(hs, valid, samples):
            ref = loop_homography_dlt(p0[row], p1[row])
            assert ok == (ref is not None)
            if ok:
                assert np.array_equal(h, ref)
        assert not valid.all()  # the duplicated corners made some invalid

    def test_exact_recovery_from_four_points(self):
        p0 = np.array([[10.0, 12.0], [110.0, 8.0], [100.0, 85.0], [15.0, 80.0]])
        hs, valid = motion._homography_dlt(p0[None], apply_h(H_TRUE, p0)[None])
        assert valid.tolist() == [True]
        assert np.allclose(hs[0], H_TRUE, rtol=0, atol=1e-9)

    def test_coincident_and_collinear_samples_invalid(self):
        square = np.array([[10.0, 12.0], [110.0, 8.0], [100.0, 85.0], [15.0, 80.0]])
        coincident = np.full((4, 2), 40.0)
        collinear = np.array([[10.0, 10.0], [30.0, 20.0], [50.0, 30.0], [90.0, 50.0]])
        p0 = np.stack([square, coincident, collinear])
        p1 = np.stack([apply_h(H_TRUE, q) for q in p0])
        _, valid = motion._homography_dlt(p0, p1)
        assert valid.tolist() == [True, False, False]

    def test_all_samples_invalid_is_underdetermined(self, monkeypatch):
        frame = textured_frame(14)
        line = np.stack([np.linspace(20.0, 70.0, 12), np.linspace(25.0, 60.0, 12)], axis=1)
        monkeypatch.setattr(motion, "detect_corners", lambda *a, **k: line)
        with pytest.raises(UnderDetermined, match="fewer than 4"):
            estimate_motion(frame, frame, "homography")

    def test_ties_go_to_earliest_valid_hypothesis(self):
        p0 = np.array(
            [[10.0, 12.0], [110.0, 8.0], [100.0, 85.0], [15.0, 80.0],
             [40.0, 30.0], [80.0, 35.0], [75.0, 70.0], [35.0, 60.0], [10.0, 12.0]]
        )
        p1 = apply_h(H_TRUE, p0)
        # row 0 reuses corner 0 (degenerate); rows 1 and 2 both fit all 9
        samples = np.array([[0, 8, 1, 2], [0, 1, 2, 3], [4, 5, 6, 7], [1, 3, 5, 7]])
        best, inl, _ = motion._ransac_homography(p0, p1, samples, 2.0)
        assert best == 1
        assert inl.all()


def loop_candidate_counts(p0, p1, samples, inlier_px=2.0):
    """Reference hypothesis scores: each sample's inlier count under its
    per-hypothesis SVD fit, -1 where that fit is invalid."""
    counts = []
    for row in samples:
        h = loop_homography_dlt(p0[row], p1[row])
        inl = 0 if h is None else np.linalg.norm(apply_h(h, p0) - p1, axis=1) <= inlier_px
        counts.append(-1 if h is None else int(inl.sum()))
    return np.array(counts)


def candidate_counts(p0, p1, samples, inlier_px=2.0):
    """The closed-form hypotheses' scores, as _ransac_homography counts them."""
    hs, valid = motion._quad_homographies(p0[samples], p1[samples])
    with np.errstate(divide="ignore", invalid="ignore"):
        inl = np.stack([np.linalg.norm(apply_h(h, p0) - p1, axis=1) <= inlier_px for h in hs])
    return np.where(valid, inl.sum(axis=1), -1)


class TestClosedFormHomography:
    @pytest.mark.parametrize("seed", range(40))
    def test_candidates_score_as_svd_oracle_on_planted_matches(self, seed):
        p0, p1, samples = planted_matches(seed)
        assert np.array_equal(candidate_counts(p0, p1, samples), loop_candidate_counts(p0, p1, samples))

    def test_candidates_score_as_svd_oracle_on_tracked_matches(self, monkeypatch):
        calls = []
        ransac = motion._ransac_homography
        monkeypatch.setattr(motion, "_ransac_homography", lambda *a: calls.append(a) or ransac(*a))
        for seed in (90, 91):
            video_trajectory(shaky_video(seed, count=5, size=(128, 96))[0], "homography")
        assert len(calls) == 8
        for p0, p1, samples, px in calls:
            want = loop_candidate_counts(p0, p1, samples, px)
            assert np.array_equal(candidate_counts(p0, p1, samples, px), want)

    def test_exact_recovery_of_well_conditioned_quad(self):
        p0 = np.array([[10.0, 12.0], [110.0, 8.0], [100.0, 85.0], [15.0, 80.0]])
        hs, valid = motion._quad_homographies(p0[None], apply_h(H_TRUE, p0)[None])
        assert valid.tolist() == [True]
        assert np.allclose(hs[0], H_TRUE, rtol=0, atol=1e-12)

    def test_degenerate_quads_invalid(self):
        square = np.array([[10.0, 12.0], [110.0, 8.0], [100.0, 85.0], [15.0, 80.0]])
        coincident = np.full((4, 2), 40.0)
        duplicated = square[[0, 1, 0, 3]]
        three_collinear = np.array([[10.0, 10.0], [30.0, 20.0], [80.0, 85.0], [50.0, 30.0]])
        quads = np.stack([square, coincident, duplicated, three_collinear])
        mapped = np.stack([apply_h(H_TRUE, q) for q in quads])
        squares = np.broadcast_to(apply_h(H_TRUE, square), quads.shape)
        for p0, p1 in ((quads, mapped), (quads, squares), (squares, quads)):
            _, valid = motion._quad_homographies(p0, p1)
            assert valid.tolist() == [True, False, False, False]

    @pytest.mark.parametrize("m", range(4, 61))
    def test_refit_equals_full_svd_oracle(self, m):
        p0, p1, _ = planted_matches(5)
        hs, valid = motion._homography_dlt(p0[None, :m], p1[None, :m])
        assert valid.tolist() == [True]
        assert np.array_equal(hs[0], loop_homography_dlt(p0[:m], p1[:m]))

    def test_one_svd_per_pair(self, monkeypatch):
        prev, nxt = shift_pair(seed=92, shift=(2, 1))
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: shapes.append(a.shape) or svd(a, **k))
        mp = estimate_motion(prev, nxt, "homography")
        # one (1, 2m, 9) refit system over the winner's m inliers
        assert len(shapes) == 1
        assert shapes[0][0] == 1 and shapes[0][1] >= 8 and shapes[0][2] == 9
        assert mp.inlier_ratio > 0.9


class TestGridFlow:
    def test_identical_frames_zero_field(self):
        plane = textured_plane(3)
        flow = pair_flow(plane, plane)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_global_shift(self):
        prev, nxt = shift_pair(seed=21, shift=(3, 0))
        flow = pair_flow(prev, nxt)
        assert np.all(np.abs(flow.u - 3.0) <= 0.5)
        assert np.all(np.abs(flow.v) <= 0.5)

    def test_split_scene(self):
        left_prev, left_next = textured_plane(30, 64, 96), textured_plane(30, 64, 96)
        right_prev, right_next = shift_pair(seed=31, shift=(4, 0), size=(64, 96))
        prev = np.concatenate([left_prev, right_prev], axis=1)
        nxt = np.concatenate([left_next, right_next], axis=1)
        flow = pair_flow(prev, nxt, grid=8)
        left_mean = float(np.mean(flow.u[:, :3]))
        right_mean = float(np.mean(flow.u[:, 5:]))
        assert right_mean - left_mean == pytest.approx(4.0, abs=0.6)

    def test_failed_cells_take_nearest_neighbor(self):
        flat = np.full((96, 64), 128.0)
        tex_prev, tex_next = shift_pair(seed=33, shift=(2, 0), size=(64, 96))
        prev = np.concatenate([flat, tex_prev], axis=1)
        nxt = np.concatenate([flat, tex_next], axis=1)
        flow = pair_flow(prev, nxt, grid=8)
        # flat-half cells borrow the nearest textured cell's displacement
        for row in range(8):
            assert flow.u[row, 0] == pytest.approx(flow.u[row, 4], abs=1.0)

    def test_grid_bounds(self):
        plane = textured_plane(1)
        with pytest.raises(ConfigError):
            pair_flow(plane, plane, grid=3)
        with pytest.raises(ConfigError):
            pair_flow(plane, plane, grid=33)


# The engine lerps one 16x16 gather per window (18x18 per template, whose
# gradients are central differences of the lerped samples) with a single
# fractional offset, where the oracle rounds each tap's position on its own.
# Against the oracle in the engine's own precision the worst difference
# measured on these inputs was 1.3e-13 px while both were float64, and is 0
# with both in float32.
LK_TOL_PX = 1e-9
# The engine's pyramid levels and samples are float32, so the float64 oracle
# differs by the rounding of the lerp offsets and of the samples, which LK
# amplifies; the worst measured on these inputs is 1.5e-6 px (edge points,
# seed 1).
LK_F32_TOL_PX = 5e-6


def shaky_lumas(seed, count=6, size=(128, 96)):
    """(count, H, W) luma planes of a shaky_video."""
    return np.stack([motion.to_luma(f) for f in shaky_video(seed, count, size)[0].frames])


def engine_pair(prev, nxt, pts):
    return motion._track(motion._pyramid(prev[None]), motion._pyramid(nxt[None]), pts)


def assert_matches_oracle(prev, nxt, pts):
    got, ok_got = engine_pair(prev, nxt, pts)
    for dtype, tol in ((np.float64, LK_F32_TOL_PX), (np.float32, LK_TOL_PX)):
        want, ok = oracle_track_points(prev, nxt, pts, dtype=dtype)
        assert np.array_equal(ok_got, ok)
        assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= tol
    return ok


EDGE_XS = [-40.0, -9.5, -7.2, -1.0, -0.25, 0.0, 0.5, 12.3, 30.9, 31.0, 31.5, 35.7, 38.2, 60.0]
EDGE_YS = [-30.0, -8.1, -0.6, 0.0, 9.75, 22.5, 23.0, 26.4, 30.2, 45.0]


class TestUint8Pyramid:
    def test_levels_equal_the_float_copy(self):
        # odd sizes, and a frame count that is no multiple of the blur run
        frames = np.random.default_rng(6).integers(0, 256, (7, 71, 97), dtype=np.uint8)
        assert len(frames) % motion._PYR_RUN_FRAMES
        got = motion._pyramid(frames)
        want = motion._pyramid(frames.astype(np.float64))
        per_frame = [oracle_pyramid(f, dtype=np.float32) for f in frames]
        exact = [oracle_pyramid(f) for f in frames]
        assert got[0] is frames  # level 0 is the frames: not copied, not cast
        assert len(got) == len(want) == motion._LK_LEVELS
        for lev, (a, b) in enumerate(zip(got, want)):
            assert a.flags.c_contiguous and a.shape == b.shape
            assert a.astype(b.dtype).tobytes() == b.tobytes()
            assert b.tobytes() == np.stack([p[lev] for p in per_frame]).tobytes()
            assert lev == 0 or a.dtype == b.dtype == np.float32
            # 8-bit levels are multiples of 2^-16 below 256: float32 rounds none
            assert np.array_equal(a, np.stack([p[lev] for p in exact]))

    def test_uint8_gathers_equal_the_float_copy(self):
        frames = np.stack([textured_frame(4, 32, 24), textured_frame(5, 32, 24)])
        xy = np.array([(x, y) for x in EDGE_XS for y in EDGE_YS])
        frame = np.arange(len(xy)) % 2
        as_float = frames.astype(np.float64)
        got, want = motion._templates(frames, frame, xy), motion._templates(as_float, frame, xy)
        assert all(a.dtype == np.float32 and a.tobytes() == b.tobytes() for a, b in zip(got, want))
        x, y = xy[:, 0] * 0.9 + 1.3, xy[:, 1] * 1.1 - 0.7
        assert motion._sample(frames, frame, x, y).tobytes() == motion._sample(as_float, frame, x, y).tobytes()


class TestLkEngine:
    def test_windows_match_per_tap_gather(self):
        plane = textured_plane(4, 32, 24)
        xy = np.array([(x, y) for x in EDGE_XS for y in EDGE_YS])
        got = motion._windows(plane[None], np.zeros(len(xy), dtype=np.intp), xy)
        want = oracle_sample(plane, xy[:, 0:1] + WIN_X, xy[:, 1:2] + WIN_Y, np.float32)
        assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_templates_are_windows_and_tap_differences(self):
        planes = np.stack([textured_plane(4, 32, 24), textured_plane(5, 32, 24)])
        xy = np.array([(x, y) for x in EDGE_XS for y in EDGE_YS])
        frame = np.arange(len(xy)) % 2
        tmpl, gx, gy = motion._templates(planes, frame, xy)
        # _track's residual check reuses the level-0 templates as the windows
        assert np.array_equal(tmpl, motion._windows(planes, frame, xy))
        for k, plane in enumerate(planes):
            tx, ty = xy[frame == k, 0:1] + WIN_X, xy[frame == k, 1:2] + WIN_Y
            sample = partial(oracle_sample, plane, dtype=np.float32)
            want_x = (sample(tx + 1.0, ty) - sample(tx - 1.0, ty)) / 2.0
            want_y = (sample(tx, ty + 1.0) - sample(tx, ty - 1.0)) / 2.0
            assert np.array_equal(gx[frame == k], want_x) and np.array_equal(gy[frame == k], want_y)

    @pytest.mark.parametrize("seed", range(4))
    def test_corners_match_oracle(self, seed):
        lumas = shaky_lumas(seed, count=2)
        ok = assert_matches_oracle(lumas[0], lumas[1], detect_corners(lumas[0]))
        assert ok.sum() >= 8

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_points_match_oracle(self, seed):
        prev, nxt = shaky_lumas(seed + 10, count=2)
        h, w = prev.shape
        rng = np.random.default_rng(seed)
        inner = rng.uniform([7, 7], [w - 8, h - 8], size=(150, 2))
        edges = np.array([[-3.0, 40.0], [-0.5, 50.0], [0.0, 0.0], [w - 1.0, 30.0],
                          [w - 1.0, h - 1.0], [w + 2.5, 40.0], [60.0, -4.0], [60.0, h - 1.0],
                          [7.0, 7.0], [w - 8.0, h - 8.0], [8.25, h - 9.5]])
        pts = np.vstack([inner, edges])
        ok = assert_matches_oracle(prev, nxt, pts)
        # at the coarsest level (scale 4) these windows reach past the border
        near = np.minimum.reduce([pts[:, 0], pts[:, 1], w - 1 - pts[:, 0], h - 1 - pts[:, 1]])
        assert (ok & (near < 4 * 7)).sum() >= 10
        assert not ok[len(inner) : len(inner) + 8].any()

    def test_flat_half_frame_matches_oracle(self):
        prev, nxt = shaky_lumas(20, count=2)
        prev = prev.copy()
        prev[:, : prev.shape[1] // 2] = 128.0
        pts = motion._grid_track(np.stack([prev, nxt]), 12)[0]
        ok = assert_matches_oracle(prev, nxt, pts)
        assert ok.any() and not ok.all()

    def test_grid_points_of_every_pair_match_oracle(self):
        lumas = shaky_lumas(30, count=6)
        pts, disp, ok = motion._grid_track(lumas, 8)
        for t in range(len(lumas) - 1):
            for dtype, tol in ((np.float64, LK_F32_TOL_PX), (np.float32, LK_TOL_PX)):
                want, ok_want = oracle_track_points(lumas[t], lumas[t + 1], pts, dtype=dtype)
                assert np.array_equal(ok[t], ok_want)
                assert np.abs(disp[t][ok_want] - (want - pts)[ok_want]).max() <= tol
        assert ok.mean() > 0.5

    def test_sequence_is_independent_of_batch(self):
        lumas = shaky_lumas(40, count=8)
        fields = motion.grid_flow_sequence(lumas, 8)
        assert len(fields) == 7
        for t, field in enumerate(fields):
            alone = motion.grid_flow_sequence(lumas[t : t + 2], 8)[0]
            assert np.array_equal(field.u, alone.u) and np.array_equal(field.v, alone.v)

    def test_grid_32_runs_match_one_solve_in_bounded_memory(self):
        lumas = shaky_lumas(70, count=7, size=(256, 192))
        tracemalloc.start()
        try:
            pts, disp, ok = motion._grid_track(lumas, 32)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = len(lumas) - 1
        assert pairs * len(pts) > 2 * motion._RUN_POINTS  # the solve is split in three or more
        pyr = motion._pyramid(lumas)
        src = np.repeat(np.arange(pairs), len(pts))
        all_pts = np.tile(pts, (pairs, 1))
        tracemalloc.start()
        try:
            want, ok_want = motion._track(pyr, pyr, all_pts, src, src + 1)
            one_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ok.ravel(), ok_want)
        assert np.array_equal(disp.reshape(-1, 2), want - all_pts)
        assert ok.mean() > 0.5
        # each run holds at most a third of the points; the pyramid is built inside
        assert run_peak < 0.5 * one_peak


    def test_noise_frame_zeroes_only_its_two_pairs(self):
        lumas = shaky_lumas(50, count=8)
        lumas[4] = np.random.default_rng(0).uniform(0, 255, lumas[4].shape)
        fields = motion.grid_flow_sequence(lumas, 8)
        zero = [not f.u.any() and not f.v.any() for f in fields]
        assert zero == [t in (3, 4) for t in range(7)]


ITERS, INLIER_PX, REFINE_INLIER_PX = 500, 2.0, 0.75


def oracle_corners(prev):
    """Reference corners of one frame in level-0 pixels: detected on its
    level-1 plane (radius 4, border 4) and doubled; with no level 1, one under
    32 px, or fewer than 8 corners there, the level-0 ladder (radius 8, then
    radius 4 at quality 0.005)."""
    pyr = oracle_pyramid(prev)
    if len(pyr) > 1 and min(pyr[1].shape) >= 32:
        try:
            return 2.0 * detect_corners(pyr[1], nms_radius=4, border=4)
        except DegenerateScene:
            pass
    try:
        return detect_corners(prev)
    except DegenerateScene:
        return detect_corners(prev, nms_radius=4, quality=0.005)


def oracle_estimate_motion(prev_frame, next_frame, model_kind="similarity", seed=0):
    """Reference per-pair motion: one frame pair at a time, each frame's
    pyramid built for the pair, and the similarity refinement re-tracking
    against the whole previous frame warped by the model, with a fresh
    pyramid of it."""
    prev = motion.to_luma(prev_frame)
    nxt = motion.to_luma(next_frame)
    corners = oracle_corners(prev)
    pyr_n = motion._pyramid(nxt[None])
    new_pts, ok = motion._track(motion._pyramid(prev[None]), pyr_n, corners)
    if not ok.any():
        raise TrackingFailure("no corner survived tracking")
    p0, p1 = corners[ok], new_pts[ok]
    m = len(p0)
    rng = np.random.default_rng(seed)
    h, w = prev.shape
    center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])

    if model_kind == "translation":
        disp = p1 - p0
        idx = rng.integers(0, m, ITERS)
        inl = np.linalg.norm(disp[None, :, :] - disp[idx, None, :], axis=2) <= INLIER_PX
        best = inl[int(np.argmax(inl.sum(axis=1)))]
        dx, dy = np.median(disp[best], axis=0)
        return MotionParams("translation", float(dx), float(dy), inlier_ratio=float(best.mean()))

    if model_kind == "homography":
        samples = np.argpartition(rng.random((ITERS, m)), 3, axis=1)[:, :4]
        _, inl, hm = motion._ransac_homography(p0, p1, samples, INLIER_PX)
        x, y = center
        den = hm[2, 0] * x + hm[2, 1] * y + hm[2, 2]
        nu = hm[0, 0] * x + hm[0, 1] * y + hm[0, 2]
        nv = hm[1, 0] * x + hm[1, 1] * y + hm[1, 2]
        j = np.array([[hm[0, 0] * den - nu * hm[2, 0], hm[0, 1] * den - nu * hm[2, 1]],
                      [hm[1, 0] * den - nv * hm[2, 0], hm[1, 1] * den - nv * hm[2, 1]]]) / (den * den)
        cxy = apply_h(hm, center[None, :])[0]
        return MotionParams("homography", float(cxy[0] - x), float(cxy[1] - y),
                            theta=float(np.arctan2(j[1, 0] - j[0, 1], j[0, 0] + j[1, 1])),
                            scale=float(np.sqrt(max(float(np.linalg.det(j)), 1e-12))),
                            h=hm, inlier_ratio=float(inl.mean()))

    z0 = p0[:, 0] + 1j * p0[:, 1]
    z1 = p1[:, 0] + 1j * p1[:, 1]
    a, t, ratio = motion._ransac_similarity(z0, z1, INLIER_PX, rng)
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    for _ in range(2):
        ainv = 1.0 / a
        src = ainv * (xs + 1j * ys) - t * ainv
        prev_w = ndimage.map_coordinates(prev, [src.imag, src.real], order=1, mode="nearest")
        zw = a * z0 + t
        moved, ok = motion._track(motion._pyramid(prev_w[None]), pyr_n,
                                  np.stack([zw.real, zw.imag], axis=1))
        if ok.sum() < 2:
            continue
        a2, t2, ratio = motion._ransac_similarity(
            zw[ok], moved[ok, 0] + 1j * moved[ok, 1], REFINE_INLIER_PX, rng)
        a, t = a2 * a, a2 * t + t2
    c = center[0] + 1j * center[1]
    delta = a * c + t - c
    return MotionParams("similarity", float(delta.real), float(delta.imag),
                        theta=float(np.arctan2(a.imag, a.real)), scale=float(abs(a)),
                        inlier_ratio=ratio)


def fields(mp):
    return (mp.model_kind, mp.dx, mp.dy, mp.theta, mp.scale, mp.inlier_ratio)


def path_error(params, truth):
    traj = accumulate_trajectory(params)
    return max(np.abs(traj.x - truth.x).max(), np.abs(traj.y - truth.y).max())


@pytest.fixture(scope="module")
def video_320():
    return shaky_video(87, count=20, size=(320, 240))[0]


class TestVideoTrajectory:
    @pytest.mark.parametrize("kind", ["translation", "homography"])
    def test_equals_per_pair_oracle(self, kind):
        seq, _ = shaky_video(80, count=8, size=(160, 120))
        _, got = video_trajectory(seq, kind, 3)
        for k, mp in enumerate(got):
            want = oracle_estimate_motion(seq.frames[k], seq.frames[k + 1], kind, 3)
            assert fields(mp) == fields(want)
            assert (mp.h is None and want.h is None) or np.array_equal(mp.h, want.h)

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_similarity_within_tolerance_of_oracle(self, seed):
        seq, truth = shaky_video(seed, count=10, size=(160, 120))
        _, got = video_trajectory(seq)
        want = [oracle_estimate_motion(seq.frames[k], seq.frames[k + 1]) for k in range(len(got))]
        for a, b in zip(got, want):
            assert abs(a.dx - b.dx) <= 0.02 and abs(a.dy - b.dy) <= 0.02
            assert abs(a.theta - b.theta) <= 1e-4 and abs(a.scale - b.scale) <= 1e-4
        assert path_error(got, truth) <= path_error(want, truth) + 0.005

    @pytest.mark.parametrize("kind", ["similarity", "homography"])
    def test_run_length_does_not_change_results(self, kind, monkeypatch):
        seq, _ = shaky_video(84, count=18, size=(128, 96))
        runs = {}
        for pairs in (1, 16, len(seq) - 1):
            monkeypatch.setattr(motion, "_TRAJ_RUN_PAIRS", pairs)
            runs[pairs] = [fields(mp) for mp in video_trajectory(seq, kind)[1]]
        assert runs[1] == runs[16] == runs[len(seq) - 1]

    @pytest.mark.parametrize("kind", ["similarity", "homography"])
    def test_point_cap_does_not_change_results(self, kind, monkeypatch):
        seq, _ = shaky_video(86, count=8, size=(128, 96))
        runs, solves = {}, []
        track = motion._track
        monkeypatch.setattr(motion, "_track", lambda *a, **k: solves.append(len(a[2])) or track(*a, **k))
        for cap in (10**9, 7):
            monkeypatch.setattr(motion, "_RUN_POINTS", cap)
            solves.clear()
            got = video_trajectory(seq, kind)[1]
            runs[cap] = [fields(mp) for mp in got], [mp.h for mp in got], max(solves)
        assert runs[7][2] == 7 < runs[10**9][2]
        assert runs[7][0] == runs[10**9][0]
        assert all(a is None and b is None or np.array_equal(a, b) for a, b in zip(runs[7][1], runs[10**9][1]))

    def test_two_frame_entry_equals_its_pair(self):
        seq, _ = shaky_video(85, count=6, size=(128, 96))
        _, params = video_trajectory(seq, seed=9)
        for k, mp in enumerate(params):
            alone = estimate_motion(seq.frames[k], seq.frames[k + 1], seed=9)
            assert fields(alone) == fields(mp)

    def test_each_pair_draws_from_its_own_generator(self, monkeypatch):
        seq, _ = shaky_video(85, count=6, size=(128, 96))
        states = []
        fit = motion._ransac_similarity

        def spy(z0, z1, inlier_px, rng):
            states.append(rng.bit_generator.state["state"]["state"])
            return fit(z0, z1, inlier_px, rng)

        monkeypatch.setattr(motion, "_ransac_similarity", spy)
        video_trajectory(seq, seed=9)
        together = sorted(states)
        states.clear()
        for k in range(len(seq) - 1):
            estimate_motion(seq.frames[k], seq.frames[k + 1], seed=9)
        assert len(states) == 3 * (len(seq) - 1)  # first fit and two refinement passes
        assert sorted(states) == together

    @pytest.mark.parametrize("kind", ["similarity", "homography"])
    def test_each_run_builds_its_own_pyramid(self, kind, monkeypatch):
        # a run's first frame is the previous run's last, and its pyramid is
        # built again, so that the runs are independent; they still equal
        # their pairs alone, bit for bit
        seq, _ = shaky_video(86, count=20, size=(112, 96))
        frames = []
        pyramid = motion._pyramid
        monkeypatch.setattr(motion, "_pyramid", lambda s: frames.append(len(s)) or pyramid(s))
        _, got = video_trajectory(seq, kind)
        assert frames == [17, 4]  # runs of 16 and 3 pairs
        assert sum(frames) == len(seq) + len(frames) - 1
        monkeypatch.setattr(motion, "_pyramid", pyramid)
        for k, mp in enumerate(got):
            alone = estimate_motion(seq.frames[k], seq.frames[k + 1], kind)
            assert fields(mp) == fields(alone)
            assert mp.h is None and alone.h is None or mp.h.tobytes() == alone.h.tobytes()

    def test_runs_are_independent_of_their_order(self):
        # map_fn gets the runs' first frames; a map that computes the runs
        # last to first gives the same pairs, so no run depends on another
        seq, _ = shaky_video(87, count=40, size=(64, 64))
        seen = []

        def spy(fn, starts):
            starts = list(starts)
            seen.append(starts)
            return reversed([fn(s) for s in reversed(starts)])

        assert [fields(mp) for mp in video_trajectory(seq, map_fn=spy)[1]] == \
            [fields(mp) for mp in video_trajectory(seq)[1]]
        assert seen == [[0, 16, 32]]

    # Traced peaks on this 20-frame 320x240 video, similarity / homography /
    # translation: 99.9 / 48.5 / 48.5 MB when each 17-frame run was copied to
    # float64 and LK solved 2048 points at a time; 25.3 / 12.3 / 12.3 MB with
    # uint8 level-0 planes and 512-point solves; 20.0 MB for similarity once
    # _sample lerps one pixel pair per row instead of gathering 2x2 blocks;
    # 15.8 / 7.0 / 6.8 MB once the coarser pyramid levels and every gather
    # are float32.  A float64 copy of one run is 10.4 MB, so converting the
    # runs again breaks every bound.  The similarity peak is the refinement's
    # 512-point warp gathers, which do not grow with the frame size.  Each
    # bound is its peak plus 2 MB.
    @pytest.mark.parametrize("kind, bound_mb", [
        ("similarity", 18.0), ("homography", 9.0), ("translation", 9.0),
    ])
    def test_traced_peak_stays_below_bound(self, video_320, kind, bound_mb):
        tracemalloc.start()
        try:
            video_trajectory(video_320, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

    @pytest.mark.parametrize("kind", ["similarity", "homography", "translation"])
    def test_uint8_frames_equal_their_float_copy(self, kind):
        seq, _ = shaky_video(89, count=8, size=(128, 96))
        as_float = FrameSequence(seq.frames.astype(np.float64), seq.fps)
        got, want = video_trajectory(seq, kind)[1], video_trajectory(as_float, kind)[1]
        assert [fields(mp) for mp in got] == [fields(mp) for mp in want]
        assert all(a.h is None and b.h is None or a.h.tobytes() == b.h.tobytes() for a, b in zip(got, want))

    def test_pair_errors_keep_pair_order(self):
        seq, _ = shaky_video(88, count=6, size=(128, 96))
        seq.frames[2] = 128  # flat: pair 1 tracks into it, pair 2 has no corners
        with pytest.raises(TrackingFailure):
            video_trajectory(seq, "similarity")
        seq.frames[0] = 128
        with pytest.raises(DegenerateScene):
            video_trajectory(seq, "similarity")

    # (median, max) path error in px over seeds 300-311, plus 0.01 px on the
    # median and 0.02 px on the max.  At 128x96, measured before the templates
    # came from one 18x18 gather; at 320x240, where corners come from a level 1
    # of 160x120, measured while corners were still detected at level 0.
    @pytest.mark.parametrize("kind, size, median_px, max_px", [
        ("similarity", (128, 96), 0.0422 + 0.01, 0.1108 + 0.02),
        ("homography", (128, 96), 0.0583 + 0.01, 0.0826 + 0.02),
        ("similarity", (320, 240), 0.0215 + 0.01, 0.0328 + 0.02),
        ("homography", (320, 240), 0.0162 + 0.01, 0.0543 + 0.02),
    ], ids=["similarity", "homography", "similarity-320", "homography-320"])
    def test_ground_truth_error_on_fresh_seeds(self, kind, size, median_px, max_px):
        errs = []
        for seed in range(300, 312):
            seq, truth = shaky_video(seed, count=16, size=size)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # seed 303 sends a RANSAC match to infinity
                errs.append(path_error(video_trajectory(seq, kind)[1], truth))
        assert np.median(errs) <= median_px and max(errs) <= max_px


def tracked_corners(seq, monkeypatch):
    """The points of every corner _track call (not the refinement's) that a
    similarity trajectory of ``seq`` makes."""
    calls = []
    track = motion._track
    monkeypatch.setattr(motion, "_track", lambda *a, **k: (
        len(a) == 5 and calls.append(a[2])) or track(*a, **k))
    video_trajectory(seq)
    return np.concatenate(calls)


class TestLevelOneCorners:
    @pytest.mark.parametrize("size", [(161, 121), (640, 360)], ids=["161x121", "640x360"])
    def test_tracked_windows_inside_level_0(self, size, monkeypatch):
        seq, _ = shaky_video(90, count=3, size=size)
        pts = tracked_corners(seq, monkeypatch)
        w, h = size
        assert len(pts) >= 2 * 8
        assert (pts >= 7).all() and (pts[:, 0] + 7 <= w - 1).all() and (pts[:, 1] + 7 <= h - 1).all()
        # level 0's border would keep every corner 7.5 px or more from an edge
        clearance = np.minimum(pts, [w - 1, h - 1] - pts).min()
        assert clearance < 7.5

    def test_corners_are_doubled_level_1_detections(self, monkeypatch):
        seq, _ = shaky_video(91, count=4, size=(161, 121))
        pyr = motion._pyramid(seq.frames)
        assert pyr[1].shape[1:] == (61, 81)
        want = [2.0 * detect_corners(pyr[1][k], nms_radius=4, border=4) for k in range(3)]
        assert all(np.array_equal(motion._corners(pyr, k), c) for k, c in enumerate(want))
        assert np.array_equal(tracked_corners(seq, monkeypatch), np.concatenate(want))

    @pytest.mark.parametrize("size, level_1", [((80, 33), None), ((60, 60), (30, 30)), ((64, 64), (32, 32))],
                             ids=["no-level-1", "level-1-under-32", "level-1-short-of-corners"])
    def test_falls_back_to_level_0(self, size, level_1, monkeypatch):
        frames = textured_frame(0, *size)[None]
        pyr = motion._pyramid(frames)
        assert (pyr[1].shape[1:] if len(pyr) > 1 else None) == level_1
        if level_1 == (32, 32):
            with pytest.raises(DegenerateScene, match="only"):
                detect_corners(pyr[1][0], nms_radius=4, border=4)
        want = oracle_corners(frames[0])
        planes = []
        detect = motion.detect_corners
        monkeypatch.setattr(motion, "detect_corners", lambda luma, **k: planes.append(luma) or detect(luma, **k))
        assert np.array_equal(motion._corners(pyr, 0), want)
        assert planes[-1].shape == frames.shape[1:]  # the corners came from level 0


def refine_templates(lumas, pts, a, t, monkeypatch):
    """The warped templates (tmpl, gx, gy) that ``_refine_track`` hands to
    ``_track`` for corners pts of frame 0 under the model z -> a z + t, and
    its (zw, z1, ok)."""
    seen = []
    track = motion._track
    src = np.zeros(len(pts), dtype=np.intp)
    with monkeypatch.context() as m:
        m.setattr(motion, "_track", lambda *args: seen.append(args[5]) or track(*args))
        out = motion._refine_track(lumas, src, pts[:, 0] + 1j * pts[:, 1],
                                   np.full(len(pts), a, dtype=complex), np.full(len(pts), t, dtype=complex))
    return seen[0], out


class TestFloat32Engine:
    # numpy 1.24 casts a float64 scalar against a float32 array by value and
    # numpy 2 by type (NEP 50), so a stray up- or downcast shows on only one
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_engine_computes_in_float32(self, dtype, monkeypatch):
        lumas = np.stack([textured_frame(7, 160, 120), textured_frame(8, 160, 120)]).astype(dtype)
        pyr = motion._pyramid(lumas)
        assert pyr[0].dtype == dtype and [lev.dtype for lev in pyr[1:]] == [np.float32] * 2
        pts = motion._corners(pyr, 0)
        frame = np.zeros(len(pts), dtype=np.intp)
        assert motion._windows(lumas, frame, pts).dtype == np.float32
        assert [g.dtype for g in motion._templates(pyr[1], frame, pts / 2)] == [np.float32] * 3
        assert motion._sample(lumas, frame, pts[:, 0] + 0.3, pts[:, 1]).dtype == np.float32
        warped, (zw, z1, _) = refine_templates(lumas, pts, 1.01 * np.exp(0.02j), 0.4 - 0.3j, monkeypatch)
        assert [g.dtype for g in warped] == [np.float32] * 3
        assert zw.dtype == z1.dtype == np.complex128
        new_pts, ok = motion._track(pyr, pyr, pts, frame, frame + 1)
        assert new_pts.dtype == np.float64 and ok.any()

    @pytest.mark.parametrize("kind", ["translation", "similarity", "homography"])
    def test_identical_frames_give_exactly_zero_motion(self, kind):
        seq = FrameSequence(np.stack([textured_frame(7, 160, 120)] * 5))
        _, params = video_trajectory(seq, kind)
        for mp in params:
            if kind == "homography":  # the DLT refit leaves rounding noise
                assert max(abs(mp.dx), abs(mp.dy), abs(mp.theta), abs(mp.scale - 1.0)) <= 1e-9
            else:
                assert mp.dx == 0.0 and mp.dy == 0.0 and abs(mp.theta) <= 1e-15

    def test_identity_warp_templates_are_windows(self, monkeypatch):
        # the refinement lerps its templates as _windows lerps the frame, so
        # an unmoved frame leaves every residual, and every LK step, exactly 0
        lumas = np.stack([textured_frame(7, 160, 120)] * 2)
        pts = motion._corners(motion._pyramid(lumas), 0)
        warped, (zw, z1, ok) = refine_templates(lumas, pts, 1.0, 0.0, monkeypatch)
        assert np.array_equal(warped[0], motion._windows(lumas, np.zeros(len(pts), dtype=np.intp), pts))
        assert ok.all() and np.array_equal(z1, zw)


class TestTrajectory:
    def mk(self, dxs, dys=None, thetas=None):
        dys = dys or [0.0] * len(dxs)
        thetas = thetas or [0.0] * len(dxs)
        return [
            MotionParams("similarity", dx, dy, theta=th)
            for dx, dy, th in zip(dxs, dys, thetas)
        ]

    def test_zero_params(self):
        traj = accumulate_trajectory(self.mk([0.0, 0.0]))
        assert np.all(traj.x == 0) and np.all(traj.y == 0) and np.all(traj.theta == 0)

    def test_prefix_sum(self):
        traj = accumulate_trajectory(self.mk([1.0, 1.0, 1.0]))
        assert list(traj.x) == [0.0, 1.0, 2.0, 3.0]

    def test_alternating(self):
        traj = accumulate_trajectory(self.mk([2.0, -2.0, 2.0, -2.0]))
        assert list(traj.x) == [0.0, 2.0, 0.0, 2.0, 0.0]

    def test_mixed_models_rejected(self):
        params = [MotionParams("similarity", 1, 0), MotionParams("translation", 1, 0)]
        with pytest.raises(ConfigError):
            accumulate_trajectory(params)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_composition_is_exact_prefix_sum(self, dxs):
        traj = accumulate_trajectory(self.mk(dxs))
        assert traj.x[0] == 0.0
        assert np.array_equal(traj.x[1:], np.cumsum(dxs))


class TestExports:
    def test_trajectory_csv_roundtrip(self, tmp_path):
        traj = Trajectory(
            x=np.array([0.0, 1.25, -0.5]),
            y=np.array([0.0, 0.5, 2.0]),
            theta=np.array([0.0, 0.01, -0.02]),
        )
        path = tmp_path / "traj.csv"
        motion.save_trajectory_csv(traj, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], np.arange(3))
        assert np.allclose(back[:, 1], traj.x, atol=1e-6)
        assert np.allclose(back[:, 2], traj.y, atol=1e-6)
        assert np.allclose(back[:, 3], traj.theta, atol=1e-9)
        assert path.read_text().splitlines()[0] == "frame,x,y,theta"
