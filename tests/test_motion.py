import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import textured_frame, textured_plane
from stabilitykit import motion
from stabilitykit.errors import (
    ConfigError,
    DegenerateScene,
    DimensionMismatch,
    ParseError,
    TrackingFailure,
    UnderDetermined,
)
from stabilitykit.motion import (
    FlowField,
    MotionParams,
    RansacParams,
    Trajectory,
    accumulate_trajectory,
    detect_corners,
    estimate_motion,
    grid_flow,
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


def to_rgb(plane):
    return np.repeat(plane.astype(np.uint8)[..., None], 3, axis=2)


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


def oracle_pyramid(img, levels=3):
    """Reference per-frame pyramid of the sampled-tap LK below."""
    out = [img.astype(np.float64)]
    for _ in range(levels - 1):
        prev = out[-1]
        if min(prev.shape) // 2 < 2 * 7 + 3:
            break
        blurred = ndimage.correlate1d(prev, motion._BINOMIAL5, axis=0, mode="nearest")
        blurred = ndimage.correlate1d(blurred, motion._BINOMIAL5, axis=1, mode="nearest")
        out.append(blurred[::2, ::2])
    return out


def oracle_sample(img, xs, ys):
    """Reference bilinear gather: every tap clipped, cast and gathered alone."""
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    flat = img.ravel()
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


def oracle_track_points(prev, nxt, pts, levels=3, max_iter=30, eps=0.01, max_residual=25.0):
    """Reference pyramidal LK of one frame pair, sampling all 225 taps of a
    window independently; returns (new_pts, ok)."""
    n = len(pts)
    h, w = prev.shape
    pyr_p = oracle_pyramid(prev, levels)
    pyr_n = oracle_pyramid(nxt, levels)

    def win_inside(p):
        return (p[:, 0] - 7 >= 0) & (p[:, 0] + 7 <= w - 1) & (p[:, 1] - 7 >= 0) & (
            p[:, 1] + 7 <= h - 1)

    d = np.zeros((n, 2))
    ok = win_inside(pts)
    converged = np.zeros(n, dtype=bool)
    for lev in range(len(pyr_p) - 1, -1, -1):
        scale = 2.0**lev
        p_img, n_img = pyr_p[lev], pyr_n[lev]
        gy, gx = np.gradient(p_img)
        p_lev = pts / scale
        d_lev = d / scale
        tx = p_lev[:, 0:1] + WIN_X[None, :]
        ty = p_lev[:, 1:2] + WIN_Y[None, :]
        tmpl = oracle_sample(p_img, tx, ty)
        gxs = oracle_sample(gx, tx, ty)
        gys = oracle_sample(gy, tx, ty)
        gxx = np.sum(gxs * gxs, axis=1)
        gxy = np.sum(gxs * gys, axis=1)
        gyy = np.sum(gys * gys, axis=1)
        det = gxx * gyy - gxy * gxy
        trackable = det > 1e-9
        ok &= trackable
        det = np.where(trackable, det, 1.0)
        converged[:] = False
        rows = np.nonzero(ok)[0]
        for _ in range(max_iter):
            if len(rows) == 0:
                break
            cur = oracle_sample(n_img, tx[rows] + d_lev[rows, 0:1], ty[rows] + d_lev[rows, 1:2])
            err = cur - tmpl[rows]
            bx = -np.sum(gxs[rows] * err, axis=1)
            by = -np.sum(gys[rows] * err, axis=1)
            step_x = (gyy[rows] * bx - gxy[rows] * by) / det[rows]
            step_y = (gxx[rows] * by - gxy[rows] * bx) / det[rows]
            d_lev[rows, 0] += step_x
            d_lev[rows, 1] += step_y
            done = np.hypot(step_x, step_y) < eps
            converged[rows[done]] = True
            rows = rows[~done]
        d = d_lev * scale
    cur = oracle_sample(pyr_n[0], pts[:, 0:1] + d[:, 0:1] + WIN_X, pts[:, 1:2] + d[:, 1:2] + WIN_Y)
    tmpl0 = oracle_sample(pyr_p[0], pts[:, 0:1] + WIN_X, pts[:, 1:2] + WIN_Y)
    resid = np.sqrt(np.mean((cur - tmpl0) ** 2, axis=1))
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
        luma = np.zeros((48, 48))
        luma[20:23, 20:23] = 255.0
        resp = naive_min_eig(luma)
        oracle_peaks = np.argwhere(resp >= 0.999 * resp.max())
        square_corners = {(20, 20), (20, 22), (22, 20), (22, 22)}

        def near_corner(y, x):  # within +-1 px per axis of some square corner
            return min(max(abs(y - cy), abs(x - cx)) for cy, cx in square_corners) <= 1

        assert all(near_corner(y, x) for y, x in oracle_peaks)
        pts = detect_corners(luma, max_n=4, nms_radius=1, min_corners=1)
        assert all(near_corner(y, x) for x, y in pts)

    def test_checkerboard_cap_respected(self):
        tile = np.kron(np.indices((8, 8)).sum(axis=0) % 2, np.ones((8, 8))) * 255
        pts = detect_corners(tile.astype(np.float64), max_n=20)
        assert len(pts) == 20

    def test_sorted_by_score_descending(self):
        plane = textured_plane(3, 96, 96)
        pts = detect_corners(plane, max_n=50)
        resp = motion.corner_response(plane)
        scores = [resp[int(round(y)), int(round(x))] for x, y in pts]
        # allow tiny wobble from sub-pixel refinement when reading back scores
        assert all(s1 >= s2 - 1e-6 * abs(s1) for s1, s2 in zip(scores, scores[1:]))

    def test_respects_quality_floor(self):
        plane = textured_plane(4, 96, 96)
        pts = detect_corners(plane, max_n=500, quality=0.5, min_corners=1)
        resp = motion.corner_response(plane)
        floor = 0.5 * resp.max()
        for x, y in pts:
            assert resp[int(round(y)), int(round(x))] >= floor * 0.9


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
        mp = estimate_motion(to_rgb(prev), to_rgb(nxt), "similarity")
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
            mp = estimate_motion(to_rgb(prev), to_rgb(nxt), kind)
            assert mp.dx == pytest.approx(4.0, abs=0.25), kind
            assert mp.dy == pytest.approx(-2.0, abs=0.25), kind

    def test_seeded_ransac_is_deterministic(self):
        prev, nxt = shift_pair(seed=13, shift=(2, 1))
        a = estimate_motion(prev, nxt, "similarity", RansacParams(seed=42))
        b = estimate_motion(prev, nxt, "similarity", RansacParams(seed=42))
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
        mp = estimate_motion(to_rgb(prev), to_rgb(nxt), "translation")
        flow = grid_flow(prev, nxt)
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


class TestGridFlow:
    def test_identical_frames_zero_field(self):
        plane = textured_plane(3)
        flow = grid_flow(plane, plane)
        assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)

    def test_global_shift(self):
        prev, nxt = shift_pair(seed=21, shift=(3, 0))
        flow = grid_flow(prev, nxt)
        assert np.all(np.abs(flow.u - 3.0) <= 0.5)
        assert np.all(np.abs(flow.v) <= 0.5)

    def test_split_scene(self):
        left_prev, left_next = textured_plane(30, 64, 96), textured_plane(30, 64, 96)
        right_prev, right_next = shift_pair(seed=31, shift=(4, 0), size=(64, 96))
        prev = np.concatenate([left_prev, right_prev], axis=1)
        nxt = np.concatenate([left_next, right_next], axis=1)
        flow = grid_flow(prev, nxt, grid=8)
        left_mean = float(np.mean(flow.u[:, :3]))
        right_mean = float(np.mean(flow.u[:, 5:]))
        assert right_mean - left_mean == pytest.approx(4.0, abs=0.6)

    def test_all_cells_fail(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 255, (96, 96))
        b = rng.uniform(0, 255, (96, 96))
        with pytest.raises(TrackingFailure):
            grid_flow(a, b)

    def test_failed_cells_take_nearest_neighbor(self):
        flat = np.full((96, 64), 128.0)
        tex_prev, tex_next = shift_pair(seed=33, shift=(2, 0), size=(64, 96))
        prev = np.concatenate([flat, tex_prev], axis=1)
        nxt = np.concatenate([flat, tex_next], axis=1)
        flow = grid_flow(prev, nxt, grid=8)
        # flat-half cells borrow the nearest textured cell's displacement
        for row in range(8):
            assert flow.u[row, 0] == pytest.approx(flow.u[row, 4], abs=1.0)

    def test_grid_bounds(self):
        plane = textured_plane(1)
        with pytest.raises(ConfigError):
            grid_flow(plane, plane, grid=3)
        with pytest.raises(ConfigError):
            grid_flow(plane, plane, grid=33)


# The engine lerps one 16x16 gather per window with a single fractional
# offset, where the oracle rounds each tap's position on its own; the worst
# difference measured on these inputs is 1.3e-13 px.
LK_TOL_PX = 1e-9


def shaky_lumas(seed, count=6, size=(128, 96)):
    """(count, H, W) luma planes of a textured scene under seeded translation
    and rotation jitter."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, [1.5, 1.5, 0.004], size=(count - 1, 3))
    path = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    traj = Trajectory(x=path[:, 0], y=path[:, 1], theta=path[:, 2])
    seq = render_shaky(textured_frame(seed, size[0] + 48, size[1] + 48), traj, size)
    return np.stack([motion.to_luma(f) for f in seq.frames])


def engine_pair(prev, nxt, pts):
    return motion._track(motion._pyramid(prev[None]), motion._pyramid(nxt[None]), pts)


def assert_matches_oracle(prev, nxt, pts):
    want, ok = oracle_track_points(prev, nxt, pts)
    got, ok_got = engine_pair(prev, nxt, pts)
    assert np.array_equal(ok_got, ok)
    assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= LK_TOL_PX
    return ok


class TestLkEngine:
    def test_windows_match_per_tap_gather(self):
        plane = textured_plane(4, 32, 24)
        xs = [-40.0, -9.5, -7.2, -1.0, -0.25, 0.0, 0.5, 12.3, 30.9, 31.0, 31.5, 35.7, 38.2, 60.0]
        ys = [-30.0, -8.1, -0.6, 0.0, 9.75, 22.5, 23.0, 26.4, 30.2, 45.0]
        xy = np.array([(x, y) for x in xs for y in ys])
        got = motion._windows(plane[None], np.zeros(len(xy), dtype=np.intp), xy)
        want = oracle_sample(plane, xy[:, 0:1] + WIN_X, xy[:, 1:2] + WIN_Y)
        assert np.abs(got - want).max() <= 1e-9

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
            want, ok_want = oracle_track_points(lumas[t], lumas[t + 1], pts)
            assert np.array_equal(ok[t], ok_want)
            assert np.abs(disp[t][ok_want] - (want - pts)[ok_want]).max() <= LK_TOL_PX
        assert ok.mean() > 0.5

    def test_sequence_is_independent_of_batch(self):
        lumas = shaky_lumas(40, count=8)
        fields = motion.grid_flow_sequence(lumas)
        assert len(fields) == 7
        for t, field in enumerate(fields):
            alone = grid_flow(lumas[t], lumas[t + 1])
            assert np.array_equal(field.u, alone.u) and np.array_equal(field.v, alone.v)

    def test_noise_frame_zeroes_only_its_two_pairs(self):
        lumas = shaky_lumas(50, count=8)
        lumas[4] = np.random.default_rng(0).uniform(0, 255, lumas[4].shape)
        fields = motion.grid_flow_sequence(lumas)
        zero = [not f.u.any() and not f.v.any() for f in fields]
        assert zero == [t in (3, 4) for t in range(7)]

    def test_similarity_builds_four_pyramids_per_pair(self, monkeypatch):
        prev, nxt = shaky_lumas(60, count=2)
        built = []
        pyramid = motion._pyramid
        monkeypatch.setattr(motion, "_pyramid", lambda s: built.append(s) or pyramid(s))
        estimate_motion(prev, nxt, "similarity")
        assert len(built) == 4  # prev, nxt, and prev warped once per refinement
        built.clear()
        estimate_motion(prev, nxt, "homography")
        assert len(built) == 2


class TestVideoTrajectory:
    def test_each_frame_converted_to_luma_once(self, monkeypatch):
        base = textured_frame(5, 160, 128)
        traj = Trajectory(x=np.array([0.0, 1.5, 2.0, 1.0]), y=np.array([0.0, -1.0, 0.5, 1.5]),
                          theta=np.zeros(4))
        seq = render_shaky(base, traj, (112, 96))
        want = [
            estimate_motion(seq.frames[i], seq.frames[i + 1], "homography")
            for i in range(len(seq) - 1)
        ]
        converted = []
        to_luma = motion.to_luma
        monkeypatch.setattr(motion, "to_luma", lambda f: converted.append(f) or to_luma(f))
        _, got = video_trajectory(seq, "homography")
        assert len(converted) == len(seq)
        for a, b in zip(got, want):
            assert (a.dx, a.dy, a.theta, a.scale, a.inlier_ratio) == (
                b.dx, b.dy, b.theta, b.scale, b.inlier_ratio)


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
        back = motion.load_trajectory_csv(path)
        assert np.allclose(back.x, traj.x, atol=1e-6)
        assert np.allclose(back.theta, traj.theta, atol=1e-9)
        assert path.read_text().splitlines()[0] == "frame,x,y,theta"

    def test_flow_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        flow = FlowField(8, 8, rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
        path = tmp_path / "field.flow"
        motion.save_flow(flow, path)
        back = motion.load_flow(path)
        assert back.width == 8 and back.height == 8
        assert np.allclose(back.u, flow.u, atol=1e-6)
        assert np.allclose(back.v, flow.v, atol=1e-6)
        assert path.stat().st_size == 16 + 2 * 8 * 8 * 4

    @pytest.mark.parametrize(
        "text",
        [
            "frame,x,y,theta\n0,0,0,0\n1,0.5\n",  # short row
            "frame,x,y,theta\n",  # header with no rows
            "frame,x,y,theta\n0,0,0,0\n1,0.5,abc,0\n",  # non-numeric cell
            "frame,x,y,theta\n0,0,0,0\n1,0.5,\xb5,0\n",  # non-ASCII byte
        ],
        ids=["short-row", "no-rows", "non-numeric", "non-ascii"],
    )
    def test_malformed_trajectory_csv(self, tmp_path, text):
        path = tmp_path / "traj.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError):
            motion.load_trajectory_csv(path)

    @pytest.mark.parametrize("keep", [12, 16 + 2 * 8 * 8 * 4 - 1], ids=["header", "payload"])
    def test_truncated_flow(self, tmp_path, keep):
        path = tmp_path / "field.flow"
        g = np.zeros((8, 8))
        motion.save_flow(FlowField(8, 8, g, g), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ParseError):
            motion.load_flow(path)

