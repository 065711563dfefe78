"""Inter-frame motion: corners, pyramidal Lucas-Kanade, robust model fits,
dense grid flow, and camera-trajectory accumulation.

Coordinates are (x, y) in pixels with the origin at the top-left pixel
center.  Motion estimation runs at native resolution.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    ConfigError,
    DegenerateScene,
    DimensionMismatch,
    ParseError,
    TrackingFailure,
    TruncatedError,
    UnderDetermined,
)
from .media import to_luma


@dataclass
class FlowField:
    """Coarse dense flow: per-cell displacement in pixels."""

    width: int
    height: int
    u: np.ndarray
    v: np.ndarray


@dataclass
class MotionParams:
    """One inter-frame motion estimate.

    ``dx``/``dy`` are the displacement of the frame-center point, so pure
    rotation about the center reports (0, 0); ``theta`` is radians CCW in
    image coordinates.  ``h`` is only set for the homography model.
    """

    model_kind: str
    dx: float
    dy: float
    theta: float = 0.0
    scale: float = 1.0
    h: np.ndarray | None = None
    inlier_ratio: float = 1.0


@dataclass
class Trajectory:
    """Cumulative camera path; index 0 is the reference frame (all zeros)."""

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray

    @property
    def length(self) -> int:
        return len(self.x)


@dataclass
class RansacParams:
    iters: int = 500
    inlier_px: float = 2.0
    seed: int = 0


# ---------------------------------------------------------------------------
# Corner detection (minimum-eigenvalue response)
# ---------------------------------------------------------------------------


def corner_response(luma: np.ndarray) -> np.ndarray:
    """Shi-Tomasi response: smaller eigenvalue of the 5x5 structure tensor."""
    gy, gx = np.gradient(luma.astype(np.float64))
    sxx = ndimage.uniform_filter(gx * gx, size=5, mode="nearest")
    syy = ndimage.uniform_filter(gy * gy, size=5, mode="nearest")
    sxy = ndimage.uniform_filter(gx * gy, size=5, mode="nearest")
    half_trace = 0.5 * (sxx + syy)
    root = np.sqrt(np.maximum(0.25 * (sxx - syy) ** 2 + sxy * sxy, 0.0))
    return half_trace - root


def detect_corners(
    luma: np.ndarray,
    max_n: int = 200,
    quality: float = 0.01,
    nms_radius: int = 8,
    min_corners: int = 8,
    border: int = 3,
) -> np.ndarray:
    """Strongest corners as (n, 2) sub-pixel (x, y), sorted by score descending."""
    h, w = luma.shape
    if h < 32 or w < 32:
        raise DimensionMismatch("corner detection needs a plane of at least 32x32")
    border = max(border, 3)
    resp = corner_response(luma)
    resp[:border, :] = 0.0
    resp[-border:, :] = 0.0
    resp[:, :border] = 0.0
    resp[:, -border:] = 0.0
    peak = float(resp.max())
    if peak <= 1e-9:
        raise DegenerateScene("no texture: flat corner response")
    size = 2 * nms_radius + 1
    is_max = resp >= ndimage.maximum_filter(resp, size=size, mode="nearest")
    cand = is_max & (resp >= quality * peak) & (resp > 0)
    ys, xs = np.nonzero(cand)
    scores = resp[ys, xs]
    order = np.argsort(-scores, kind="stable")[:max_n]
    ys, xs, scores = ys[order], xs[order], scores[order]
    if len(xs) < min_corners:
        raise DegenerateScene(f"only {len(xs)} corners found, need {min_corners}")

    pts = np.stack([xs, ys], axis=1).astype(np.float64)
    # parabolic sub-pixel refinement along each axis
    interior = (xs > 0) & (xs < w - 1) & (ys > 0) & (ys < h - 1)
    ii = np.nonzero(interior)[0]
    for axis, (da, db) in ((0, (0, 1)), (1, (1, 0))):
        lo = resp[ys[ii] - db, xs[ii] - da]
        hi = resp[ys[ii] + db, xs[ii] + da]
        mid = scores[ii]
        denom = lo - 2.0 * mid + hi
        off = np.zeros(len(ii))
        curved = denom < -1e-12
        off[curved] = 0.5 * (lo - hi)[curved] / denom[curved]
        pts[ii, axis] += np.clip(off, -0.5, 0.5)
    return pts


# ---------------------------------------------------------------------------
# Pyramidal Lucas-Kanade
# ---------------------------------------------------------------------------

_LK_WIN = 7  # window radius -> 15x15
_LK_LEVELS = 3
_LK_MAX_ITER = 30
_LK_EPS = 0.01
_LK_MAX_RESIDUAL = 25.0  # RMS gray levels over the window

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_TAPS = np.arange(-_LK_WIN, _LK_WIN + 2)  # 16 integer taps span a 15-wide lerp


def _pyramid(stack: np.ndarray) -> list[np.ndarray]:
    """Per-level (T, h, w) float64 stacks of a (T, H, W) luma stack."""
    out = [np.ascontiguousarray(stack, dtype=np.float64)]
    for _ in range(_LK_LEVELS - 1):
        prev = out[-1]
        if min(prev.shape[1:]) // 2 < 2 * _LK_WIN + 3:
            break
        # the row blur acts on each row alone, so it skips the dropped rows
        blurred = ndimage.correlate1d(prev, _BINOMIAL5, axis=1, mode="nearest")[:, ::2]
        blurred = ndimage.correlate1d(blurred, _BINOMIAL5, axis=2, mode="nearest")
        out.append(np.ascontiguousarray(blurred[:, :, ::2]))
    return out


def _windows(stack: np.ndarray, frame: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Edge-clamped bilinear 15x15 windows centred on xy (n, 2) in the planes
    ``stack[frame]``, as (n, 225).  All taps of a window share one fractional
    offset, so one 16x16 gather per point is lerped along x, then y."""
    _, h, w = stack.shape
    base = np.floor(xy)
    fx, fy = (xy - base).T
    # clipped only where every tap already clamps to the same edge pixel
    base = np.clip(base, -_LK_WIN - 2, max(h, w) + _LK_WIN).astype(np.intp)
    ix = np.clip(base[:, 0:1] + _TAPS, 0, w - 1)
    iy = np.clip(base[:, 1:2] + _TAPS, 0, h - 1)
    flat = (frame[:, None, None] * h + iy[:, :, None]) * w + ix[:, None, :]
    p = stack.ravel().take(flat)
    # a + (b - a) * f, in place to hold fewer temporaries
    rows = p[:, :, 1:] - p[:, :, :-1]
    rows *= fx[:, None, None]
    rows += p[:, :, :-1]
    win = rows[:, 1:] - rows[:, :-1]
    win *= fy[:, None, None]
    win += rows[:, :-1]
    return win.reshape(len(xy), (2 * _LK_WIN + 1) ** 2)


def _win_inside(p: np.ndarray, w: int, h: int) -> np.ndarray:
    return (
        (p[:, 0] - _LK_WIN >= 0)
        & (p[:, 0] + _LK_WIN <= w - 1)
        & (p[:, 1] - _LK_WIN >= 0)
        & (p[:, 1] + _LK_WIN <= h - 1)
    )


def _track(
    pyr_src: list[np.ndarray],
    pyr_dst: list[np.ndarray],
    pts: np.ndarray,
    src: np.ndarray | None = None,
    dst: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pyramidal LK of pts (n, 2) from frame src[i] of the pyr_src stacks to
    frame dst[i] of pyr_dst (both default to frame 0); returns (new_pts, ok).

    All points of all frame pairs share one set of arrays, and a point leaves
    them once it converges.  Rows never mix, so a point's result does not
    depend on what else is in the batch."""
    n = len(pts)
    src = np.zeros(n, dtype=np.intp) if src is None else src
    dst = np.zeros(n, dtype=np.intp) if dst is None else dst
    h, w = pyr_src[0].shape[1:]
    d = np.zeros((n, 2))
    # template windows that leave the image are dropped at the end anyway;
    # excluding them up front keeps them out of the iteration loop
    ok = _win_inside(pts, w, h)
    converged = np.zeros(n, dtype=bool)

    for lev in range(len(pyr_src) - 1, -1, -1):
        scale = 2.0**lev
        p_lev = pts / scale
        d_lev = d / scale
        rows = np.nonzero(ok)[0]
        tmpl = _windows(pyr_src[lev], src[rows], p_lev[rows])
        gxs = np.empty_like(tmpl)
        gys = np.empty_like(tmpl)
        # gradients one source frame at a time: a (T, h, w) stack of them
        # would double the pyramid's memory
        for s in np.unique(src[rows]):
            sel = src[rows] == s
            gy, gx = np.gradient(pyr_src[lev][s])
            at = np.zeros(int(sel.sum()), dtype=np.intp)
            gxs[sel] = _windows(gx[None], at, p_lev[rows[sel]])
            gys[sel] = _windows(gy[None], at, p_lev[rows[sel]])
        gxx = np.sum(gxs * gxs, axis=1)
        gxy = np.sum(gxs * gys, axis=1)
        gyy = np.sum(gys * gys, axis=1)
        det = gxx * gyy - gxy * gxy
        keep = det > 1e-9
        ok[rows[~keep]] = False

        converged[:] = False
        for _ in range(_LK_MAX_ITER):
            rows, tmpl, gxs, gys, gxx, gxy, gyy, det = (
                a[keep] for a in (rows, tmpl, gxs, gys, gxx, gxy, gyy, det)
            )
            if len(rows) == 0:
                break
            err = _windows(pyr_dst[lev], dst[rows], p_lev[rows] + d_lev[rows])
            err -= tmpl
            bx = -np.sum(gxs * err, axis=1)
            by = -np.sum(gys * err, axis=1)
            step_x = (gyy * bx - gxy * by) / det
            step_y = (gxx * by - gxy * bx) / det
            d_lev[rows, 0] += step_x
            d_lev[rows, 1] += step_y
            done = np.hypot(step_x, step_y) < _LK_EPS
            converged[rows[done]] = True
            keep = ~done
        d = d_lev * scale

    # Both the template window and the tracked window must stay inside the
    # image; clamped edge samples bias the estimate toward zero motion.
    new_pts = pts + d
    ok &= converged & _win_inside(new_pts, w, h)
    rows = np.nonzero(ok)[0]
    cur = _windows(pyr_dst[0], dst[rows], new_pts[rows])
    tmpl = _windows(pyr_src[0], src[rows], pts[rows])
    ok[rows] = np.sqrt(np.mean((cur - tmpl) ** 2, axis=1)) <= _LK_MAX_RESIDUAL
    return new_pts, ok


def _as_luma(frame: np.ndarray) -> np.ndarray:
    return to_luma(frame) if frame.ndim == 3 else frame.astype(np.float64, copy=False)


def track_lk(
    prev: np.ndarray, nxt: np.ndarray, points: np.ndarray
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Pyramidal LK tracking; returns surviving ((x0, y0), (x1, y1)) pairs."""
    if prev.shape != nxt.shape:
        raise DimensionMismatch("planes must share dimensions")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    new_pts, ok = _track(_pyramid(prev[None]), _pyramid(nxt[None]), pts)
    if not ok.any():
        raise TrackingFailure("no point survived tracking")
    return [
        ((float(p[0]), float(p[1])), (float(q[0]), float(q[1])))
        for p, q in zip(pts[ok], new_pts[ok])
    ]


def _grid_track(lumas: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Track the grid-cell centres over all T-1 adjacent pairs of a (T, H, W)
    luma stack in one solve; returns (pts (n, 2), disp (T-1, n, 2), ok (T-1, n))."""
    if not 4 <= grid <= 32:
        raise ConfigError(f"grid must be in [4, 32], got {grid}")
    pyr = _pyramid(lumas)
    h, w = pyr[0].shape[1:]
    cx = (np.arange(grid) + 0.5) * (w / grid)
    cy = (np.arange(grid) + 0.5) * (h / grid)
    gx, gy = np.meshgrid(cx, cy)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pairs = len(pyr[0]) - 1
    src = np.repeat(np.arange(pairs), len(pts))
    all_pts = np.tile(pts, (pairs, 1))
    new_pts, ok = _track(pyr, pyr, all_pts, src, src + 1)
    return pts, (new_pts - all_pts).reshape(pairs, len(pts), 2), ok.reshape(pairs, len(pts))


def _grid_field(pts: np.ndarray, disp: np.ndarray, ok: np.ndarray, grid: int) -> FlowField:
    """Failed cells take the nearest successful cell's displacement; with no
    successful cell the field is zero."""
    disp = np.where(ok[:, None], disp, 0.0)
    if ok.any() and not ok.all():
        good = np.nonzero(ok)[0]
        bad = np.nonzero(~ok)[0]
        dist = np.sum((pts[bad][:, None, :] - pts[good][None, :, :]) ** 2, axis=2)
        disp[bad] = disp[good[np.argmin(dist, axis=1)]]
    return FlowField(grid, grid, disp[:, 0].reshape(grid, grid), disp[:, 1].reshape(grid, grid))


def grid_flow(prev_frame: np.ndarray, next_frame: np.ndarray, grid: int = 8) -> FlowField:
    """LK flow seeded at grid-cell centers; failed cells take the nearest
    successful neighbor's displacement."""
    if prev_frame.shape != next_frame.shape:
        raise DimensionMismatch("frames must share dimensions")
    pts, disp, ok = _grid_track(np.stack([_as_luma(prev_frame), _as_luma(next_frame)]), grid)
    if not ok.any():
        raise TrackingFailure("flow failed in every grid cell")
    return _grid_field(pts, disp[0], ok[0], grid)


def grid_flow_sequence(lumas: np.ndarray, grid: int = 8) -> list[FlowField]:
    """grid_flow over every adjacent pair of a (T, H, W) luma stack, all
    pairs tracked in one solve; a pair where every cell fails (constant or
    pure-noise content) gives a zero field."""
    pts, disp, ok = _grid_track(lumas, grid)
    return [_grid_field(pts, dp, k, grid) for dp, k in zip(disp, ok)]


# ---------------------------------------------------------------------------
# Robust parametric motion
# ---------------------------------------------------------------------------


def _ransac_pick(counts: np.ndarray) -> int:
    return int(np.argmax(counts))  # ties resolve to the earliest iteration


def _fit_similarity(z0: np.ndarray, z1: np.ndarray) -> tuple[complex, complex]:
    """Least-squares a, t with z1 ~ a*z0 + t (a encodes rotation+scale)."""
    m0 = z0.mean()
    m1 = z1.mean()
    c0 = z0 - m0
    c1 = z1 - m1
    denom = np.sum(c0 * np.conj(c0)).real
    a = np.sum(np.conj(c0) * c1) / denom if denom > 1e-12 else 1.0 + 0.0j
    return a, m1 - a * m0


def _ransac_similarity(
    z0: np.ndarray, z1: np.ndarray, ransac: RansacParams, rng: np.random.Generator
) -> tuple[complex, complex, float]:
    """Seeded 2-point RANSAC plus least squares over the inliers."""
    m = len(z0)
    i0 = rng.integers(0, m, ransac.iters)
    i1 = (i0 + 1 + rng.integers(0, m - 1, ransac.iters)) % m
    base = z0[i1] - z0[i0]
    safe = np.abs(base) > 1e-9
    a_cand = np.where(safe, (z1[i1] - z1[i0]) / np.where(safe, base, 1.0), 1.0)
    t_cand = z1[i0] - a_cand * z0[i0]
    err = np.abs(a_cand[:, None] * z0[None, :] + t_cand[:, None] - z1[None, :])
    inl = (err <= ransac.inlier_px) & safe[:, None]
    best = inl[_ransac_pick(inl.sum(axis=1))]
    if best.sum() < 2:
        best = np.ones(m, dtype=bool)
    a, t = _fit_similarity(z0[best], z1[best])
    return a, t, float(best.mean())


def _refine_similarity(
    prev: np.ndarray,
    pyr_n: list[np.ndarray],
    z0: np.ndarray,
    a: complex,
    t: complex,
    ransac: RansacParams,
    rng: np.random.Generator,
) -> tuple[complex, complex, float] | None:
    """Re-track corners against prev warped by the current model; residual
    displacements then carry no rotation and the refit is nearly unbiased."""
    h, w = prev.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    ainv = 1.0 / a
    tinv = -t * ainv
    src = ainv * (xs + 1j * ys) + tinv
    prev_w = ndimage.map_coordinates(prev, [src.imag, src.real], order=1, mode="nearest")
    zw = a * z0 + t
    pw = np.stack([zw.real, zw.imag], axis=1)
    new_pts, ok = _track(_pyramid(prev_w[None]), pyr_n, pw)
    if ok.sum() < 2:
        return None
    z1r = new_pts[ok, 0] + 1j * new_pts[ok, 1]
    tight = RansacParams(ransac.iters, min(ransac.inlier_px, 0.75), ransac.seed)
    a2, t2, ratio = _ransac_similarity(zw[ok], z1r, tight, rng)
    # compose the residual fit with the incoming model
    return a2 * a, a2 * t + t2, ratio


def _homography_dlt(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized DLT over a stack of k point sets; p0, p1 are (k, m, 2) with
    m >= 4.  Returns (k, 3, 3) homographies scaled to h22 = 1 and a (k,) mask
    of valid fits; invalid entries hold finite junk."""

    def normalize(p):
        c = p.mean(axis=1, keepdims=True)
        d = np.sqrt(((p - c) ** 2).sum(axis=2)).mean(axis=1)
        ok = d >= 1e-9  # coincident points have no spread
        s = np.sqrt(2.0) / np.where(ok, d, 1.0)
        t = np.zeros((len(p), 3, 3))
        t[:, 0, 0] = t[:, 1, 1] = s
        t[:, :2, 2] = -s[:, None] * c[:, 0]
        t[:, 2, 2] = 1.0
        return (p - c) * s[:, None, None], t, ok

    n0, t0, ok0 = normalize(p0)
    n1, t1, ok1 = normalize(p1)
    k, m = p0.shape[:2]
    x, y = n0[..., 0], n0[..., 1]
    u, v = n1[..., 0], n1[..., 1]
    one, zero = np.ones((k, m)), np.zeros((k, m))
    a = np.empty((k, 2 * m, 9))
    a[:, 0::2] = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=2)
    a[:, 1::2] = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=2)
    _, s, vt = np.linalg.svd(a)
    hn = vt[:, -1].reshape(k, 3, 3)
    h = np.linalg.inv(t1) @ hn @ t0
    h22 = h[:, 2, 2]
    # a rank-deficient (e.g. collinear) sample has no unique null vector
    valid = ok0 & ok1 & (s[:, -2] >= 1e-12) & (np.abs(h22) >= 1e-12)
    return h / np.where(valid, h22, 1.0)[:, None, None], valid


def _ransac_homography(
    p0: np.ndarray, p1: np.ndarray, samples: np.ndarray, inlier_px: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """Score every 4-point sample (row of ``samples``) as one batch, then refit
    on the winner's inliers; returns (winning row, inlier mask, H).

    One batched DLT covers all hypotheses and one matmul projects every match
    through every candidate.  Invalid fits count -1, so they never win.
    """
    h_cand, valid = _homography_dlt(p0[samples], p1[samples])
    q = np.c_[p0, np.ones(len(p0))] @ h_cand.transpose(0, 2, 1)
    err = np.linalg.norm(q[..., :2] / q[..., 2:3] - p1, axis=2)
    inl = err <= inlier_px
    counts = np.where(valid, inl.sum(axis=1), -1)
    best = _ransac_pick(counts)
    if counts[best] < 4:
        raise UnderDetermined("fewer than 4 inlier matches for homography")
    h_fit, ok = _homography_dlt(p0[None, inl[best]], p1[None, inl[best]])
    if not ok[0]:
        raise UnderDetermined("degenerate inlier configuration")
    return best, inl[best], h_fit[0]


def _apply_h(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    q = np.c_[p, np.ones(len(p))] @ h.T
    return q[:, :2] / q[:, 2:3]


def estimate_motion(
    prev_frame: np.ndarray,
    next_frame: np.ndarray,
    model_kind: str = "similarity",
    ransac: RansacParams | None = None,
) -> MotionParams:
    """Corner matching + seeded RANSAC fit of the requested motion model.

    Frames are RGB (H, W, 3) or luma planes (H, W).  Every model draws all
    ``ransac.iters`` hypotheses up front and scores them in one vectorized
    pass; ties go to the earliest.  The homography model solves all 4-point
    normalized DLTs as one stacked SVD and refits on the winner's inliers.
    """
    if prev_frame.shape != next_frame.shape:
        raise DimensionMismatch("frames must share dimensions")
    if model_kind not in ("translation", "similarity", "homography"):
        raise ConfigError(f"unknown motion model {model_kind!r}")
    ransac = ransac or RansacParams()
    prev = _as_luma(prev_frame)
    nxt = _as_luma(next_frame)

    try:
        corners = detect_corners(prev, border=_LK_WIN + 1)
    except DegenerateScene:
        # small frames starve under the default 8 px suppression radius
        corners = detect_corners(prev, border=_LK_WIN + 1, nms_radius=4, quality=0.005)
    # the nxt pyramid serves the first track and both refinement re-tracks
    pyr_n = _pyramid(nxt[None])
    new_pts, ok = _track(_pyramid(prev[None]), pyr_n, corners)
    if not ok.any():
        raise TrackingFailure("no corner survived tracking")
    p0 = corners[ok]
    p1 = new_pts[ok]
    m = len(p0)
    rng = np.random.default_rng(ransac.seed)
    h, w = prev.shape
    center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])

    if model_kind == "translation":
        disp = p1 - p0
        idx = rng.integers(0, m, ransac.iters)
        err = np.linalg.norm(disp[None, :, :] - disp[idx, None, :], axis=2)
        inl = err <= ransac.inlier_px
        best = inl[_ransac_pick(inl.sum(axis=1))]
        dx, dy = np.median(disp[best], axis=0)
        return MotionParams("translation", float(dx), float(dy),
                            inlier_ratio=float(best.mean()))

    if model_kind == "similarity":
        if m < 2:
            raise UnderDetermined("similarity needs at least 2 matches")
        z0 = p0[:, 0] + 1j * p0[:, 1]
        z1 = p1[:, 0] + 1j * p1[:, 1]
        a, t, ratio = _ransac_similarity(z0, z1, ransac, rng)
        # Model-conditioned refinement: translational LK is biased when the
        # window itself rotates, so re-track against a warped template and
        # refit.  Two passes are enough to push the bias below 0.01 px.
        for _ in range(2):
            a, t, ratio = _refine_similarity(prev, pyr_n, z0, a, t, ransac, rng) or (a, t, ratio)
        c = center[0] + 1j * center[1]
        delta = a * c + t - c
        return MotionParams(
            "similarity",
            float(delta.real),
            float(delta.imag),
            theta=float(np.arctan2(a.imag, a.real)),
            scale=float(abs(a)),
            inlier_ratio=ratio,
        )

    # homography: ransac.iters distinct 4-point samples (the 4 smallest of
    # one uniform key row each), scored together in _ransac_homography
    if m < 4:
        raise UnderDetermined(f"homography needs 4 matches, have {m}")
    keys = rng.random((ransac.iters, m))
    samples = np.argpartition(keys, 3, axis=1)[:, :4]
    _, best_inl, h_final = _ransac_homography(p0, p1, samples, ransac.inlier_px)
    cxy = _apply_h(h_final, center[None, :])[0]
    # affine Jacobian at the frame center
    x, y = center
    den = h_final[2, 0] * x + h_final[2, 1] * y + h_final[2, 2]
    nu = h_final[0, 0] * x + h_final[0, 1] * y + h_final[0, 2]
    nv = h_final[1, 0] * x + h_final[1, 1] * y + h_final[1, 2]
    j = np.array(
        [
            [h_final[0, 0] * den - nu * h_final[2, 0], h_final[0, 1] * den - nu * h_final[2, 1]],
            [h_final[1, 0] * den - nv * h_final[2, 0], h_final[1, 1] * den - nv * h_final[2, 1]],
        ]
    ) / (den * den)
    theta = float(np.arctan2(j[1, 0] - j[0, 1], j[0, 0] + j[1, 1]))
    det_j = float(np.linalg.det(j))
    return MotionParams(
        "homography",
        float(cxy[0] - x),
        float(cxy[1] - y),
        theta=theta,
        scale=float(np.sqrt(max(det_j, 1e-12))),
        h=h_final,
        inlier_ratio=float(best_inl.mean()),
    )


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def accumulate_trajectory(params: list[MotionParams]) -> Trajectory:
    """Prefix-sum per-pair motion into a camera path anchored at zero."""
    if not params:
        raise ValueError("empty parameter list")
    kinds = {p.model_kind for p in params}
    if len(kinds) > 1:
        raise ConfigError(f"mixed motion models: {sorted(kinds)}")
    dx = np.array([p.dx for p in params])
    dy = np.array([p.dy for p in params])
    dth = np.array([p.theta for p in params])
    zero = np.zeros(1)
    return Trajectory(
        x=np.concatenate([zero, np.cumsum(dx)]),
        y=np.concatenate([zero, np.cumsum(dy)]),
        theta=np.concatenate([zero, np.cumsum(dth)]),
    )


def video_trajectory(
    seq,
    model_kind: str = "similarity",
    ransac: RansacParams | None = None,
) -> tuple[Trajectory, list[MotionParams]]:
    """Per-pair motion over a FrameSequence, accumulated into a Trajectory.

    Each frame is converted to luma once; only the two planes of the current
    pair are held, never the whole (T, H, W) stack."""
    params = []
    prev = None
    for frame in seq.frames:
        nxt = _as_luma(frame)
        if prev is not None:
            params.append(estimate_motion(prev, nxt, model_kind, ransac))
        prev = nxt
    return accumulate_trajectory(params), params


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------

_FLOW_MAGIC = b"STKFLOW\x00"


def save_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("frame,x,y,theta\n")
        for i in range(traj.length):
            fh.write(f"{i},{traj.x[i]:.9g},{traj.y[i]:.9g},{traj.theta[i]:.9g}\n")


def load_trajectory_csv(path: str | Path) -> Trajectory:
    try:
        rows = Path(path).read_text(encoding="ascii").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"trajectory CSV is not ASCII: {exc}") from exc
    if not rows or rows[0] != "frame,x,y,theta":
        raise ParseError("bad trajectory CSV header")
    cells = [r.split(",") for r in rows[1:]]
    if not cells:
        raise ParseError("trajectory CSV has no rows")
    if any(len(c) != 4 for c in cells):
        raise ParseError("trajectory CSV rows need 4 fields")
    try:
        vals = np.array([[float(v) for v in c] for c in cells])
    except ValueError as exc:
        raise ParseError(f"non-numeric trajectory CSV cell: {exc}") from exc
    return Trajectory(x=vals[:, 1], y=vals[:, 2], theta=vals[:, 3])


def save_flow(flow: FlowField, path: str | Path) -> None:
    """Binary flow grid: 16-byte header (magic, u32 width, u32 height), then
    u and v as little-endian f32, row-major."""
    with open(path, "wb") as fh:
        fh.write(_FLOW_MAGIC)
        fh.write(struct.pack("<II", flow.width, flow.height))
        fh.write(flow.u.astype("<f4").tobytes())
        fh.write(flow.v.astype("<f4").tobytes())


def load_flow(path: str | Path) -> FlowField:
    data = Path(path).read_bytes()
    if data[:8] != _FLOW_MAGIC:
        raise ParseError("not a stabilitykit flow file")
    if len(data) < 16:
        raise TruncatedError(f"flow header truncated: {len(data)} of 16 bytes")
    width, height = struct.unpack("<II", data[8:16])
    n = width * height
    if len(data) < 16 + 8 * n:
        raise TruncatedError(
            f"flow payload truncated: expected {8 * n} bytes, got {len(data) - 16}"
        )
    grid = np.frombuffer(data, "<f4", 2 * n, 16)
    u = grid[:n].reshape(height, width).astype(np.float64)
    v = grid[n:].reshape(height, width).astype(np.float64)
    return FlowField(width=width, height=height, u=u, v=v)
