"""Inter-frame motion: corners, pyramidal Lucas-Kanade, robust model fits,
dense grid flow, and camera trajectories.

``video_trajectory`` and ``grid_flow_sequence`` build one pyramid stack per
run of frames and track every adjacent pair of it in one LK solve
(``_track``); ``estimate_motion`` runs the same engine on two frames.

Level 0 of every pyramid is the frames as given, uint8 for a decoded video,
with no float copy; the coarser levels are float32 (``_pyramid``).  Only what
is gathered is cast: an LK template and its gradients come from one
edge-clamped 18x18 gather per point, cast to float32 and lerped to 17x17
samples at the point's fractional offset (rounded to float32), the template
the central 15x15 and the gradients its central differences (``_templates``).
LK solves run over at most _RUN_POINTS points at a time, so their gathers stay
small.  Positions, steps and fits are float64, and each LK sum over a window
adds its float32 products in float64.

Homography RANSAC scores its 4-point hypotheses in closed form
(``_quad_homographies``), with no solve per hypothesis; a sample with a
triangle of near-zero area in either frame is invalid.  Only the refit on the
winner's inliers runs a normalized DLT, one thin SVD (``_homography_dlt``).

Corners come from level 1 of that pyramid, the half-resolution plane LK
already needs, and are doubled into level-0 pixels: each lies at least _LK_WIN
level-0 pixels from every edge, so its 15x15 window is inside the frame
(``_corners``).  A frame whose level 1 is missing, under 32 px, or short of
corners is detected at level 0 instead.  Tracking, RANSAC and the similarity
refinement run at level 0.

Coordinates are (x, y) in pixels with the origin at the top-left pixel
center.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    ConfigError,
    DegenerateScene,
    DimensionMismatch,
    TrackingFailure,
    UnderDetermined,
)
from .media import to_luma  # noqa: F401  (unused here; bench/tracing.py patches the name)


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


# ---------------------------------------------------------------------------
# Corner detection (minimum-eigenvalue response)
# ---------------------------------------------------------------------------


def corner_response(luma: np.ndarray) -> np.ndarray:
    """Shi-Tomasi response: smaller eigenvalue of the 5x5 structure tensor."""
    gy, gx = np.gradient(luma.astype(np.float64, copy=False))
    sxx = ndimage.uniform_filter(gx * gx, size=5, mode="nearest")
    syy = ndimage.uniform_filter(gy * gy, size=5, mode="nearest")
    sxy = ndimage.uniform_filter(gx * gy, size=5, mode="nearest")
    half_trace = 0.5 * (sxx + syy)
    root = np.sqrt(0.25 * (sxx - syy) ** 2 + sxy * sxy)  # a sum of squares: never negative
    return half_trace - root


_MAX_CORNERS = 200
_MIN_CORNERS = 8
_MIN_PLANE = 32  # least height and width of a plane to detect on
_NMS_RADIUS = 8
_LK_WIN = 7  # LK window radius -> 15x15


def detect_corners(luma: np.ndarray, quality: float = 0.01, nms_radius: int = _NMS_RADIUS,
                   border: int = _LK_WIN + 1) -> np.ndarray:
    """The at most _MAX_CORNERS strongest corners of a plane as (n, 2)
    sub-pixel (x, y) in its own pixels, sorted by score descending; fewer than
    _MIN_CORNERS raise DegenerateScene.  No corner lies within ``border``
    pixels of an edge before its sub-pixel shift of at most 0.5 px, so at the
    default, _LK_WIN + 1, its LK window stays inside the plane.  Trajectories
    detect on pyramid level 1 (``_corners``)."""
    h, w = luma.shape
    if h < _MIN_PLANE or w < _MIN_PLANE:
        raise DimensionMismatch(f"corner detection needs a plane of at least {_MIN_PLANE}x{_MIN_PLANE}")
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
    order = np.argsort(-scores, kind="stable")[:_MAX_CORNERS]
    ys, xs, scores = ys[order], xs[order], scores[order]
    if len(xs) < _MIN_CORNERS:
        raise DegenerateScene(f"only {len(xs)} corners found, need {_MIN_CORNERS}")

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

_LK_LEVELS = 3
_LK_MAX_ITER = 30
_LK_EPS = 0.01
_LK_MAX_RESIDUAL = 25.0  # RMS gray levels over the window
_RUN_POINTS = 512  # most points per LK solve (_in_runs)
_PYR_RUN_FRAMES = 4  # most frames per blur of a coarser pyramid level

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_TAPS = np.arange(-_LK_WIN, _LK_WIN + 2)  # 16 integer taps span a 15-wide lerp
_TMPL_TAPS = np.arange(-_LK_WIN - 1, _LK_WIN + 3)  # 18 span a 17-wide lerp: 15 and a border


def _pyramid(stack: np.ndarray) -> list[np.ndarray]:
    """Per-level (T, h, w) stacks of a (T, H, W) luma stack.  Level 0 is the
    stack itself in its own dtype, uint8 for stored frames (made C-contiguous,
    never cast).  Each coarser level is a float32 array blurred from the one
    above in runs of at most _PYR_RUN_FRAMES frames, one ``correlate1d`` pass
    per axis; each pass computes a line in float64 and rounds it to float32
    once, so a uint8 stack gives the levels of its float64 copy bit for bit.
    For 8-bit frames nothing rounds: the binomial taps are sixteenths, so a
    level-2 value is a multiple of 2^-16 below 256, which float32 holds."""
    out = [np.ascontiguousarray(stack)]
    for _ in range(_LK_LEVELS - 1):
        prev = out[-1]
        t, h, w = prev.shape
        if min(h, w) // 2 < 2 * _LK_WIN + 3:
            break
        level = np.empty((t, (h + 1) // 2, (w + 1) // 2), dtype=np.float32)
        for i in range(0, t, _PYR_RUN_FRAMES):
            run = prev[i : i + _PYR_RUN_FRAMES]
            # the row blur acts on each row alone, so it skips the dropped rows
            rows = ndimage.correlate1d(run, _BINOMIAL5, axis=1, mode="nearest", output=np.float32)
            blurred = ndimage.correlate1d(rows[:, ::2], _BINOMIAL5, axis=2, mode="nearest", output=np.float32)
            level[i : i + _PYR_RUN_FRAMES] = blurred[:, :, ::2]
        out.append(level)
    return out


def _tap_grid(xy: np.ndarray, taps: np.ndarray, w: int, h: int) -> tuple[np.ndarray, ...]:
    """Edge-clamped integer tap columns ix (n, k) and rows iy (n, k) around
    xy (n, 2), and xy's fractional offsets fx, fy (n,) as float32, the dtype
    ``_lerp`` takes them in."""
    base = np.floor(xy)
    fx, fy = (xy - base).T.astype(np.float32)
    # clipped only where every tap already clamps to the same edge pixel
    base = np.clip(base, -_LK_WIN - 2, max(h, w) + _LK_WIN).astype(np.intp)
    return np.clip(base[:, 0:1] + taps, 0, w - 1), np.clip(base[:, 1:2] + taps, 0, h - 1), fx, fy


def _gather(stack: np.ndarray, frame: np.ndarray, xy: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """(n, k-1, k-1) float32 bilinear samples at xy (n, 2) in the planes
    ``stack[frame]``: one gather of the k x k edge-clamped pixels at ``taps``,
    cast to float32 and lerped by xy's offset."""
    _, h, w = stack.shape
    ix, iy, fx, fy = _tap_grid(xy, taps, w, h)
    flat = (frame[:, None, None] * h + iy[:, :, None]) * w + ix[:, None, :]
    return _lerp(stack.ravel().take(flat).astype(np.float32, copy=False), fx, fy)


def _windows(stack: np.ndarray, frame: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Edge-clamped bilinear 15x15 windows centred on xy (n, 2), as (n, 225)."""
    return _gather(stack, frame, xy, _TAPS).reshape(len(xy), (2 * _LK_WIN + 1) ** 2)


def _derivs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Templates (the central 15x15) of n (17, 17) blocks and their x, y central differences."""
    grads = (s[:, 1:-1, 1:-1], (s[:, 1:-1, 2:] - s[:, 1:-1, :-2]) / 2.0, (s[:, 2:, 1:-1] - s[:, :-2, 1:-1]) / 2.0)
    return tuple(g.reshape(len(s), (2 * _LK_WIN + 1) ** 2) for g in grads)


def _templates(stack: np.ndarray, frame: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, ...]:
    """LK templates at xy (n, 2) in ``stack[frame]`` and their x, y gradients,
    (n, 225) each; the templates equal ``_windows`` of the same points bit for bit."""
    return _derivs(_gather(stack, frame, xy, _TMPL_TAPS))


def _lerp(p: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """(n, k-1, k-1) bilinear samples of n (k, k) blocks, one offset each;
    float32 blocks and offsets give float32 samples."""
    # a + (b - a) * f, in place to hold fewer temporaries
    rows = p[:, :, 1:] - p[:, :, :-1]
    rows *= fx[:, None, None]
    rows += p[:, :, :-1]
    win = rows[:, 1:] - rows[:, :-1]
    win *= fy[:, None, None]
    win += rows[:, :-1]
    return win


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
    warped: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pyramidal LK of pts (n, 2) from frame src[i] of the pyr_src stacks to
    frame dst[i] of pyr_dst (both default to frame 0); returns (new_pts, ok).
    At each level one ``_templates`` call gives every template and gradient:
    an edge-clamped 18x18 gather, lerped, then central differences.  ``warped``
    gives each point's own level-0 template and x, y gradients, (n, 225) each,
    in place of pyr_src's, and skips the coarser levels.

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

    for lev in range(0 if warped is not None else len(pyr_src) - 1, -1, -1):
        scale = 2.0**lev
        p_lev = pts / scale
        d_lev = d / scale
        rows = np.nonzero(ok)[0]
        if warped is not None:
            tmpl, gxs, gys = (a[rows] for a in warped)
        else:
            tmpl, gxs, gys = _templates(pyr_src[lev], src[rows], p_lev[rows])
        rows0, tmpl0 = rows, tmpl  # after the loop: level 0's, for the residual check
        gxx = np.sum(gxs * gxs, axis=1, dtype=np.float64)
        gxy = np.sum(gxs * gys, axis=1, dtype=np.float64)
        gyy = np.sum(gys * gys, axis=1, dtype=np.float64)
        det = gxx * gyy - gxy * gxy
        keep = det > 1e-9
        ok[rows[~keep]] = False

        converged[:] = False
        for _ in range(_LK_MAX_ITER):
            if not keep.all():  # compacting by an all-true mask only copies
                rows, tmpl, gxs, gys, gxx, gxy, gyy, det = (
                    a[keep] for a in (rows, tmpl, gxs, gys, gxx, gxy, gyy, det)
                )
            if len(rows) == 0:
                break
            err = _windows(pyr_dst[lev], dst[rows], p_lev[rows] + d_lev[rows])
            err -= tmpl
            bx = -np.sum(gxs * err, axis=1, dtype=np.float64)
            by = -np.sum(gys * err, axis=1, dtype=np.float64)
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
    cur -= tmpl0[np.searchsorted(rows0, rows)]  # ok only loses rows after level 0 starts
    ok[rows] = np.sqrt(np.mean(cur**2, axis=1, dtype=np.float64)) <= _LK_MAX_RESIDUAL
    return new_pts, ok


def _in_runs(solve, *rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``solve`` over runs of at most _RUN_POINTS rows of the arrays ``rows``,
    its outputs concatenated.  _track rows are independent, so the split
    bounds the working set without changing any result."""
    starts = range(0, max(len(rows[0]), 1), _RUN_POINTS)  # an empty input still makes one call
    parts = [solve(*(a[i : i + _RUN_POINTS] for a in rows)) for i in starts]
    return tuple(np.concatenate(outs) for outs in zip(*parts))


def track_lk(
    prev: np.ndarray, nxt: np.ndarray, points: np.ndarray
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Pyramidal LK tracking; returns surviving ((x0, y0), (x1, y1)) pairs."""
    if prev.shape != nxt.shape:
        raise DimensionMismatch("planes must share dimensions")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 1:
        raise ConfigError("need at least one point")
    new_pts, ok = _track(_pyramid(prev[None]), _pyramid(nxt[None]), pts)
    if not ok.any():
        raise TrackingFailure("no point survived tracking")
    return [
        ((float(p[0]), float(p[1])), (float(q[0]), float(q[1])))
        for p, q in zip(pts[ok], new_pts[ok])
    ]


def check_grid(grid: int) -> None:
    """Raise ConfigError unless the flow grid size is in [4, 32]."""
    if not 4 <= grid <= 32:
        raise ConfigError(f"grid must be in [4, 32], got {grid}")


def _grid_track(lumas: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Track the grid-cell centres over all T-1 adjacent pairs of a (T, H, W)
    luma stack, uint8 or float, in one solve; returns (pts (n, 2),
    disp (T-1, n, 2), ok (T-1, n))."""
    check_grid(grid)
    pyr = _pyramid(lumas)
    h, w = pyr[0].shape[1:]
    cx = (np.arange(grid) + 0.5) * (w / grid)
    cy = (np.arange(grid) + 0.5) * (h / grid)
    gx, gy = np.meshgrid(cx, cy)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pairs = len(pyr[0]) - 1
    src = np.repeat(np.arange(pairs), len(pts))
    all_pts = np.tile(pts, (pairs, 1))
    new_pts, ok = _in_runs(lambda p, s: _track(pyr, pyr, p, s, s + 1), all_pts, src)
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


def grid_flow_sequence(lumas: np.ndarray, grid: int) -> list[FlowField]:
    """LK flow seeded at the grid-cell centres of every adjacent pair of a
    (T, H, W) luma stack, all pairs tracked in one solve.  Failed cells take
    the nearest successful cell's displacement, and a pair where every cell
    fails (constant or pure-noise content) gives a zero field."""
    pts, disp, ok = _grid_track(lumas, grid)
    return [_grid_field(pts, dp, k, grid) for dp, k in zip(disp, ok)]


# ---------------------------------------------------------------------------
# Robust parametric motion
# ---------------------------------------------------------------------------


_RANSAC_ITERS = 500
_INLIER_PX = 2.0
_REFINE_INLIER_PX = 0.75  # the refit after re-tracking against warped templates


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
    z0: np.ndarray, z1: np.ndarray, inlier_px: float, rng: np.random.Generator
) -> tuple[complex, complex, float]:
    """Seeded 2-point RANSAC plus least squares over the inliers."""
    m = len(z0)
    i0 = rng.integers(0, m, _RANSAC_ITERS)
    i1 = (i0 + 1 + rng.integers(0, m - 1, _RANSAC_ITERS)) % m
    base = z0[i1] - z0[i0]
    safe = np.abs(base) > 1e-9
    a_cand = np.where(safe, (z1[i1] - z1[i0]) / np.where(safe, base, 1.0), 1.0)
    t_cand = z1[i0] - a_cand * z0[i0]
    err = np.abs(a_cand[:, None] * z0[None, :] + t_cand[:, None] - z1[None, :])
    inl = (err <= inlier_px) & safe[:, None]
    best = inl[_ransac_pick(inl.sum(axis=1))]
    if best.sum() < 2:
        best = np.ones(m, dtype=bool)
    a, t = _fit_similarity(z0[best], z1[best])
    return a, t, float(best.mean())


def _sample(stack: np.ndarray, frame: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Edge-clamped float32 bilinear samples of the planes ``stack[frame]`` at
    (x, y), frame broadcast to their shape.  Each sample's upper and lower
    pixel pairs are gathered, cast and lerped along x one row at a time, then
    lerped along y, by offsets rounded to float32: ``_lerp``'s arithmetic in
    its order, with one (m, 2) gather live at a time."""
    _, h, w = stack.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    # the last column and row lerp from their left and upper neighbours
    x0 = np.minimum(x.astype(np.intp), w - 2)
    y0 = np.minimum(y.astype(np.intp), h - 2)
    i = ((frame * h + y0) * w + x0).reshape(-1, 1)
    fx = (x - x0).ravel().astype(np.float32)

    def row(k: int) -> np.ndarray:  # a + (b - a) * fx of the pair at i + k
        pair = stack.ravel().take(i + [k, k + 1]).astype(np.float32, copy=False)
        out = pair[:, 1] - pair[:, 0]
        out *= fx
        out += pair[:, 0]
        return out

    top = row(0)
    win = row(w)
    win -= top
    win *= (y - y0).ravel().astype(np.float32)
    win += top
    return win.reshape(x.shape)


def _refine_track(lumas: np.ndarray, src: np.ndarray, z0: np.ndarray, a: np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-track corners z0 (complex) of frames src into frames src + 1 from
    zw = a z0 + t, against the source warped by z -> a z + t.  Of that warped
    frame only the 18x18 pixels around zw are made, then lerped to zw and
    differenced by ``_derivs``, the tail of ``_templates``.  Level 0 only: the
    model predicts each inlier to within the RANSAC threshold.  Returns (zw, z1, ok)."""
    _, h, w = lumas.shape
    zw = a * z0 + t
    pw = np.stack([zw.real, zw.imag], axis=1)
    qx, qy, fx, fy = _tap_grid(pw, _TMPL_TAPS, w, h)
    ainv = 1.0 / a[:, None, None]
    q = ainv * (qx[:, None, :] + 1j * qy[:, :, None]) - t[:, None, None] * ainv
    warped = _derivs(_lerp(_sample(lumas, src[:, None, None], q.real, q.imag), fx, fy))
    new, ok = _track([lumas], [lumas], pw, src, src + 1, warped)
    return zw, new[:, 0] + 1j * new[:, 1], ok


def _homography_dlt(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized DLT over a stack of k point sets; p0, p1 are (k, m, 2) with
    m >= 4.  Returns (k, 3, 3) homographies scaled to h22 = 1 and a (k,) mask
    of valid fits; invalid entries hold finite junk.

    A tall system (m >= 5) takes the thin SVD: its last right singular vector
    is the full SVD's bit for bit (LAPACK gesdd computes V alike for both), and
    it builds no 2m x 2m U.  At m = 4 the 8 x 9 system's thin form drops the
    null vector, so it keeps the full form."""

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
    _, s, vt = np.linalg.svd(a, full_matrices=m == 4)
    hn = vt[:, -1].reshape(k, 3, 3)
    h = np.linalg.inv(t1) @ hn @ t0
    h22 = h[:, 2, 2]
    # a rank-deficient (e.g. collinear) sample has no unique null vector
    valid = ok0 & ok1 & (s[:, -2] >= 1e-12) & (np.abs(h22) >= 1e-12)
    return h / np.where(valid, h22, 1.0)[:, None, None], valid


_QUAD_AREA_TOL = 1e-10  # least |2 x triangle area| of a quad, over its spread


def _quad_basis(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For quads q (k, 4, 2) with homogeneous corners a, b, c, d: M = [a b c]
    as columns, adj(M) (rows b x c, c x a, a x b), the adjugate weights
    lam = adj(M) d, which with det(M) are twice the signed areas of the
    quad's four triangles, and a (k,) mask of quads whose every triangle has
    |2 x area| > _QUAD_AREA_TOL x the sum of squared corner distances from
    the centroid.  That rule rejects coincident, duplicated and collinear
    corners."""
    hom = np.concatenate([q, np.ones(q.shape[:2] + (1,))], axis=2)
    adj = np.cross(hom[:, [1, 2, 0]], hom[:, [2, 0, 1]])
    lam = np.einsum("kij,kj->ki", adj, hom[:, 3])
    areas = np.c_[np.einsum("kj,kj->k", adj[:, 0], hom[:, 0]), lam]
    spread = ((q - q.mean(axis=1, keepdims=True)) ** 2).sum(axis=(1, 2))
    return hom[:, :3].transpose(0, 2, 1), adj, lam, np.abs(areas).min(axis=1) > _QUAD_AREA_TOL * spread


def _quad_homographies(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form homographies taking each quad p0 (k, 4, 2) onto p1
    (Heckbert 1989, sec. 2.2.3): H ~ N diag(mu / lam) adj(M), with M, lam of
    p0 and N, mu of p1 from ``_quad_basis``.  The weights are scaled by
    lam1 lam2 lam3 to mu_i lam_j lam_k, so nothing divides before h22.
    Returns (k, 3, 3) homographies scaled to h22 = 1 and a (k,) mask: a fit
    is valid when both quads pass ``_quad_basis`` and |h22| > 1e-12 max|H|.
    Invalid entries hold finite junk."""
    _, adj0, lam, ok0 = _quad_basis(p0)
    n, _, mu, ok1 = _quad_basis(p1)
    w = mu * lam[:, [1, 0, 0]] * lam[:, [2, 2, 1]]
    h = (n * w[:, None, :]) @ adj0
    h22 = h[:, 2, 2]
    valid = ok0 & ok1 & (np.abs(h22) > 1e-12 * np.abs(h).max(axis=(1, 2)))
    return h / np.where(valid, h22, 1.0)[:, None, None], valid


def _ransac_homography(
    p0: np.ndarray, p1: np.ndarray, samples: np.ndarray, inlier_px: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """Score every 4-point sample (row of ``samples``) as one batch, then refit
    on the winner's inliers; returns (winning row, inlier mask, H).

    Every hypothesis is a closed-form 4-point homography
    (``_quad_homographies``), with no solve per hypothesis, and one matmul
    projects every match through every candidate.  Invalid fits count -1, so
    they never win.  The refit is one normalized DLT (``_homography_dlt``)
    over the winner's inliers.
    """
    h_cand, valid = _quad_homographies(p0[samples], p1[samples])
    q = np.c_[p0, np.ones(len(p0))] @ h_cand.transpose(0, 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a match sent to infinity is no inlier
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


# Level-1 pixel i is level-0 pixel 2i.  Half the default suppression radius
# keeps the level-0 spacing of corners, and a level-1 border b keeps a doubled
# corner, after its sub-pixel shift, 2b - 1 >= _LK_WIN level-0 pixels from
# every edge: its 15x15 LK window stays inside level 0.
_L1_NMS_RADIUS = _NMS_RADIUS // 2
_L1_BORDER = (_LK_WIN + 2) // 2


def _corners(pyr: list[np.ndarray], k: int) -> np.ndarray:
    """Corners of frame k of a pyramid stack in level-0 (x, y): detected on
    its level-1 plane and doubled, so each lies at least _LK_WIN level-0
    pixels from every edge.  With no level 1, a level 1 under _MIN_PLANE px,
    or fewer than _MIN_CORNERS corners there, the frame is detected at
    level 0, at least _LK_WIN + 0.5 px from every edge."""
    if len(pyr) > 1 and min(pyr[1].shape[1:]) >= _MIN_PLANE:
        try:
            return 2.0 * detect_corners(pyr[1][k], nms_radius=_L1_NMS_RADIUS, border=_L1_BORDER)
        except DegenerateScene:
            pass
    try:
        return detect_corners(pyr[0][k])
    except DegenerateScene:
        # small frames starve under the default 8 px suppression radius
        return detect_corners(pyr[0][k], nms_radius=4, quality=0.005)


def _similarity_params(lumas: np.ndarray, fits: list, center: np.ndarray) -> list[MotionParams]:
    """Refine the similarity fits (z0, a, t, inlier ratio, rng) of the pairs
    of ``lumas``.  Translational LK is biased when the window itself rotates,
    so the corners of all pairs are re-tracked against warped templates and
    the residual motion refit; two passes push the bias below 0.01 px."""
    z0, a, t, ratio, rngs = (list(f) for f in zip(*fits))
    pair = np.repeat(np.arange(len(fits)), [len(z) for z in z0])
    z0, a, t = np.concatenate(z0), np.array(a), np.array(t)
    for _ in range(2):
        zw, z1, ok = _in_runs(partial(_refine_track, lumas), pair, z0, a[pair], t[pair])
        for k, rng in enumerate(rngs):
            sel = ok & (pair == k)
            if sel.sum() >= 2:
                a2, t2, ratio[k] = _ransac_similarity(zw[sel], z1[sel], _REFINE_INLIER_PX, rng)
                # compose the residual fit with the incoming model
                a[k], t[k] = a2 * a[k], a2 * t[k] + t2
    c = center[0] + 1j * center[1]
    delta = a * c + t - c
    return [MotionParams("similarity", float(d.real), float(d.imag), float(np.arctan2(ak.imag, ak.real)),
                         float(abs(ak)), inlier_ratio=r) for d, ak, r in zip(delta, a, ratio)]


def _pair_motions(pyr: list[np.ndarray], model_kind: str, seed: int) -> list[MotionParams]:
    """Motion of every adjacent frame pair of one pyramid stack: corners per
    frame from its level 1 (``_corners``), one _track of all pairs at level
    0, then per pair a fit that draws from its own ``default_rng(seed)``.
    Errors are raised in pair order."""
    if model_kind not in ("translation", "similarity", "homography"):
        raise ConfigError(f"unknown motion model {model_kind!r}")
    lumas = pyr[0]
    pairs = len(lumas) - 1
    h, w = lumas.shape[1:]
    center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    corners, failed = [], {}
    for k in range(pairs):
        try:
            corners.append(_corners(pyr, k))
        except DegenerateScene as exc:
            failed[k] = exc  # raised when pair k comes up
            corners.append(np.empty((0, 2)))
    src = np.repeat(np.arange(pairs), [len(c) for c in corners])
    pts = np.concatenate(corners)
    new_pts, ok = _in_runs(lambda p, s: _track(pyr, pyr, p, s, s + 1), pts, src)
    params, fits = [], []
    for k in range(pairs):
        if k in failed:
            raise failed[k]
        sel = ok & (src == k)
        if not sel.any():
            raise TrackingFailure("no corner survived tracking")
        p0, p1 = pts[sel], new_pts[sel]
        rng = np.random.default_rng(seed)
        if model_kind == "translation":
            disp = p1 - p0
            idx = rng.integers(0, len(p0), _RANSAC_ITERS)
            inl = np.linalg.norm(disp[None, :, :] - disp[idx, None, :], axis=2) <= _INLIER_PX
            best = inl[_ransac_pick(inl.sum(axis=1))]
            dx, dy = np.median(disp[best], axis=0)
            params.append(MotionParams("translation", float(dx), float(dy), inlier_ratio=float(best.mean())))
        elif model_kind == "homography":
            if len(p0) < 4:
                raise UnderDetermined(f"homography needs 4 matches, have {len(p0)}")
            # _RANSAC_ITERS distinct 4-point samples (the 4 smallest of one
            # uniform key row each), scored together in _ransac_homography
            samples = np.argpartition(rng.random((_RANSAC_ITERS, len(p0))), 3, axis=1)[:, :4]
            _, inl, hm = _ransac_homography(p0, p1, samples, _INLIER_PX)
            cxy = _apply_h(hm, center[None, :])[0] - center
            # affine Jacobian at the frame center
            nu, nv, den = hm[:, 0] * center[0] + hm[:, 1] * center[1] + hm[:, 2]
            j = (hm[:2, :2] * den - np.outer([nu, nv], hm[2, :2])) / (den * den)
            params.append(MotionParams(
                "homography", float(cxy[0]), float(cxy[1]),
                theta=float(np.arctan2(j[1, 0] - j[0, 1], j[0, 0] + j[1, 1])),
                scale=float(np.sqrt(max(float(np.linalg.det(j)), 1e-12))),
                h=hm, inlier_ratio=float(inl.mean())))
        else:
            if len(p0) < 2:
                raise UnderDetermined("similarity needs at least 2 matches")
            z0 = p0[:, 0] + 1j * p0[:, 1]
            z1 = p1[:, 0] + 1j * p1[:, 1]
            fits.append((z0, *_ransac_similarity(z0, z1, _INLIER_PX, rng), rng))
    if model_kind == "similarity":
        return _similarity_params(lumas, fits, center)
    return params


def estimate_motion(prev_frame: np.ndarray, next_frame: np.ndarray, model_kind: str = "similarity",
                    seed: int = 0) -> MotionParams:
    """Corner matching + RANSAC fit of the requested motion model, its
    hypotheses drawn from ``seed``.

    Frames are (H, W) luma planes, uint8 or float.  This is the
    ``video_trajectory`` engine on a two-frame stack, so it equals that pair
    of a trajectory.  Every model draws all _RANSAC_ITERS hypotheses up
    front and scores them in one vectorized pass; ties go to the earliest.
    A match within _INLIER_PX pixels of a hypothesis is its inlier.
    """
    if prev_frame.shape != next_frame.shape:
        raise DimensionMismatch("frames must share dimensions")
    pyr = _pyramid(np.stack([prev_frame, next_frame]))
    return _pair_motions(pyr, model_kind, seed)[0]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def accumulate_trajectory(params: list[MotionParams]) -> Trajectory:
    """Prefix-sum per-pair motion into a camera path anchored at zero."""
    if not params:
        raise ConfigError("empty parameter list")
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


_TRAJ_RUN_PAIRS = 16  # most frame pairs per pyramid stack in video_trajectory


def video_trajectory(seq, model_kind: str = "similarity", seed: int = 0,
                     map_fn=map) -> tuple[Trajectory, list[MotionParams]]:
    """Per-pair motion over a FrameSequence, accumulated into a Trajectory.

    Runs of at most _TRAJ_RUN_PAIRS pairs each build one pyramid stack whose
    level 0 is the run's frames as stored, uint8 for a decoded video; only
    the LK windows and warp samples gathered from it are cast to float32.  A
    run's first frame is the previous run's last, and each run builds that
    frame's pyramid again, so the runs are independent: ``map_fn`` (``map``,
    or the CLI's ``fork_map``, which runs them on one worker per CPU) maps
    one function over the runs' first frames and must give the results, and
    raise the first error, in run order.  A pair's result equals
    ``estimate_motion`` on its two frames."""
    last = len(seq.frames) - 1

    def run(start: int) -> list[MotionParams]:
        stop = min(start + _TRAJ_RUN_PAIRS, last)
        return _pair_motions(_pyramid(seq.frames[start : stop + 1]), model_kind, seed)

    params = [mp for run_params in map_fn(run, range(0, last, _TRAJ_RUN_PAIRS)) for mp in run_params]
    return accumulate_trajectory(params), params


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------

def save_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("frame,x,y,theta\n")
        for i in range(traj.length):
            fh.write(f"{i},{traj.x[i]:.9g},{traj.y[i]:.9g},{traj.theta[i]:.9g}\n")
