"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces public stabilitykit functions, in the
namespace each caller reads them from, with timing wrappers, and restores
the originals on exit.  A span's self time is its duration minus the spans
of wrapped functions it called.  Each layer reports the counts an
optimisation can move and, where a layer can waste work, a useful/attempted
ratio.  ``report()`` names every metric in ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

# Metrics whose ".s" is self time; every other ".s" is the inclusive span.
SELF_TIMED = {"cli.main", "motion.estimate_motion", "features.clip_features"}

# (module name, attribute, span name).  Each name is patched where its
# caller looks it up, e.g. the CLI reads video_trajectory from its own
# namespace and the feature code reads grid_flow_sequence from features.
PATCHES = [
    ("cli", "main", "cli.main"),
    ("cli", "load_y4m", "media.load_y4m"),
    ("classic", "to_luma", "media.to_luma"),
    ("motion", "to_luma", "media.to_luma"),
    ("features", "to_luma", "media.to_luma"),
    ("cli", "video_trajectory", "motion.video_trajectory"),
    ("motion", "estimate_motion", "motion.estimate_motion"),
    ("motion", "detect_corners", "motion.detect_corners"),
    ("features", "grid_flow_sequence", "motion.grid_flow_sequence"),
    ("cli", "itf", "classic.itf"),
    ("cli", "stability_score", "classic.stability_score"),
    ("features", "clip_features", "features.clip_features"),
    ("features", "save_feature_cache", "features.save_feature_cache"),
    ("features", "load_feature_cache", "features.load_feature_cache"),
    ("model", "train", "model.train"),
    ("model", "backward", "model.backward"),
    ("model", "predict_video", "model.predict_video"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("cli", "evaluate", "evaluation.evaluate"),
    ("evaluation", "logistic_fit", "evaluation.logistic_fit"),
    ("evaluation", "krcc", "evaluation.krcc"),
    ("evaluation", "srocc", "evaluation.srocc"),
]

# The names report() gives, in report order.  Their units and directions
# are in BENCHMARK.json, the one registry of metrics.
LAYER_METRICS = (
    "media.load_y4m.s",
    "media.frames_decoded",
    "media.to_luma.s",
    "media.luma_mpix",
    "motion.video_trajectory.s",
    "motion.estimate_motion.s",
    "motion.estimate_motion.calls",
    "motion.detect_corners.s",
    "motion.corners_per_pair",
    "motion.corner_fallbacks",
    "motion.track_lk.s",
    "motion.lk_survival",
    "motion.inlier_ratio_p50",
    "motion.inlier_ratio_min",
    "motion.scale_outliers",
    "motion.grid_flow_sequence.s",
    "motion.grid_flow_sequence.calls",
    "motion.zero_fields",
    "classic.itf.s",
    "classic.stability_score.s",
    "features.clip_features.s",
    "features.clip_features.calls",
    "features.save_feature_cache.s",
    "features.load_feature_cache.s",
    "model.train.s",
    "model.backward.s",
    "model.backward.calls",
    "model.predict_video.s",
    "model.load_checkpoint.s",
    "model.save_checkpoint.s",
    "evaluation.evaluate.s",
    "evaluation.logistic_fit.s",
    "evaluation.krcc.s",
    "evaluation.srocc.s",
    "evaluation.srocc.calls",
    "cli.main.s",
)


def program_modules() -> dict:
    """The stabilitykit modules that PATCHES and the tracer name."""
    from stabilitykit import classic, cli, errors, evaluation, features, media, model, motion

    return {"cli": cli, "classic": classic, "errors": errors, "evaluation": evaluation,
            "features": features, "media": media, "model": model, "motion": motion}


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self, now=time.perf_counter):
        self.modules = modules = program_modules()
        self.now = now
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.inlier_ratios: list[float] = []
        self._stack: list[list[float]] = []  # per open span: [child s, excluded s]
        self._pair: dict | None = None  # state of the estimate_motion call in flight
        self._luma = modules["media"].to_luma
        self._track_lk = modules["motion"].track_lk
        self._degenerate = modules["errors"].DegenerateScene
        self._tracking_failure = modules["errors"].TrackingFailure

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            self._stack.append(frame)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.now() - start - frame[1]
                self._stack.pop()
                self.total[name] += span
                self.self_time[name] += span - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += span
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _excluded(self, fn, *args):
        """Run tracer work inside open spans without charging it to them."""
        start = self.now()
        try:
            return fn(*args)
        finally:
            spent = self.now() - start
            for frame in self._stack:
                frame[1] += spent

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = self.modules[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._make(span, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _make(self, span: str, attr: str, fn):
        if attr == "estimate_motion":
            return self._estimate_motion(fn)
        if attr == "detect_corners":
            return self._detect_corners(fn)
        after = {
            "load_y4m": self._after_load,
            "to_luma": self._after_luma,
            "grid_flow_sequence": self._after_grid_flow,
        }.get(attr)
        return self._wrap(span, fn, after)

    # -- counters ------------------------------------------------------------

    def _after_load(self, args, kwargs, seq):
        self.count["media.frames_decoded"] += len(seq)

    def _after_luma(self, args, kwargs, luma):
        self.count["media.luma_mpix"] += luma.size / 1e6

    def _after_grid_flow(self, args, kwargs, fields):
        self.count["motion.zero_fields"] += sum(
            1 for f in fields if not np.any(f.u) and not np.any(f.v)
        )

    def _detect_corners(self, fn):
        timed = self._wrap("motion.detect_corners", fn)

        def traced(*args, **kwargs):
            try:
                corners = timed(*args, **kwargs)
            except self._degenerate:
                if self._pair is not None:
                    self._pair["fallback"] = True
                raise
            if self._pair is not None:
                self._pair["corners"] = corners
            return corners

        traced.__wrapped__ = fn
        return traced

    def _estimate_motion(self, fn):
        timed = self._wrap("motion.estimate_motion", fn)

        def traced(prev_frame, next_frame, *args, **kwargs):
            self._pair = {"corners": None, "fallback": False}
            try:
                params = timed(prev_frame, next_frame, *args, **kwargs)
                pair = self._pair
            finally:
                self._pair = None
            self.count["motion.corner_fallbacks"] += pair["fallback"]
            self.inlier_ratios.append(params.inlier_ratio)
            self.count["motion.scale_outliers"] += abs(params.scale - 1.0) > 0.1
            if pair["corners"] is not None:
                self._excluded(self._probe_lk, prev_frame, next_frame, pair["corners"])
            return params

        traced.__wrapped__ = fn
        return traced

    def _probe_lk(self, prev_frame, next_frame, corners):
        """One public track_lk call on the pair's corners: LK time and the
        share of corners that survive tracking."""
        prev = self._luma(prev_frame) if prev_frame.ndim == 3 else prev_frame
        nxt = self._luma(next_frame) if next_frame.ndim == 3 else next_frame
        start = self.now()
        try:
            survived = len(self._track_lk(prev, nxt, corners))
        except self._tracking_failure:
            survived = 0
        self.total["motion.track_lk"] += self.now() - start
        self.count["motion.corners_tracked"] += len(corners)
        self.count["motion.corners_survived"] += survived

    # -- report --------------------------------------------------------------

    def report(self) -> dict[str, float]:
        out = {}
        for name in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = self.self_time[base] if base in SELF_TIMED else self.total[base]
            elif kind == "calls":
                out[name] = float(self.calls[base])
            else:
                out[name] = float(self.count[name])
        pairs = self.calls["motion.estimate_motion"]
        tracked = self.count["motion.corners_tracked"]
        out["motion.corners_per_pair"] = tracked / pairs if pairs else 0.0
        out["motion.lk_survival"] = self.count["motion.corners_survived"] / tracked if tracked else 0.0
        ratios = self.inlier_ratios
        out["motion.inlier_ratio_p50"] = statistics.median(ratios) if ratios else 0.0
        out["motion.inlier_ratio_min"] = min(ratios) if ratios else 0.0
        return out
