"""Frame ingestion: Y4M and PPM/PGM decoding, clip sampling, luma, resize.

Frames are ``(H, W, 3)`` uint8 RGB arrays throughout the toolkit.  Only
uncompressed sources are supported (YUV4MPEG2 streams and directories of
binary PPM/PGM files); anything compressed is expected to be converted
up front, e.g. with ffmpeg.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InsufficientFrames,
    ParseError,
    TruncatedError,
)

# BT.601 full-range RGB<->YUV. The decode side snaps to an exact preimage of
# the encode side (see _yuv_to_rgb), which makes a 4:4:4 write->read->write
# cycle byte-lossless for any stream this module produced.
_FWD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168735891647856, -0.331264108352144, 0.5],
        [0.5, -0.418687589158345, -0.081312410841655],
    ]
)
_OFF = np.array([0.0, 128.0, 128.0])
_INV = np.linalg.inv(_FWD)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_SNAP_OFFSETS = np.array(
    [(dr, dg, db) for dr in (-1, 0, 1) for dg in (-1, 0, 1) for db in (-1, 0, 1)],
    dtype=np.int16,
)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def rgb_to_yuv(rgb: np.ndarray) -> np.ndarray:
    """Encode (..., 3) uint8 RGB to (..., 3) uint8 full-range YUV."""
    yuv = rgb.astype(np.float64) @ _FWD.T + _OFF
    return np.clip(_round_half_up(yuv), 0, 255).astype(np.uint8)


def yuv_to_rgb(yuv: np.ndarray) -> np.ndarray:
    """Decode (..., 3) uint8 YUV to uint8 RGB.

    When the rounded inverse does not re-encode to the source YUV, the
    decoder searches the +-1 neighborhood for a value that does (one always
    exists when the YUV came from an RGB encode).  Out-of-gamut YUV falls
    back to the clipped rounded inverse.
    """
    shape = yuv.shape
    flat = yuv.reshape(-1, 3)
    rgb_f = (flat.astype(np.float64) - _OFF) @ _INV.T
    rgb = np.clip(_round_half_up(rgb_f), 0, 255).astype(np.uint8)
    bad = np.any(rgb_to_yuv(rgb) != flat, axis=1)
    if np.any(bad):
        idx = np.nonzero(bad)[0]
        cand = rgb[idx, None, :].astype(np.int16) + _SNAP_OFFSETS[None, :, :]
        cand = np.clip(cand, 0, 255).astype(np.uint8)
        feasible = np.all(rgb_to_yuv(cand) == flat[idx, None, :], axis=2)
        dist = np.sum((cand.astype(np.float64) - rgb_f[idx, None, :]) ** 2, axis=2)
        dist[~feasible] = np.inf
        pick = np.argmin(dist, axis=1)
        has = feasible[np.arange(len(idx)), pick]
        rgb[idx[has]] = cand[np.arange(len(idx))[has], pick[has]]
    return rgb.reshape(shape)


@dataclass
class FrameSequence:
    """Decoded video: ``frames`` is (T, H, W, 3) uint8, plus a frame rate."""

    frames: np.ndarray
    fps: float = 30.0

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def validate(self) -> "FrameSequence":
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise DimensionMismatch("frames must be (T, H, W, 3)")
        if self.frames.dtype != np.uint8:
            raise DimensionMismatch("frames must be uint8")
        if len(self) < 2:
            raise InsufficientFrames("a sequence needs at least 2 frames", required=2)
        if self.height < 16 or self.width < 16:
            raise DimensionMismatch("frames must be at least 16x16")
        if not self.fps > 0:
            raise ParseError("fps must be positive")
        return self


@dataclass
class Clip:
    """N frames sampled from a sequence at a constant stride."""

    frames: np.ndarray
    source_indices: list[int]
    n: int
    tau: int


def to_luma(frame: np.ndarray) -> np.ndarray:
    """Rec.601 luma, float64 in [0, 255]: Y = 0.299 R + 0.587 G + 0.114 B."""
    f = frame.astype(np.float64)
    return f[..., 0] * 0.299 + f[..., 1] * 0.587 + f[..., 2] * 0.114


def sample_clip(seq: FrameSequence, n: int, tau: int, seed: int) -> Clip:
    """Sample an ``n``-frame clip with stride ``tau``; start drawn from ``seed``."""
    if n < 2 or tau < 1:
        raise ValueError("need n >= 2 and tau >= 1")
    span = (n - 1) * tau + 1
    if len(seq) < span:
        raise InsufficientFrames(
            f"need {span} frames for n={n}, tau={tau}, have {len(seq)}",
            required=span,
        )
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(seq) - span + 1))
    indices = list(range(start, start + n * tau, tau))
    return Clip(frames=seq.frames[indices].copy(), source_indices=indices, n=n, tau=tau)


def resize_stack(frames: np.ndarray, w: int, h: int) -> np.ndarray:
    """Bilinear resize of a (T, H, W, 3) stack on half-pixel-centered
    coordinates (the sampling grid is computed once for the whole stack)."""
    if w < 1 or h < 1:
        raise ValueError("target dimensions must be positive")
    src_h, src_w = frames.shape[1:3]
    xs = np.clip((np.arange(w) + 0.5) * (src_w / w) - 0.5, 0.0, src_w - 1.0)
    ys = np.clip((np.arange(h) + 0.5) * (src_h / h) - 0.5, 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = (xs - x0)[None, None, :, None]
    fy = (ys - y0)[None, :, None, None]
    f = frames.astype(np.float64)
    top = f[:, y0[:, None], x0[None, :]] * (1 - fx) + f[:, y0[:, None], x1[None, :]] * fx
    bot = f[:, y1[:, None], x0[None, :]] * (1 - fx) + f[:, y1[:, None], x1[None, :]] * fx
    out = top * (1 - fy) + bot * fy
    return np.clip(_round_half_up(out), 0, 255).astype(np.uint8)


def resize_bilinear(frame: np.ndarray, w: int, h: int) -> np.ndarray:
    """Resize one frame with bilinear interpolation (half-pixel centers)."""
    return resize_stack(frame[None], w, h)[0]


# ---------------------------------------------------------------------------
# YUV4MPEG2
# ---------------------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"


def _parse_y4m_header(line: bytes) -> tuple[int, int, float, str]:
    fields = line.split(b" ")
    if fields[0] != _Y4M_MAGIC:
        raise ParseError("not a YUV4MPEG2 stream")
    width = height = 0
    fps = 0.0
    colorspace = "420"
    for tok in fields[1:]:
        if not tok:
            continue
        tag, rest = tok[:1], tok[1:].decode("ascii", "replace")
        if tag in (b"W", b"H"):
            if not re.fullmatch(r"\d+", rest):
                raise ParseError(f"bad frame size field {tag.decode()}{rest}")
            width, height = (int(rest), height) if tag == b"W" else (width, int(rest))
        elif tag == b"F":
            m = re.fullmatch(r"(\d+):(\d+)", rest)
            if not m or int(m.group(2)) == 0:
                raise ParseError(f"bad frame rate field F{rest}")
            fps = int(m.group(1)) / int(m.group(2))
        elif tag == b"C":
            colorspace = rest
        # I (interlace), A (aspect), X (comment) are ignored
    if width <= 0 or height <= 0:
        raise ParseError("Y4M header missing W or H")
    if fps <= 0:
        fps = 30.0
    if colorspace.startswith("420"):
        colorspace = "420"
    elif colorspace == "444":
        pass
    else:
        raise ParseError(f"unsupported Y4M colorspace C{colorspace}")
    return width, height, fps, colorspace


def load_y4m(path: str | Path) -> FrameSequence:
    """Decode a YUV4MPEG2 stream (4:2:0 or 4:4:4) into RGB frames."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("no Y4M header line")
    width, height, fps, colorspace = _parse_y4m_header(data[:nl])
    if colorspace == "420":
        if width % 2 or height % 2:
            raise ParseError("4:2:0 stream with odd dimensions")
        c_w, c_h = width // 2, height // 2
    else:
        c_w, c_h = width, height
    frame_size = width * height + 2 * c_w * c_h

    frames = []
    pos = nl + 1
    index = 0
    while pos < len(data):
        marker_end = data.find(b"\n", pos)
        if marker_end < 0 or not data[pos:marker_end].startswith(b"FRAME"):
            raise ParseError(f"missing FRAME marker before frame {index}")
        pos = marker_end + 1
        payload = data[pos : pos + frame_size]
        if len(payload) < frame_size:
            raise TruncatedError(
                f"frame {index} truncated: expected {frame_size} bytes, got {len(payload)}"
            )
        y = np.frombuffer(payload, np.uint8, width * height).reshape(height, width)
        u = np.frombuffer(payload, np.uint8, c_w * c_h, width * height).reshape(c_h, c_w)
        v = np.frombuffer(
            payload, np.uint8, c_w * c_h, width * height + c_w * c_h
        ).reshape(c_h, c_w)
        if colorspace == "420":
            u = u.repeat(2, axis=0).repeat(2, axis=1)
            v = v.repeat(2, axis=0).repeat(2, axis=1)
        frames.append(yuv_to_rgb(np.stack([y, u, v], axis=-1)))
        pos += frame_size
        index += 1

    if not frames:
        raise EmptyInput("Y4M stream contains no frames")
    return FrameSequence(frames=np.stack(frames), fps=fps).validate()


def save_y4m(seq: FrameSequence, path: str | Path) -> None:
    """Write a 4:4:4 full-range YUV4MPEG2 stream."""
    rate = Fraction(seq.fps).limit_denominator(65536)
    header = f"YUV4MPEG2 W{seq.width} H{seq.height} F{rate.numerator}:{rate.denominator} Ip A1:1 C444\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for frame in seq.frames:
            yuv = rgb_to_yuv(frame)
            fh.write(b"FRAME\n")
            fh.write(yuv[..., 0].tobytes())
            fh.write(yuv[..., 1].tobytes())
            fh.write(yuv[..., 2].tobytes())


# ---------------------------------------------------------------------------
# PPM / PGM directories
# ---------------------------------------------------------------------------


def _read_pnm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise TruncatedError(f"{path.name}: header ended early")
        ch = data[pos : pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise TruncatedError(f"{path.name}: unterminated comment")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    pos += 1  # single whitespace after maxval
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path.name}: unsupported PNM magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise ParseError(f"{path.name}: non-numeric header field") from exc
    if maxval != 255:
        raise ParseError(f"{path.name}: only maxval 255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise TruncatedError(f"{path.name}: expected {need} pixel bytes, got {len(raw)}")
    arr = np.frombuffer(raw, np.uint8).reshape(height, width, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return arr.copy()


def load_frame_dir(path: str | Path) -> FrameSequence:
    """Load a directory of PPM/PGM frames, lexicographic name order.

    A ``meta.json`` sidecar may provide ``{"fps": <number>}``; default 30.
    """
    root = Path(path)
    files = sorted(
        p for p in root.iterdir() if p.suffix.lower() in (".ppm", ".pgm") and p.is_file()
    )
    if not files:
        raise EmptyInput(f"no PPM/PGM files in {root}")
    if len(files) < 2:
        raise InsufficientFrames("a sequence needs at least 2 frames", required=2)
    frames = [_read_pnm(p) for p in files]
    first = frames[0].shape
    for p, f in zip(files, frames):
        if f.shape != first:
            raise DimensionMismatch(
                f"{p.name} is {f.shape[1]}x{f.shape[0]}, expected {first[1]}x{first[0]}"
            )
    fps = 30.0
    meta = root / "meta.json"
    if meta.is_file():
        try:
            fps = float(json.loads(meta.read_text())["fps"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad meta.json: {exc}") from exc
    return FrameSequence(frames=np.stack(frames), fps=fps).validate()
