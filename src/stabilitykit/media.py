"""Frame ingestion: Y4M and PPM/PGM decoding, clip sampling, luma, resize,
the header-plus-f32 container of checkpoints and feature caches, and the
text decoding of CSV inputs.

Frames are ``(H, W, 3)`` uint8 RGB arrays throughout the toolkit.  Only
uncompressed sources are supported (YUV4MPEG2 streams and directories of
binary PPM/PGM files); anything compressed is expected to be converted
up front, e.g. with ffmpeg.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    InsufficientFrames,
    ParseError,
    TruncatedError,
)

# BT.601 full-range RGB<->YUV. The decode side snaps to an exact preimage of
# the encode side (see yuv_to_rgb), which makes a 4:4:4 write->read->write
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
# A float value this close to a .5 tie may round either way, depending on
# the order of its operations: the margin of the chroma table's rounding
# and re-encode checks.
_TIE_EPS = 1e-9


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def rgb_to_yuv(rgb: np.ndarray) -> np.ndarray:
    """Encode (..., 3) uint8 RGB to (..., 3) uint8 full-range YUV."""
    yuv = rgb.astype(np.float64) @ _FWD.T + _OFF
    return np.clip(_round_half_up(yuv), 0, 255).astype(np.uint8)


@functools.lru_cache(maxsize=None)
def _chroma_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decode of each (U, V) pair, indexed by ``U * 256 + V``: the RGB
    offsets from Y (uint8, modulo 256) and the Y range [lo, hi] of the
    pixels they decode exactly.

    The inverse is Y times (1, 1, 1) plus a chroma part, so for an integer Y
    it rounds to Y plus the rounded chroma part, and re-encoding Y + d gives
    back Y, U, V plus the encode of d alone.  A pair is covered when its
    chroma part is no tie (``_TIE_EPS``) and the encode of d rounds to zero
    with the same margin; [lo, hi] then holds the Ys for which no channel
    clips, and is empty otherwise.  Elementwise arithmetic only: a BLAS
    product may round differently with the batch size.  Built at the first
    decode, not at import."""
    uv = np.arange(65536)
    u = (uv >> 8) - 128.0
    v = (uv & 255) - 128.0
    c = np.stack([u * _INV[k, 1] + v * _INV[k, 2] for k in range(3)], axis=1)
    d = _round_half_up(c)
    # what re-encoding Y + d adds to (Y, U, V)
    err = np.stack([d[:, 0] * f[0] + d[:, 1] * f[1] + d[:, 2] * f[2] for f in _FWD], axis=1)
    err -= np.stack([np.zeros_like(u), u, v], axis=1)
    exact = np.all((np.abs(c - d) < 0.5 - _TIE_EPS) & (np.abs(err) < 0.5 - _TIE_EPS), axis=1)
    lo = np.clip(-d.min(axis=1), 0, 255)
    hi = np.clip(255 - d.max(axis=1), 0, 255)
    lo[~exact], hi[~exact] = 255, 0
    table = ((d % 256).astype(np.uint8), lo.astype(np.uint8), hi.astype(np.uint8))
    for a in table:
        a.flags.writeable = False  # shared by every decode in the process
    return table


def _snap_decode(yuv: np.ndarray) -> np.ndarray:
    """Decode (n, 3) uint8 YUV pixel by pixel: of the rounded inverse and its
    +-1 neighbours, the nearest to the float inverse whose encode is the
    source YUV (one exists when the YUV came from an RGB encode, and it is
    the rounded inverse itself unless that lies at a .5 tie).  Out-of-gamut
    YUV falls back to the clipped rounded inverse."""
    f = yuv.astype(np.float64) - _OFF
    rgb_f = f[:, 0:1] * _INV[:, 0] + f[:, 1:2] * _INV[:, 1] + f[:, 2:3] * _INV[:, 2]
    rgb = np.clip(_round_half_up(rgb_f), 0, 255).astype(np.uint8)
    cand = np.clip(rgb[:, None, :].astype(np.int16) + _SNAP_OFFSETS, 0, 255).astype(np.uint8)
    feasible = np.all(rgb_to_yuv(cand) == yuv[:, None, :], axis=2)
    dist = np.sum((cand - rgb_f[:, None, :]) ** 2, axis=2)
    dist[~feasible] = np.inf
    pick = np.argmin(dist, axis=1)
    has = feasible[np.arange(len(yuv)), pick]
    rgb[has] = cand[has, pick[has]]
    return rgb


def _decode_planes(y: np.ndarray, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Decode a (H, W) Y plane and its (H/s, W/s) U and V planes (s = 1 for
    4:4:4, 2 for 4:2:0) into ``out`` (H, W, 3) uint8 RGB.

    The chroma table is looked up once per chroma sample and its offsets are
    added to each of the s x s Ys that share it.  Pixels outside their
    pair's exact Y range (out-of-gamut, clipping or tie pixels) are decoded
    by ``_snap_decode``.  Each pixel's RGB depends on its own YUV alone."""
    d, lo, hi = _chroma_table()
    s = y.shape[0] // u.shape[0]
    uv = u.astype(np.intp) << 8
    uv |= v
    d, lo, hi = d[uv], lo[uv], hi[uv]
    for dy in range(s):
        for dx in range(s):
            ys, rgb = y[dy::s, dx::s], out[dy::s, dx::s]
            # uint8 addition wraps modulo 256, so it is exact where Y + d is in range
            np.add(ys[..., None], d, out=rgb)
            miss = (ys < lo) | (ys > hi)
            if miss.any():
                rgb[miss] = _snap_decode(np.stack([ys[miss], u[miss], v[miss]], axis=1))


def yuv_to_rgb(yuv: np.ndarray) -> np.ndarray:
    """Decode (..., 3) uint8 full-range YUV to uint8 RGB, each pixel to the
    RGB whose encode is that YUV.

    Pixels of a covered (U, V) pair in its exact Y range take Y plus the
    pair's offsets from a table of all 65,536 pairs (``_chroma_table``).
    The rest take the rounded inverse; when that does not re-encode to the
    source YUV, the nearest +-1 neighbour that does (``_snap_decode``).
    Where the float inverse lies within ``_TIE_EPS`` of a .5 tie, either
    rounding may be taken; the result still re-encodes exactly whenever an
    RGB in the snap search does.  The table is elementwise and the one BLAS
    product encodes each pixel's 27 candidates as a block of their own, so
    a pixel's RGB does not depend on the other pixels of the call."""
    flat = np.ascontiguousarray(yuv).reshape(1, -1, 3)
    out = np.empty(flat.shape, dtype=np.uint8)
    _decode_planes(flat[..., 0], flat[..., 1], flat[..., 2], out)
    return out.reshape(yuv.shape)


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
    """Rec.601 luma of uint8 RGB, float64 in [0, 255]: Y = 0.299 R + 0.587 G + 0.114 B."""
    # uint8 times a Python float is already float64: no float copy of the RGB
    return frame[..., 0] * 0.299 + frame[..., 1] * 0.587 + frame[..., 2] * 0.114


def sample_clip(seq: FrameSequence, n: int, tau: int, seed: int) -> Clip:
    """Sample an ``n``-frame clip with stride ``tau``; start drawn from ``seed``."""
    if n < 2 or tau < 1:
        raise ConfigError(f"need n >= 2 and tau >= 1, got n={n}, tau={tau}")
    span = (n - 1) * tau + 1
    if len(seq) < span:
        raise InsufficientFrames(
            f"need {span} frames for n={n}, tau={tau}, have {len(seq)}",
            required=span,
        )
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(seq) - span + 1))
    indices = list(range(start, start + n * tau, tau))
    # fancy indexing already copies
    return Clip(frames=seq.frames[indices], source_indices=indices, n=n, tau=tau)


def _lerp_gather(a: np.ndarray, i0: np.ndarray, i1: np.ndarray, f: np.ndarray,
                 axis: int) -> np.ndarray:
    """``a[i0] * (1 - f) + a[i1] * f`` along ``axis``, computed in place on
    the first gather so only two arrays of the result's size are live."""
    out = np.take(a, i0, axis=axis)
    out *= 1 - f
    hi = np.take(a, i1, axis=axis)
    hi *= f
    out += hi
    return out


def resize_float(stack: np.ndarray, w: int, h: int) -> np.ndarray:
    """Float64 bilinear resize of a (T, H, W) stack on half-pixel-centered
    coordinates, returned C-contiguous (T, h, w).

    Separable: each source row is lerped between its x0/x1 columns, then each
    output row between the y0/y1 rows of that, so every value goes through the
    same ``top * (1 - fy) + bot * fy`` arithmetic as the 2-D four-gather form."""
    if w < 1 or h < 1:
        raise ConfigError("target dimensions must be positive")
    stack = np.asarray(stack, dtype=np.float64)  # no copy for to_luma's output
    src_h, src_w = stack.shape[1:]
    xs = np.clip((np.arange(w) + 0.5) * (src_w / w) - 0.5, 0.0, src_w - 1.0)
    ys = np.clip((np.arange(h) + 0.5) * (src_h / h) - 0.5, 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    rows = _lerp_gather(stack, x0, x1, xs - x0, axis=2)
    return _lerp_gather(rows, y0, y1, (ys - y0)[:, None], axis=1)


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
    """Decode a YUV4MPEG2 stream (4:2:0 or 4:4:4) into RGB frames with
    ``yuv_to_rgb``'s per-pixel rule; 4:2:0 chroma is shared by its 2x2 block."""
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

    starts = []  # payload offsets; every frame is checked before any decode
    pos = nl + 1
    while pos < len(data):
        index = len(starts)
        marker_end = data.find(b"\n", pos)
        if marker_end < 0 or not data[pos:marker_end].startswith(b"FRAME"):
            raise ParseError(f"missing FRAME marker before frame {index}")
        pos = marker_end + 1
        if len(data) - pos < frame_size:
            raise TruncatedError(
                f"frame {index} truncated: expected {frame_size} bytes, got {len(data) - pos}"
            )
        starts.append(pos)
        pos += frame_size
    if not starts:
        raise EmptyInput("Y4M stream contains no frames")

    frames = np.empty((len(starts), height, width, 3), dtype=np.uint8)
    y_size, c_size = width * height, c_w * c_h
    for out, start in zip(frames, starts):
        yuv = np.frombuffer(data, np.uint8, frame_size, start)
        y = yuv[:y_size].reshape(height, width)
        u = yuv[y_size : y_size + c_size].reshape(c_h, c_w)
        v = yuv[y_size + c_size :].reshape(c_h, c_w)
        _decode_planes(y, u, v, out)
    return FrameSequence(frames=frames, fps=fps).validate()


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
    if not all(re.fullmatch(rb"[0-9]+", t) for t in tokens[1:4]):
        raise ParseError(f"{path.name}: header fields must be plain decimal integers")
    width, height, maxval = (int(t) for t in tokens[1:4])
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
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ParseError(f"bad meta.json: {exc}") from exc
    return FrameSequence(frames=np.stack(frames), fps=fps).validate()


# ---------------------------------------------------------------------------
# Header-plus-f32 files: one JSON header line, then little-endian f32 values
# ---------------------------------------------------------------------------


def save_f32(path: str | Path, header: dict, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.asarray(values).astype("<f4").tobytes())


def csv_rows(path: str | Path, encoding: str):
    """A ``csv.reader`` over the file decoded as ``encoding``.

    The whole file is decoded first, so a byte that does not decode raises
    ``ParseError`` naming its own line, counted from the file's bytes.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: {exc}") from exc
    return csv.reader(io.StringIO(text, newline=""))


def load_f32_header(path: str | Path, kind: str) -> tuple[dict, bytes]:
    """The JSON header object of a header-plus-f32 file and the bytes after
    its newline; ``kind`` names the file in error messages."""
    line, newline, values = Path(path).read_bytes().partition(b"\n")
    if not newline:
        raise ParseError(f"{kind} has no header line")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"bad {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"bad {kind} header: not a JSON object")
    return header, values
