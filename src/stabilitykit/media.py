"""Frame ingestion: Y4M and PPM/PGM decoding, clip sampling, luma, resize,
the header-plus-f32 container of checkpoints and feature caches, and the
text decoding of CSV inputs.

Frames are ``(H, W)`` uint8 luma planes throughout the toolkit: every
stage (ITF, trajectories, flow, semantic and blur features) reads
intensity only, and reads it as uint8 until it gathers: a motion
pyramid's level 0 is the frames themselves, each LK window and warp
sample casts only its block to float32, and each resize gather to
float64.  A Y4M stream gives its Y planes, with chroma checked for
length and skipped; a PPM frame is converted by the Rec.601 luma rule.
Only uncompressed sources are supported (YUV4MPEG2 streams and
directories of binary PPM/PGM files); anything compressed is expected to
be converted up front, e.g. with ffmpeg.
"""

from __future__ import annotations

import csv
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


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


@dataclass
class FrameSequence:
    """Decoded video: ``frames`` is (T, H, W) uint8 luma, plus a frame rate."""

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
        if self.frames.ndim != 3:
            raise DimensionMismatch("frames must be (T, H, W)")
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
    """N frames sampled from a sequence at a constant stride: ``frames`` is
    (N, H, W) uint8 luma."""

    frames: np.ndarray
    source_indices: list[int]
    n: int
    tau: int


def to_luma(frames: np.ndarray) -> np.ndarray:
    """Float64 luma of uint8 luma frames (a plane or a stack), in [0, 255].
    A float64 input is returned as is.  ITF converts one frame at a time with
    it; the motion and feature stages never convert whole frames, since their
    gathers cast only the blocks they read (see ``resize_float``)."""
    return np.asarray(frames, dtype=np.float64)


def clip_span(n: int, tau: int, have: int | None = None) -> int:
    """The frames an ``n``-frame clip of stride ``tau`` spans.  Raises
    ConfigError unless n >= 2 and tau >= 1, and InsufficientFrames when
    ``have`` frames are given and are fewer."""
    if n < 2 or tau < 1:
        raise ConfigError(f"need n >= 2 and tau >= 1, got n={n}, tau={tau}")
    span = (n - 1) * tau + 1
    if have is not None and have < span:
        raise InsufficientFrames(
            f"need {span} frames for n={n}, tau={tau}, have {have}",
            required=span,
        )
    return span


def clip_start(length: int, n: int, tau: int, seed: int) -> int:
    """First frame of an ``n``-frame clip with stride ``tau`` out of
    ``length`` frames, drawn from ``seed``."""
    span = clip_span(n, tau, length)
    return int(np.random.default_rng(seed).integers(0, length - span + 1))


def clip_at(seq: FrameSequence, start: int, n: int, tau: int) -> Clip:
    """The ``n``-frame clip with stride ``tau`` that starts at frame ``start``."""
    indices = list(range(start, start + n * tau, tau))
    # fancy indexing already copies
    return Clip(frames=seq.frames[indices], source_indices=indices, n=n, tau=tau)


def sample_clip(seq: FrameSequence, n: int, tau: int, seed: int) -> Clip:
    """Sample an ``n``-frame clip with stride ``tau``; start drawn from ``seed``."""
    return clip_at(seq, clip_start(len(seq), n, tau, seed), n, tau)


def _lerp_gather(a: np.ndarray, i0: np.ndarray, i1: np.ndarray, f: np.ndarray,
                 axis: int) -> np.ndarray:
    """``a[i0] * (1 - f) + a[i1] * f`` along ``axis`` in float64, computed in
    place on the first gather so only two arrays of the result's size are
    live.  Each gather is cast to float64 (uint8 input) after it is taken."""
    out = np.take(a, i0, axis=axis).astype(np.float64, copy=False)
    out *= 1 - f
    hi = np.take(a, i1, axis=axis).astype(np.float64, copy=False)
    hi *= f
    out += hi
    return out


def resize_float(stack: np.ndarray, w: int, h: int) -> np.ndarray:
    """Float64 bilinear resize of a (T, H, W) stack, uint8 or float, on
    half-pixel-centered coordinates, returned C-contiguous (T, h, w).

    Separable: each source row is lerped between its x0/x1 columns, then each
    output row between the y0/y1 rows of that, so every value goes through the
    same ``top * (1 - fy) + bot * fy`` arithmetic as the 2-D four-gather form.
    The stack is not upcast as a whole: the column gathers are cast to
    float64, so a uint8 stack resizes bit for bit as its float64 copy would."""
    if w < 1 or h < 1:
        raise ConfigError("target dimensions must be positive")
    stack = np.asarray(stack)
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
        # at most 9 digits: int() refuses 4300, and a long rate overflows float division
        if tag in (b"W", b"H"):
            if not re.fullmatch(r"\d{1,9}", rest):
                raise ParseError(f"bad frame size field {tag.decode()}{rest}")
            width, height = (int(rest), height) if tag == b"W" else (width, int(rest))
        elif tag == b"F":
            m = re.fullmatch(r"(\d{1,9}):(\d{1,9})", rest)
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
    """Read the Y planes of a YUV4MPEG2 stream (4:2:0 or 4:4:4) as luma
    frames.  Every frame's marker and full Y + U + V length are checked
    against the file size before any is copied, so a stream cut inside its
    chroma still raises ``TruncatedError``.  Of a seekable file only the
    header, the frame markers and the Y planes are read; the chroma is skipped."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: held whole, so it is checked before any copy too
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ParseError("no Y4M header line")
        width, height, fps, colorspace = _parse_y4m_header(line[:-1])
        if colorspace == "420" and (width % 2 or height % 2):
            raise ParseError("4:2:0 stream with odd dimensions")
        frame_size = width * height * 3 // (1 if colorspace == "444" else 2)  # Y, U and V planes

        starts = []  # payload offsets; every frame is checked before any copy
        pos = len(line)
        while pos < size:
            index = len(starts)
            marker = fh.readline()
            if not marker.endswith(b"\n") or not marker.startswith(b"FRAME"):
                raise ParseError(f"missing FRAME marker before frame {index}")
            pos += len(marker)
            if size - pos < frame_size:
                raise TruncatedError(
                    f"frame {index} truncated: expected {frame_size} bytes, got {size - pos}"
                )
            starts.append(pos)
            pos = fh.seek(pos + frame_size)
        if not starts:
            raise EmptyInput("Y4M stream contains no frames")

        frames = np.empty((len(starts), height, width), dtype=np.uint8)
        for out, start in zip(frames, starts):
            fh.seek(start)
            fh.readinto(out)
    return FrameSequence(frames=frames, fps=fps).validate()


def save_y4m(seq: FrameSequence, path: str | Path) -> None:
    """Write the luma frames as a 4:4:4 full-range YUV4MPEG2 stream: each
    frame's Y plane, then U and V planes of neutral 128 (4:4:4, so any frame
    size can be written)."""
    rate = Fraction(seq.fps).limit_denominator(65536)
    header = f"YUV4MPEG2 W{seq.width} H{seq.height} F{rate.numerator}:{rate.denominator} Ip A1:1 C444\n"
    chroma = bytes([128]) * (2 * seq.width * seq.height)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for frame in seq.frames:
            fh.write(b"FRAME\n")
            fh.write(frame.tobytes())
            fh.write(chroma)


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
    # at most 9 digits, as in a Y4M header: int() refuses 4300
    if not all(re.fullmatch(rb"[0-9]{1,9}", t) for t in tokens[1:4]):
        raise ParseError(f"{path.name}: header fields must be plain decimal integers")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise ParseError(f"{path.name}: only maxval 255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise TruncatedError(f"{path.name}: expected {need} pixel bytes, got {len(raw)}")
    if channels == 1:
        return np.frombuffer(raw, np.uint8).reshape(height, width).copy()
    return _rgb_luma(np.frombuffer(raw, np.uint8).reshape(height, width, 3))


def _rgb_luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of (..., 3) uint8 RGB, rounded half up to uint8:
    floor(0.299 R + 0.587 G + 0.114 B + 0.5), one pixel at a time in this
    operation order, so a pixel's luma does not depend on the others."""
    f = rgb.astype(np.float64)
    y = f[..., 0] * 0.299 + f[..., 1] * 0.587 + f[..., 2] * 0.114
    # white sums to exactly 255.0, so the rounding stays in uint8 range
    return _round_half_up(y).astype(np.uint8)


def load_frame_dir(path: str | Path) -> FrameSequence:
    """Load a directory of PPM/PGM frames, lexicographic name order.  A PGM
    frame is the luma plane as stored; a PPM frame is converted with
    ``_rgb_luma``.

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
    """Yield ``(line, row)`` for each row of the CSV file decoded as
    ``encoding``; ``line`` is the reader's line number after the row.

    The whole file is decoded first, so a byte that does not decode raises
    ``ParseError`` naming its own line, counted from the file's bytes.  A row
    the csv module rejects (say, a field over its size limit) raises
    ``ParseError`` naming the line it ended on.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


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
