"""Bit-exact file formats: PGM images (P2/P5), convergence-history CSV, and a
raw float64 grid format that preserves edge-field values above 1, which PGM
clamping would destroy.
"""

from __future__ import annotations

import re
import struct

import numpy as np

from .altmin import IterationEntry, IterationReport
from .energy import EnergyBreakdown
from .errors import InvalidInputError, PgmParseError
from .grid import Grid2D, ScalarField

F64_MAGIC = b"GF64"
HISTORY_HEADER = "k,e_k,total,coupled,mm,grad_perturb,fidelity"


# Separators (whitespace, and '#' comments to the end of the line), then the
# next token.  The group matches the empty string at the end of the stream, so
# every search succeeds without backtracking.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_pgm(data: bytes) -> ScalarField:
    """Parse a P2 (ascii) or P5 (binary) stream into a field scaled to [0, 1]."""
    tokens = _TOKEN.finditer(data)

    def next_token(what: str) -> re.Match:
        m = next(tokens)
        if not m[1]:
            raise PgmParseError(f"unexpected end of header while reading {what}", m.end())
        return m

    def next_int(what: str) -> tuple[int, re.Match]:
        m = next_token(what)
        try:
            return int(m[1]), m
        except ValueError:
            raise PgmParseError(f"expected integer for {what}, got {m[1]!r}", m.start(1)) from None

    magic = next_token("magic")[1]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"not a PGM stream (magic {magic!r})", 0)
    nx, _ = next_int("width")
    ny, m = next_int("height")
    if nx < 2 or ny < 2:
        raise PgmParseError(f"image must be at least 2x2, got {nx}x{ny}", m.end())
    maxval, m = next_int("maxval")
    header_end = m.end()
    if not (1 <= maxval <= 65535):
        raise PgmParseError(f"maxval must be in [1, 65535], got {maxval}", header_end)

    n = nx * ny
    if magic == b"P2":
        if n > len(data):  # every pixel token takes at least one byte
            raise PgmParseError(f"truncated payload: need {n} pixels, have {len(data)} bytes", len(data))
        pixels = np.empty(n, dtype=np.int64)
        for i in range(n):
            pixel, m = next_int(f"pixel {i}")
            if not 0 <= pixel <= maxval:
                raise PgmParseError(f"pixel {i} outside [0, {maxval}]", m.start(1))
            pixels[i] = pixel
    else:
        # exactly one whitespace byte separates maxval from the payload
        if not data[header_end : header_end + 1].isspace():
            raise PgmParseError("missing separator before binary payload", header_end)
        start = header_end + 1
        width = 1 if maxval < 256 else 2
        need = n * width
        if len(data) - start < need:
            raise PgmParseError(
                f"truncated payload: need {need} bytes, have {len(data) - start}", len(data)
            )
        dt = np.dtype(np.uint8) if width == 1 else np.dtype(">u2")
        pixels = np.frombuffer(data[start : start + need], dtype=dt).astype(np.int64)
        bad = np.flatnonzero(pixels > maxval)
        if bad.size:
            raise PgmParseError(f"pixel {bad[0]} exceeds maxval {maxval}", header_end)
    grid = Grid2D.for_image(nx, ny)
    return ScalarField(grid, pixels.astype(float) / maxval)


def check_maxval(maxval: int) -> None:
    """Raise InvalidInputError unless maxval is one write_pgm can encode."""
    if not (1 <= maxval <= 65535):
        raise InvalidInputError(f"maxval must be in [1, 65535], got {maxval}")


def write_pgm(f: ScalarField, maxval: int = 255, comment: str | None = None) -> tuple[bytes, int]:
    """Encode a field as binary P5, rounding half away from zero.

    Values outside [0, 1] are clamped; the clamp count is returned alongside
    the bytes so callers can warn when overshoot was flattened.  An optional
    single-line comment is embedded after the magic.
    """
    check_maxval(maxval)
    if comment is not None and ("\n" in comment or "\r" in comment):
        raise InvalidInputError("PGM comments must be a single line")
    v = f.values
    clamped = int(np.count_nonzero((v < 0.0) | (v > 1.0)))
    v = np.clip(v, 0.0, 1.0)
    pixels = np.floor(v * maxval + 0.5).astype(np.uint16)
    comment_line = f"# {comment}\n" if comment is not None else ""
    header = f"P5\n{comment_line}{f.grid.nx} {f.grid.ny}\n{maxval}\n".encode("ascii")
    payload = pixels.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    return header + payload, clamped


def write_mask_pgm(bits: np.ndarray, nx: int, ny: int) -> bytes:
    """Binary mask as P5 with 0/255 pixels."""
    pixels = np.where(np.asarray(bits, dtype=bool).reshape(-1), 255, 0).astype(np.uint8)
    return f"P5\n{nx} {ny}\n255\n".encode("ascii") + pixels.tobytes()


def write_f64(f: ScalarField) -> bytes:
    """Raw little-endian float64 grid: 16-byte header (magic, nx, ny, pad) + values."""
    header = F64_MAGIC + struct.pack("<ii4x", f.grid.nx, f.grid.ny)
    return header + f.values.astype("<f8").tobytes()


def read_f64(data: bytes) -> ScalarField:
    if len(data) < 16 or data[:4] != F64_MAGIC:
        raise InvalidInputError("not a raw float64 grid stream")
    nx, ny = struct.unpack("<ii", data[4:12])
    need = 16 + 8 * nx * ny
    if len(data) != need:
        raise InvalidInputError(f"raw grid payload has {len(data)} bytes, expected {need}")
    values = np.frombuffer(data[16:], dtype="<f8")
    return ScalarField(Grid2D.for_image(nx, ny), values.copy())


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_history(report: IterationReport) -> bytes:
    """Convergence history CSV: one row per outer iteration, 17 significant digits."""
    lines = [HISTORY_HEADER]
    for e in report.entries:
        b = e.breakdown
        lines.append(
            ",".join(
                [str(e.k), _fmt(e.e_k), _fmt(b.total), _fmt(b.coupled), _fmt(b.mm), _fmt(b.grad_perturb), _fmt(b.fidelity)]
            )
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def read_history(data: bytes) -> tuple[IterationEntry, ...]:
    """Parse rows written by write_history; the header line is required."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise InvalidInputError("history is not ASCII text") from None
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != HISTORY_HEADER:
        raise InvalidInputError("missing or unexpected history header")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise InvalidInputError(f"malformed history row: {ln!r}")
        try:
            k = int(parts[0])
            e_k, total, coupled, mm, grad_perturb, fidelity = map(float, parts[1:])
        except ValueError:
            raise InvalidInputError(f"non-numeric field in history row: {ln!r}") from None
        bd = EnergyBreakdown(coupled=coupled, mm=mm, grad_perturb=grad_perturb, fidelity=fidelity)
        if bd.total != total:
            raise InvalidInputError(f"inconsistent total in row {k}")
        entries.append(IterationEntry(k, e_k, bd))
    return tuple(entries)
