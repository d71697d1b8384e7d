"""On-disk formats: motion files, audio-feature files, checkpoints, manifests;
and the three number checkers every module calls, ``check_integer``,
``check_count`` and ``check_real``, each raising ``ValueError``.

All payloads are little-endian. Writers are deterministic (sorted tensor
names, no timestamps) so identical state produces identical bytes. Readers
raise ``DataError`` on truncated or corrupt input, on bytes after the payload
that the header does not account for, on a repeated manifest key or tensor
name, and the motion and feature readers also on a non-finite value or a
rate that is not finite and positive.
The motion and feature writers raise the same ``DataError`` before they open
the file, checking the values as stored, after the cast to float32.

Motion file ("SGMO"):   magic, version u32, T u32, V u32, frame_rate f32,
                        then T*V*3 float32 values.
Feature file ("SGAF"):  magic, T_a u32, C_a u32, rate f32, then T_a*C_a float32.
Checkpoint ("SGCK"):    magic, version u32, manifest (length-prefixed UTF-8
                        key = value text), tensor count u32, then per tensor:
                        name, dtype code, shape, raw payload.
"""

from __future__ import annotations

import math
import numbers
import struct
from pathlib import Path

import numpy as np

MOTION_MAGIC = b"SGMO"
FEATURE_MAGIC = b"SGAF"
CHECKPOINT_MAGIC = b"SGCK"
FORMAT_VERSION = 1

_DTYPE_CODES = {"<f8": 0, "<f4": 1, "<i8": 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class DataError(Exception):
    """Malformed or mismatched on-disk data."""


def check_integer(value, name: str) -> None:
    """Reject a non-integer ``value``; a bool is not taken for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(value, name: str, zero_ok: bool = False) -> None:
    """Reject anything but an integer >= 1, or >= 0 with ``zero_ok``
    (``check_integer``, then the bound)."""
    check_integer(value, name)
    bound = 0 if zero_ok else 1
    if value < bound:
        raise ValueError(f"{name} must be >= {bound}, got {value!r}")


def check_real(value, name: str, zero_ok: bool = False) -> None:
    """Reject anything but a finite real ``value`` > 0, or >= 0 with
    ``zero_ok``: a bool, a non-real such as a string, a NaN, an infinity or
    an integer beyond the float range, a negative value, and zero unless
    ``zero_ok``. The message says "<name> must be finite and positive" (or
    "non-negative") and the value."""
    try:
        bad = isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok)
    except OverflowError:   # an integer beyond the float range
        bad = True
    if bad:
        bound = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _unpack(fmt: str, raw: bytes, offset: int, path) -> tuple:
    """``struct.unpack_from`` that reports a short buffer as ``DataError``."""
    try:
        return struct.unpack_from(fmt, raw, offset)
    except struct.error:
        raise DataError(f"{path}: truncated at byte {offset}") from None


def _check_end(raw: bytes, end: int, what: str, path) -> None:
    """The header accounts for ``end`` bytes: a shorter file is truncated,
    and a longer one holds bytes that no field reads."""
    if len(raw) < end:
        raise DataError(f"{path}: truncated {what}")
    if len(raw) > end:
        raise DataError(f"{path}: {len(raw) - end} bytes after the {what}")


def _utf8(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: text is not UTF-8") from None


def _check_values(payload: np.ndarray, rate: float, path) -> None:
    """A rate must be finite and positive, and every payload value finite."""
    if not (math.isfinite(rate) and rate > 0):
        raise DataError(f"{path}: rate {rate} is not finite and positive")
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: non-finite payload values")


def _stored(values: np.ndarray, rate: float, path) -> tuple[np.ndarray, float]:
    """``values`` and ``rate`` cast to float32 as a file stores them, checked
    as the readers check them: a float64 value that overflows float32 fails."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype="<f4")
        rate = float(np.float32(rate))
    _check_values(payload, rate, path)
    return payload, rate


def write_motion(path, offsets: np.ndarray, frame_rate: float) -> None:
    offsets = np.asarray(offsets)
    if offsets.ndim != 3 or offsets.shape[2] != 3:
        raise DataError("motion payload must have shape (T, V, 3)")
    t, v, _ = offsets.shape
    payload, frame_rate = _stored(offsets, frame_rate, path)
    with open(path, "wb") as f:
        f.write(MOTION_MAGIC)
        f.write(struct.pack("<IIIf", FORMAT_VERSION, t, v, frame_rate))
        f.write(payload.tobytes())


def read_motion(path) -> tuple[np.ndarray, float]:
    """Returns (offsets (T, V, 3) float64, frame_rate)."""
    raw = Path(path).read_bytes()
    if raw[:4] != MOTION_MAGIC:
        raise DataError(f"{path}: not a motion file")
    version, t, v, rate = _unpack("<IIIf", raw, 4, path)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported motion format version {version}")
    _check_end(raw, 20 + 4 * t * v * 3, "motion payload", path)
    payload = np.frombuffer(raw, dtype="<f4", count=t * v * 3, offset=20)
    _check_values(payload, rate, path)
    return payload.reshape(t, v, 3).astype(np.float64), float(rate)


def write_features(path, features: np.ndarray, rate: float) -> None:
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError("feature payload must have shape (T_a, C_a)")
    t, c = features.shape
    payload, rate = _stored(features, rate, path)
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<IIf", t, c, rate))
        f.write(payload.tobytes())


def read_features(path) -> tuple[np.ndarray, float]:
    """Returns (features (T_a, C_a) float64, rate)."""
    raw = Path(path).read_bytes()
    if raw[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file")
    t, c, rate = _unpack("<IIf", raw, 4, path)
    _check_end(raw, 16 + 4 * t * c, "feature payload", path)
    payload = np.frombuffer(raw, dtype="<f4", count=t * c, offset=16)
    _check_values(payload, rate, path)
    return payload.reshape(t, c).astype(np.float64), float(rate)


def _manifest_text(manifest: dict) -> str:
    lines = [f"{key} = {manifest[key]}" for key in sorted(manifest)]
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"bad manifest line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise DataError(f"repeated manifest key {key!r}")
        out[key] = value
    return out


def write_checkpoint(path, tensors: dict[str, np.ndarray], manifest: dict) -> None:
    """Archive of named tensors plus a plain-text hyperparameter manifest."""
    text = _manifest_text(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(text)))
        f.write(text)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            dtype = arr.dtype.newbyteorder("<").str
            if dtype not in _DTYPE_CODES:
                raise DataError(f"unsupported checkpoint dtype {arr.dtype} for '{name}'")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", _DTYPE_CODES[dtype], arr.ndim))
            for extent in arr.shape:
                f.write(struct.pack("<I", extent))
            f.write(arr.astype(dtype, copy=False).tobytes())


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    (version,) = _unpack("<I", raw, 4, path)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (manifest_len,) = _unpack("<Q", raw, 8, path)
    cursor = 16
    manifest = parse_manifest(_utf8(raw[cursor:cursor + manifest_len], path))
    cursor += manifest_len
    (count,) = _unpack("<I", raw, cursor, path)
    cursor += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _unpack("<H", raw, cursor, path)
        cursor += 2
        name = _utf8(raw[cursor:cursor + name_len], path)
        cursor += name_len
        code, ndim = _unpack("<BB", raw, cursor, path)
        cursor += 2
        shape = _unpack(f"<{ndim}I", raw, cursor, path)
        cursor += 4 * ndim
        if code not in _CODE_DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} for '{name}'")
        if name in tensors:
            raise DataError(f"{path}: repeated tensor name '{name}'")
        dtype = np.dtype(_CODE_DTYPES[code])
        n_items = math.prod(shape)
        if cursor + n_items * dtype.itemsize > len(raw):
            raise DataError(f"{path}: truncated payload for '{name}'")
        arr = np.frombuffer(raw, dtype=dtype, count=n_items, offset=cursor)
        cursor += n_items * dtype.itemsize
        try:   # an empty tensor whose other extents overflow the address space
            arr = arr.reshape(shape)
        except ValueError:
            raise DataError(f"{path}: shape {shape} of '{name}' is too large") from None
        tensors[name] = arr.copy()
    _check_end(raw, cursor, "last tensor", path)
    return tensors, manifest


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Deterministic CSV writer: floats via repr, no trailing whitespace."""
    def fmt(cell):
        if isinstance(cell, float):
            return repr(cell)
        return str(cell)

    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(c) for c in row) + "\n")
