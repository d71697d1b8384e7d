"""On-disk formats: checkpoints, the motion and feature files stored as
checkpoints, and manifests; and the three number checkers every module calls,
``check_integer``, ``check_count`` and ``check_real``, each raising
``ValueError``.

There is one binary format, the checkpoint ("SGCK"), little-endian: magic,
version u32, manifest length u64, the manifest (UTF-8 ``key = value`` lines),
tensor count u32, then per tensor: name length u16, the UTF-8 name, dtype
code u8, rank u8, one u32 per extent and the raw payload. The writer is
deterministic (sorted tensor names, no timestamps) so identical state
produces identical bytes, and it raises ``DataError`` before it opens the
file for anything the reader would not give back as written.

A motion file is a checkpoint with no manifest and two float32 tensors,
``offsets`` (T, V, 3) and a 0-d ``rate``, the frame rate; a feature file
holds ``features`` (T_a, C_a) and ``rate``. Readers raise ``DataError`` on
truncated or corrupt input, on bytes after the last tensor and on a repeated
manifest key or tensor name; the motion and feature readers also on any other
tensor, dtype or rank, a non-finite value or a rate that is not finite and
positive. The motion and feature writers raise the same ``DataError`` before
they open the file, checking the values as stored, after the cast to float32.
"""

from __future__ import annotations

import math
import numbers
import struct
from pathlib import Path

import numpy as np

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


def _write_rated(path, name: str, values: np.ndarray, rate) -> None:
    """Store ``values`` as the float32 tensor ``name`` beside the 0-d float32
    ``rate``, both checked as the readers check them: a float64 value or rate
    that overflows float32 fails."""
    with np.errstate(over="ignore"):
        tensors = {name: np.asarray(values, dtype="<f4"),
                   "rate": np.asarray(rate, dtype="<f4").reshape(())}
    _check_values(tensors[name], float(tensors["rate"]), path)
    write_checkpoint(path, tensors, {})


def _read_rated(path, name: str, what: str, shape_ok) -> tuple[np.ndarray, float]:
    """(float64 ``name``, float rate) of a file that holds no manifest and
    just the float32 tensor ``name``, whose shape passes ``shape_ok``, and
    the 0-d float32 ``rate``."""
    tensors, manifest = read_checkpoint(path)
    if manifest or sorted(tensors) != sorted([name, "rate"]) \
            or any(t.dtype != "<f4" for t in tensors.values()) \
            or tensors["rate"].ndim != 0 or not shape_ok(tensors[name].shape):
        raise DataError(f"{path}: not a {what} file")
    rate = float(tensors["rate"])
    _check_values(tensors[name], rate, path)
    return tensors[name].astype(np.float64), rate


def write_motion(path, offsets: np.ndarray, frame_rate: float) -> None:
    offsets = np.asarray(offsets)
    if offsets.ndim != 3 or offsets.shape[2] != 3:
        raise DataError("motion payload must have shape (T, V, 3)")
    _write_rated(path, "offsets", offsets, frame_rate)


def read_motion(path) -> tuple[np.ndarray, float]:
    """Returns (offsets (T, V, 3) float64, frame_rate)."""
    return _read_rated(path, "offsets", "motion",
                       lambda shape: len(shape) == 3 and shape[2] == 3)


def write_features(path, features: np.ndarray, rate: float) -> None:
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError("feature payload must have shape (T_a, C_a)")
    _write_rated(path, "features", features, rate)


def read_features(path) -> tuple[np.ndarray, float]:
    """Returns (features (T_a, C_a) float64, rate)."""
    return _read_rated(path, "features", "feature", lambda shape: len(shape) == 2)


def _manifest_bytes(manifest: dict) -> bytes:
    """``manifest`` as UTF-8 ``key = value`` lines in key order, which
    ``parse_manifest`` must read back as ``{str(key): str(value)}``: a key
    holding "=", a line break in a key or value, surrounding space, a "#"
    key, two keys with one text or a lone surrogate raises ``DataError``."""
    pairs = {str(key): str(value) for key, value in manifest.items()}
    text = "\n".join(f"{key} = {pairs[key]}" for key in sorted(pairs)) + "\n"
    try:
        if len(pairs) == len(manifest) and parse_manifest(text) == pairs:
            return text.encode("utf-8")
    except (DataError, UnicodeEncodeError):
        pass
    raise DataError(f"manifest {manifest!r} does not read back as written")


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


def _tensor_record(name: str, value) -> tuple[bytes, np.ndarray]:
    """The header of tensor ``name`` (name length, name, dtype code, rank,
    extents) and its little-endian array. A dtype without a code, a name
    that is not UTF-8 or longer than u16 and an extent beyond u32 raise
    ``DataError``."""
    arr = np.asarray(value, order="C")
    dtype = arr.dtype.newbyteorder("<").str
    if dtype not in _DTYPE_CODES:
        raise DataError(f"unsupported checkpoint dtype {arr.dtype} for {name!r}")
    try:
        encoded = name.encode("utf-8")
        header = struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                             _DTYPE_CODES[dtype], arr.ndim, *arr.shape)
    except (UnicodeEncodeError, struct.error):
        raise DataError(f"checkpoint tensor {name!r} of shape {arr.shape} "
                        "cannot be stored") from None
    return header, arr.astype(dtype, copy=False)


def write_checkpoint(path, tensors: dict[str, np.ndarray], manifest: dict) -> None:
    """Archive of named tensors plus a plain-text hyperparameter manifest.
    Every name, tensor and the manifest are checked before the file opens,
    so a refused write leaves no file."""
    text = _manifest_bytes(manifest)
    if not all(isinstance(name, str) for name in tensors):
        raise DataError(f"checkpoint tensor names must be strings: {list(tensors)!r}")
    records = [_tensor_record(name, tensors[name]) for name in sorted(tensors)]
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIQ", CHECKPOINT_MAGIC, FORMAT_VERSION, len(text)))
        f.write(text)
        f.write(struct.pack("<I", len(records)))
        for header, arr in records:
            f.write(header)
            f.write(arr.tobytes())


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
    if len(raw) > cursor:
        raise DataError(f"{path}: {len(raw) - cursor} bytes after the last tensor")
    return tensors, manifest


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Deterministic CSV writer: floats via repr, no trailing whitespace."""
    def fmt(cell):
        if isinstance(cell, float):   # np.float64 too, whose repr names its type
            return repr(float(cell))
        return str(cell)

    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(c) for c in row) + "\n")
