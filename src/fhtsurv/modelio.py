"""Bit-exact array encoding and atomic JSON file helpers.

Model files, preprocessing recipes, and evaluation reports are all JSON.
Float arrays are stored as base64 of their little-endian bytes so that a
save/load round trip reproduces every bit.  Loading accepts only what
``encode_array`` writes for a model: dtype ``float64``, a shape of
integers >= 0, exactly as many bytes as the shape holds, and finite values.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
import os
import tempfile

import numpy as np


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data": base64.b64encode(arr.astype(arr.dtype.newbyteorder("<")).tobytes()).decode("ascii"),
    }


def is_int(value) -> bool:
    """Whether ``value`` is an integer; ``True`` and ``False`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether ``value`` is a finite number; ``True`` and ``False`` are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def require(obj: dict, key, where, kind=object):
    """``obj[key]``; a ValueError names ``where`` and the key when ``obj`` is
    no object holding it, or its value no ``kind`` (``dict`` or ``list``)."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no key '{key}'")
    if not isinstance(obj[key], kind):
        want = "an object" if kind is dict else "a list"
        raise ValueError(f"{where} key '{key}' must be {want}, got {obj[key]!r}")
    return obj[key]


def refuse_unknown(obj: dict, known, where) -> None:
    """Raise a ValueError naming ``where`` and the first key of ``obj`` not in
    ``known``."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where} has an unknown key {key!r}")


def decode_array(obj: dict, name) -> np.ndarray:
    """The float64 array of an ``encode_array`` entry; a ValueError names the
    array ``name`` and the key at fault, or the first index of a NaN or
    infinite value."""
    where = f"array '{name}'"
    dtype, shape, data = (require(obj, key, where) for key in ("dtype", "shape", "data"))
    if dtype != "float64":
        raise ValueError(f"{where} key 'dtype' must be 'float64', got {dtype!r}")
    if not (isinstance(shape, list) and all(type(w) is int and w >= 0 for w in shape)):
        raise ValueError(f"{where} key 'shape' must be a list of integers >= 0, got {shape!r}")
    try:  # binascii.Error, and numpy's size errors, are ValueErrors
        raw = base64.b64decode(data, validate=True)
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} key 'data' is not the base64 of {math.prod(shape)} "
                         f"float64 values: {exc}") from None
    bad = ~np.isfinite(arr)
    if bad.any():
        index = [int(k) for k in np.unravel_index(np.argmax(bad), arr.shape)]
        raise ValueError(f"{where} holds {float(arr[tuple(index)])} at index {index}; "
                         "model arrays must be finite")
    return arr


def write_json_atomic(path, obj) -> None:
    """Serialize deterministically (sorted keys) and replace atomically."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path) -> dict:
    """The JSON object a file holds; any other top-level value is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj
