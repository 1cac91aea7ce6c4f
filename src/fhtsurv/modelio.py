"""Bit-exact array encoding and atomic JSON file helpers.

Model files, preprocessing recipes, and evaluation reports are all JSON.
Float arrays are stored as base64 of their little-endian bytes so that a
save/load round trip reproduces every bit.
"""

from __future__ import annotations

import base64
import json
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


def decode_array(obj: dict) -> np.ndarray:
    dtype = np.dtype(obj["dtype"]).newbyteorder("<")
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=dtype).reshape(obj["shape"]).astype(obj["dtype"])


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
