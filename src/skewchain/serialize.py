"""JSON interchange for states and channels.

A state document is ``{"dim": d, "matrix": M}`` and a channel document is
``{"dim": d, "kraus": [M, ...], "convention": "row_sum" | "column_sum"}``,
where each matrix ``M`` is a row-major nested array of ``[re, im]`` pairs.
Documents are read as strict UTF-8 JSON (RFC 8259) by orjson, whose float
parsing is correctly rounded, so every number decodes to the double that the
stdlib ``json`` module gives; ``NaN`` and ``Infinity`` literals are rejected.
Documents are written with ``json.dumps(indent=1)``, a byte format orjson
cannot produce.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import orjson

from .linalg import DEFAULT_TOL
from .objects import Convention, DensityMatrix, KrausChannel, validate_channel, validate_density

__all__ = [
    "load_channel",
    "load_state",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "save_channel",
    "save_state",
    "write_text_atomic",
]


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_pairs(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except TypeError:  # an object or null where a number belongs
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix must be a nested array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_text_atomic(path, text: str) -> None:
    """Write via a temporary sibling and rename, so readers never see partials.

    The sibling has a unique name, so concurrent writers do not collide, and
    it is removed if the write fails.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~_umask())  # mkstemp makes 0600; match a plain open
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def save_state(path, state: DensityMatrix) -> None:
    doc = {"dim": state.dim, "matrix": matrix_to_pairs(state.rho)}
    write_text_atomic(path, json.dumps(doc, indent=1) + "\n")


@contextlib.contextmanager
def _naming(path):
    """Prefix the message of a ValueError raised in the block, a validator's
    error included, with ``path``; the error keeps its type."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load_document(path, keys: tuple) -> dict:
    """The JSON object in ``path``, which must hold every one of ``keys``; a
    document that fails to decode or lacks a key raises a ValueError."""
    doc = orjson.loads(Path(path).read_bytes())
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    return doc


def load_state(path, tol: float = DEFAULT_TOL) -> DensityMatrix:
    with _naming(path):
        doc = _load_document(path, ("dim", "matrix"))
        m = matrix_from_pairs(doc["matrix"])
        if m.shape != (doc["dim"], doc["dim"]):
            raise ValueError(f"declared dim {doc['dim']} does not match matrix shape {m.shape}")
        return validate_density(m, tol=tol)


def save_channel(path, channel: KrausChannel) -> None:
    doc = {
        "dim": channel.dim,
        "kraus": [matrix_to_pairs(k) for k in channel.operators],
        "convention": channel.convention.value,
    }
    write_text_atomic(path, json.dumps(doc, indent=1) + "\n")


def load_channel(path, tol: float = DEFAULT_TOL) -> KrausChannel:
    with _naming(path):
        doc = _load_document(path, ("dim", "kraus", "convention"))
        if not isinstance(doc["kraus"], list):
            raise ValueError("\"kraus\" must be a list of matrices")
        ops = [matrix_from_pairs(k) for k in doc["kraus"]]
        for k in ops:
            if k.shape != (doc["dim"], doc["dim"]):
                raise ValueError(f"declared dim {doc['dim']} does not match a Kraus shape "
                                 f"{k.shape}")
        return validate_channel(ops, convention=Convention(doc["convention"]), tol=tol)
