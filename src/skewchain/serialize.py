"""JSON interchange for states and channels.

A state document is ``{"dim": d, "matrix": M}`` and a channel document is
``{"dim": d, "kraus": [M, ...], "convention": "row_sum" | "column_sum"}``,
where each matrix ``M`` is a row-major nested array of ``[re, im]`` pairs.
Documents are read as strict UTF-8 JSON (RFC 8259) by orjson, whose float
parsing is correctly rounded, so every number decodes to the double that the
stdlib ``json`` module gives; ``NaN`` and ``Infinity`` literals are rejected.
Documents are written with ``json.dumps(indent=1)``, a byte format orjson
cannot produce.

A loader decodes each document's matrices into one complex stack in a single
flat pass, with the cyclic garbage collector paused while the decoded
document exists.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import tempfile
from itertools import chain
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
    return _stack_from_pairs([obj])[0]


def _stack_from_pairs(matrices: list) -> np.ndarray:
    """The (n, r, c) complex stack of a JSON list of n matrices, each a
    row-major nested list of ``[re, im]`` pairs, decoded in one flat pass.

    The matrices must share one nonzero row count, their rows one nonzero
    length, and every pair must hold two numbers; anything else raises a
    ValueError.  Each number keeps its bits, signed zeros included.
    """
    try:
        rows, n_rows = _chained(matrices)
        pairs, n_cols = _chained(list(rows))
        pairs = list(pairs)
        numbers, width = _chained(pairs)
        if width != 2:
            raise ValueError
        arr = np.fromiter(numbers, float, count=2 * len(pairs))
    except (TypeError, ValueError):  # a ragged level, or a non-number where a number belongs
        raise ValueError("matrix must be a nested array of [re, im] pairs" if len(matrices) == 1
                         else "matrices must be nested arrays of [re, im] pairs, all of one shape"
                         ) from None
    return arr.view(np.complex128).reshape(len(matrices), n_rows, n_cols)


def _chained(items: list) -> tuple:
    """The items of the lists ``items`` as one iterator, and the one length of
    those lists; no items, items that are not lists, or lists that differ in
    length raise a ValueError.  (Empty lists chain to no items, so the next
    level, or the pair width, rejects them.)"""
    if set(map(type, items)) != {list}:
        raise ValueError
    lengths = set(map(len, items))
    if len(lengths) != 1:
        raise ValueError
    return chain.from_iterable(items), lengths.pop()


def write_text_atomic(path, text: str) -> None:
    """Write via a temporary sibling and rename, so readers never see partials.

    The sibling has a unique name, so concurrent writers do not collide, and
    it is removed if the write fails.  An OSError that names a file names
    ``path``, not the sibling, so the same failure gives the same message.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~_umask())  # mkstemp makes 0600; match a plain open
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc


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


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector in the block, then restore the state
    it had before.

    A decoded document is tens of thousands of lists and holds no cycle, so
    reference counting frees it; freed inside the pause, its lists also
    cancel their allocation count, so no deferred collection follows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_dim(dim) -> None:
    if type(dim) is not int or dim < 1:  # a bool is an int subclass, so it fails too
        raise ValueError(f"\"dim\" must be an integer >= 1, got {json.dumps(dim)}")


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
        with _collector_paused():
            doc = _load_document(path, ("dim", "matrix"))
            dim, m = doc["dim"], matrix_from_pairs(doc["matrix"])
            del doc
        _check_dim(dim)
        if m.shape != (dim, dim):
            raise ValueError(f"declared dim {dim} does not match matrix shape {m.shape}")
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
        with _collector_paused():
            doc = _load_document(path, ("dim", "kraus", "convention"))
            dim, kraus, convention = doc["dim"], doc["kraus"], doc["convention"]
            del doc
            if not isinstance(kraus, list):
                raise ValueError("\"kraus\" must be a list of matrices")
            ops = _stack_from_pairs(kraus) if kraus else ()  # () fails validation with its message
            del kraus
        _check_dim(dim)
        if len(ops) and ops.shape[1:] != (dim, dim):
            raise ValueError(f"declared dim {dim} does not match a Kraus shape {ops.shape[1:]}")
        return validate_channel(ops, convention=Convention(convention), tol=tol)
