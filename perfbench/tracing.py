"""Span recorder that wraps skewchain's module bindings from outside the package.

Modules import with ``from .x import y``, so a function is reachable through
several module attributes (``skewchain.objects.psd_sqrt`` and
``skewchain.linalg.psd_sqrt`` are the same object).  ``Recorder.traced`` finds
every binding of each span's function across the loaded ``skewchain`` modules,
swaps in a timing wrapper, and restores the originals on exit.  A span whose
function no longer exists is reported in ``absent`` instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (span name, defining module, attribute).  ``chains.optimize`` is the
# permutation optimizer, bound today as ``_optimize`` in chains and example.
SPANS = (
    ("cli.main", "skewchain.cli", "main"),
    ("serialize.load_state", "skewchain.serialize", "load_state"),
    ("serialize.load_channel", "skewchain.serialize", "load_channel"),
    ("serialize.write_text_atomic", "skewchain.serialize", "write_text_atomic"),
    ("objects.validate_density", "skewchain.objects", "validate_density"),
    ("objects.validate_channel", "skewchain.objects", "validate_channel"),
    ("objects.random_density", "skewchain.objects", "random_density"),
    ("objects.random_channel", "skewchain.objects", "random_channel"),
    ("objects.mix_kraus", "skewchain.objects", "mix_kraus"),
    ("linalg.psd_sqrt", "skewchain.linalg", "psd_sqrt"),
    ("skew.commutator_frame", "skewchain.skew", "commutator_frame"),
    ("chains.chain_data", "skewchain.chains", "chain_data"),
    ("chains.compute_chain", "skewchain.chains", "compute_chain"),
    ("chains.optimize", "skewchain.chains", "_optimize"),
    ("chains.verify_chain", "skewchain.chains", "verify_chain"),
    ("chains.kraus_invariance_check", "skewchain.chains", "kraus_invariance_check"),
    ("example.sweep", "skewchain.example", "sweep"),
    ("example.rho_theta", "skewchain.example", "rho_theta"),
    ("example.example_channels", "skewchain.example", "example_channels"),
    ("example.closed_forms", "skewchain.example", "closed_forms"),
    ("example.discrepancy_report", "skewchain.example", "discrepancy_report"),
    ("example.write_sweep_csv", "skewchain.example", "write_sweep_csv"),
    ("example.write_discrepancy_csv", "skewchain.example", "write_discrepancy_csv"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.digest()


def _psd_sqrt_key(rho, *args, **kwargs):
    return _digest(rho)


def _chain_data_key(rho, ch1, ch2, *args, **kwargs):
    return _digest(rho.rho, *ch1.operators, *ch2.operators)


def _file_size(path, *args, **kwargs):
    return os.path.getsize(path)


def _text_size(path, text, *args, **kwargs):
    return len(text.encode())


# Spans whose inputs are hashed, for ``<span>.distinct_frac``.
INPUT_KEYS = {"linalg.psd_sqrt": _psd_sqrt_key, "chains.chain_data": _chain_data_key}
# Spans whose calls move bytes, summed into the named counter.
BYTE_COUNTERS = {
    "serialize.load_state": ("serialize.bytes_read", _file_size),
    "serialize.load_channel": ("serialize.bytes_read", _file_size),
    "serialize.write_text_atomic": ("serialize.bytes_written", _text_size),
}


class Recorder:
    """Keeps spans ``[name, start, end, parent index, run id]`` in memory.

    Inputs are hashed and byte counts taken before a span starts, so that
    work lands in the caller's self time, not in the wrapped layer's.
    """

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self.inputs = defaultdict(set)    # (run id, span) -> input digests
        self.counters = Counter()         # (run id, counter) -> bytes
        self._stack: list = []
        self._run_id = None

    def _wrap(self, name, fn):
        key_fn = INPUT_KEYS.get(name)
        counter, size_fn = BYTE_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run_id = self._run_id
            if key_fn is not None:
                self.inputs[(run_id, name)].add(key_fn(*args, **kwargs))
            if size_fn is not None:
                self.counters[(run_id, counter)] += size_fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, run_id]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return wrapper

    @contextlib.contextmanager
    def traced(self, run_id):
        """Wrap every binding of every span for the duration of one run."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "skewchain" or k.startswith("skewchain."))]
        patched = []
        absent = []
        for name, module_name, attr in SPANS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not callable(fn):
                absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        patched.append((module, key, fn))
        self.absent = absent
        self._run_id = run_id
        try:
            yield self
        finally:
            self._run_id = None
            for module, key, fn in reversed(patched):
                setattr(module, key, fn)

    def layer_metrics(self, run_id) -> dict:
        """Per-layer counts, self times and ratios of one traced run."""
        spans = [s for s in self.spans if s[4] == run_id]
        calls = Counter(s[0] for s in spans)
        own = self_times(self.spans, run_id)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        for name in INPUT_KEYS:
            n = calls.get(name, 0)
            out[f"{name}.distinct_frac"] = len(self.inputs[(run_id, name)]) / n if n else 0.0
        for counter in sorted({c for c, _ in BYTE_COUNTERS.values()}):
            out[counter] = self.counters[(run_id, counter)]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "absent": self.absent, "spans": self.spans}, fh)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, run_id=None) -> dict:
    """Sum over each span name of duration minus the part covered by its children.

    ``spans`` holds ``[name, start, end, parent index, run id]`` records, where
    the parent index points into the same list (-1 for a root).  With
    ``run_id`` given, only that run's spans are summed.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = defaultdict(float)
    for i, (name, start, end, _, rid) in enumerate(spans):
        if run_id is not None and rid != run_id:
            continue
        inside = [(max(a, start), min(b, end)) for a, b in children.get(i, ())
                  if min(b, end) > max(a, start)]
        out[name] += (end - start) - _covered(inside)
    return dict(out)
