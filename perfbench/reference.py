"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same invocation runs up to 50% slower in some stretches
of seconds to a minute than in others, in CPU time as much as in wall time, so
a plain time moves 10-25% from one run to the next.  The worker therefore runs
this kernel for ``seconds_per_repetition(0.2)`` before and after every timed
invocation and import probe, and divides the measured time by the kernel's
time around it; the two track each other with a correlation of about 0.9.
``NOMINAL_S`` turns the ratio back into seconds: the benchmark reports seconds
on a machine where one kernel repetition takes ``NOMINAL_S``, about its median
on the 2-vCPU host where the baseline was measured.

The kernel mixes what skewchain spends its time on: a Python loop over
permutation pairs with float table lookups (the permutation optimizer), small
Hermitian eigendecompositions (``psd_sqrt``) and a 32-dimensional einsum
(``chain_data``).  It is part of the benchmark, not of the program, so no
change to ``src/`` moves it.
"""

from __future__ import annotations

import itertools
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0035

_RNG = np.random.Generator(np.random.PCG64(20231009))
_SMALL = [(lambda g: g @ g.conj().T)(_RNG.standard_normal((4, 4))
                                     + 1j * _RNG.standard_normal((4, 4))) for _ in range(12)]
_WIDE = _RNG.standard_normal((4, 32, 32)) + 1j * _RNG.standard_normal((4, 32, 32))
_TABLE = [[float(x) for x in row] for row in _RNG.standard_normal((5, 5))]


def _repetition() -> float:
    acc = 0.0
    table = _TABLE
    for sig in itertools.permutations(range(5)):
        for tau in itertools.permutations(range(5), 2):
            s = 0.0
            for i, j in enumerate(sig):
                s += table[i][j] * table[j][tau[0]] - table[tau[1]][i]
            if s > acc:
                acc = s
    for m in _SMALL:
        vals, vecs = np.linalg.eigh(m)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        acc += float(root.trace().real)
    acc += float(np.einsum("aij,bji->ab", _WIDE, _WIDE).real.sum())
    return acc


def seconds_per_repetition(min_seconds: float) -> float:
    """Repeat the kernel until ``min_seconds`` have passed; seconds per repetition."""
    start = perf_counter()
    reps = 0
    while True:
        _repetition()
        reps += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / reps
