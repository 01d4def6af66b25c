"""The worked example's (2, 1) permutation tie, proved in exact arithmetic.

The example's square root, Kraus frames and column data are polynomials in
sqrt(theta), sqrt(1 - theta), sqrt(p), sqrt(1 - p), sqrt(q) and sqrt(1 - q).
Reduced modulo the three relations ``sqrt(x)^2 + sqrt(1 - x)^2 = 1`` (with
each sqrt(1 - x) of degree at most one afterwards), equal expressions have
equal normal forms.  Every (sigma_2, tau_1) label pair then gives the S value
at (2, 1) one expression under each reading, the identity walk's S21, so
``example.sweep`` reads its ``perm_opt`` column from the lattice instead of
searching.
"""

import functools
import itertools

import numpy as np
import pytest
import sympy

from skewchain.chains import Reading, _value_at, chain_stage
from skewchain.example import example_channels, rho_theta

D = 4
# sqrt(theta), sqrt(1 - theta), sqrt(p), sqrt(1 - p), sqrt(q), sqrt(1 - q)
ST, CT, SP, CP, SQ, CQ = sympy.symbols("st ct sp cp sq cq", positive=True)
RELATIONS = ((CT, ST), (CP, SP), (CQ, SQ))  # (sqrt(1 - x), sqrt(x))


def reduce(expr):
    """The normal form of ``expr`` modulo the Pythagorean relations."""
    expr = sympy.expand(expr)
    for c, s in RELATIONS:
        expr = sympy.rem(expr, c ** 2 + s ** 2 - 1, c)
    return sympy.expand(expr)


def commutator(s, k):
    return s * k - k * s


@functools.cache
def model():
    """The example's matrices and its S-table rows, symbolically: ``(sqrt_rho,
    rho, e_ops, f_ops, tables)``, ``tables`` one row per reading laid out as
    ``chains._s_tables`` lays them out."""
    h, g = (ST + CT) / (2 * sympy.sqrt(2)), (ST - CT) / (2 * sympy.sqrt(2))
    sqrt_rho, rho = sympy.zeros(D), sympy.zeros(D)
    for b in (0, 2):  # two 2 x 2 blocks
        sqrt_rho[b, b] = sqrt_rho[b + 1, b + 1] = h
        sqrt_rho[b, b + 1] = sqrt_rho[b + 1, b] = g
        rho[b, b] = rho[b + 1, b + 1] = sympy.Rational(1, 4)
        rho[b, b + 1] = rho[b + 1, b] = (2 * ST ** 2 - 1) / 4
    e_ops = [sympy.diag(1, CP, 1, CP), sympy.diag(0, SP, 0, SP)]
    f_shift = sympy.zeros(D)
    f_shift[0, 1] = f_shift[2, 3] = SQ
    f_ops = [sympy.diag(CQ, 1, CQ, 1), f_shift]

    e_frames = [commutator(sqrt_rho, k) for k in e_ops]
    f_frames = [commutator(sqrt_rho, k) for k in f_ops]

    def inner(x, y, k):  # <col_k(x), col_k(y)>; every entry is real
        return sum(x[i, k] * y[i, k] for i in range(D))

    a = [reduce(sum(inner(x, x, k) for x in e_frames)) for k in range(D)]
    b = [reduce(sum(inner(y, y, k) for y in f_frames)) for k in range(D)]
    c = [[[inner(x, y, k) for k in range(D)] for y in f_frames] for x in e_frames]
    gram = [[reduce(sum(pair[r] * pair[s] for row in c for pair in row)) for s in range(D)]
            for r in range(D)]
    n1, n2 = len(e_ops), len(f_ops)
    start = reduce(sum(a) * sum(b) / 4)
    pair = [reduce((a[r] * b[s] + a[s] * b[r] - 2 * gram[r][s]) / 4)
            for r in range(D) for s in range(D)]
    diag = [reduce((a[r] * b[r] - gram[r][r]) / 4) for r in range(D)]
    step = [reduce(gram[r][r] + gram[s][s] + 2 * gram[r][s] - (n2 * a[r] + n1 * b[s]))
            for r in range(D) for s in range(D)]
    tables = {Reading.PRODUCT: [start, *pair, *diag], Reading.AS_PRINTED: [start, *step]}
    return sqrt_rho, rho, e_ops, f_ops, tables


POINTS = [(1.0, 0.3, 0.7), (0.2, 0.9, 0.4), (0.65, 0.5, 0.05)]


def at(point):
    """The substitution of one (theta, p, q) point."""
    values = {}
    for (c, s), x in zip(RELATIONS, point):
        values.update({s: np.sqrt(x), c: np.sqrt(1.0 - x)})
    return values


def numeric(matrix, point):
    return np.array(matrix.subs(at(point)).evalf(), dtype=complex)


def test_square_root_and_families_are_the_example():
    sqrt_rho, rho, e_ops, f_ops, _ = model()
    assert all(reduce(entry) == 0 for entry in sqrt_rho * sqrt_rho - rho)
    for point in POINTS:
        theta, p, q = point
        state = rho_theta(theta)
        assert np.allclose(numeric(rho, point), state.rho, rtol=0, atol=1e-14)
        assert np.allclose(numeric(sqrt_rho, point), state.sqrt_rho, rtol=0, atol=1e-12)
        for ops, channel in zip((e_ops, f_ops), example_channels(p, q)):
            assert np.allclose([numeric(k, point) for k in ops], channel.operators,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("reading", list(Reading))
def test_tables_are_the_stage_tables(reading):
    # the symbolic rows are the rows the pipeline computes, laid out the same way
    *_, tables = model()
    for theta, p, q in POINTS:
        n1, n2 = example_channels(p, q)
        stage = chain_stage(rho_theta(theta).sqrt_rho[None], n1.operators[None],
                            n2.operators[None])
        row = [float(entry.subs(at((theta, p, q)))) for entry in tables[reading]]
        assert np.allclose(row, stage.tables[reading][0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("reading", list(Reading))
def test_every_label_pair_ties_with_s21(reading):
    # the value at (2, 1) reads only sigma[1] and tau[0]; each of their 16
    # pairs, completed to permutations, walks to the identity walk's S21
    *_, tables = model()
    row = tables[reading]
    s21 = sympy.expand(_value_at(row, reading, range(D), range(D), 2, 1, D))
    values = set()
    for r, s in itertools.product(range(D), repeat=2):
        rest = [label for label in range(D) if label != r]
        sigma = (rest[0], r, *rest[1:])
        tau = (s, *(label for label in range(D) if label != s))
        values.add(sympy.expand(_value_at(row, reading, sigma, tau, 2, 1, D)))
    assert values == {s21}
    assert s21.free_symbols == {ST, CT, CP, SQ, CQ}  # not a constant
