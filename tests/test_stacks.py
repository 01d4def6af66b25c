"""Differential tests of the stacked validators, generators, Kraus mixing,
optimizer, seeding hash, ``verify`` and its verdict and invariance columns,
and the columnar discrepancy report.

Each stacked kernel is checked with ``==`` on the bits against the
per-instance code it replaced, which is kept below as oracles.  A bad stack
must raise the error type and message that its first failing instance raises
on its own.
"""

import argparse
import collections
import dataclasses
import itertools
import math
import operator
import sys
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewchain import chains, cli, example, skew
from skewchain.chains import (
    HARD_CHECK_NAMES,
    ChainStage,
    Reading,
    chain_stage,
    invariance_columns,
    lattice_order,
    optimize_batch,
    verdict_columns,
    verify_chain,
)
from skewchain.errors import (
    CompletenessError,
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
    TraceNotOneError,
)
from skewchain.linalg import (
    as_matrix,
    first_max,
    first_min,
    hermitian_eigendecompose,
    max_abs_each,
    psd_sqrt,
    require_square,
)
from skewchain.objects import (
    Convention,
    DensityMatrix,
    KrausChannel,
    channels_from_words,
    completeness_residual,
    densities_from_words,
    derive_seed,
    derive_seeds,
    generators_from_words,
    mix_kraus,
    mix_kraus_families,
    random_channel,
    random_density,
    random_unitary,
    seeding_words,
    trial_entropies,
    unitaries_from_words,
    validate_channel,
    validate_density,
    verify_instances,
)
from skewchain.objects import channel_stack, density_stack

TOL = 1e-9

# ---------------------------------------------------------------------------
# Oracles: the one-instance bodies the stacked kernels replaced.


def oracle_fix_phases(v):
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        mag = abs(a)
        if mag > 0.0:
            v[:, j] = col * (a.conjugate() / mag)
    return v


def oracle_hermiticity_defect(m):
    """``max |M - M^dag|``."""
    return max_abs_each((m - m.conj().T)[None])[0]


def oracle_eigendecompose(m, hermiticity_tol):
    arr = as_matrix(m)
    require_square(arr)
    defect = oracle_hermiticity_defect(arr)
    if defect > hermiticity_tol:
        raise NotHermitianError(defect, hermiticity_tol)
    herm = (arr + arr.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    v = oracle_fix_phases(v)
    d = arr.shape[0]
    if max_abs_each((v.conj().T @ v - np.eye(d))[None])[0] > 1e-10:
        raise ConvergenceError("eigenvector matrix is not unitary to 1e-10")
    if max_abs_each(((v * w) @ v.conj().T - herm)[None])[0] > 1e-10:
        raise ConvergenceError("eigendecomposition does not reconstruct the input to 1e-10")
    return w, v


def oracle_psd_sqrt(rho, tol):
    w, v = oracle_eigendecompose(rho, tol)
    if w[0] < -tol:
        raise NotPSDError(float(w[0]), tol)
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def oracle_validate_density(m, tol):
    """``(rho, sqrt_rho)`` of a valid state."""
    arr = as_matrix(m)
    require_square(arr)
    defect = oracle_hermiticity_defect(arr)
    if defect > tol:
        raise NotHermitianError(defect, tol)
    trace_dev = abs(complex(np.trace(arr)) - 1.0)
    if trace_dev > tol:
        raise TraceNotOneError(trace_dev, tol)
    return arr, oracle_psd_sqrt(arr, tol)


def oracle_completeness_residual(mats, convention):
    d = mats[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in mats:
        acc += k @ k.conj().T if convention == Convention.ROW_SUM else k.conj().T @ k
    return max_abs_each((acc - np.eye(d))[None])[0]


def oracle_validate_channel(ops, convention, tol):
    """The operators of a valid Kraus family."""
    mats = [as_matrix(k) for k in ops]
    if not mats:
        raise ValueError("a channel needs at least one Kraus operator")
    d = require_square(mats[0])
    for k in mats[1:]:
        if k.shape != (d, d):
            raise DimensionMismatchError(
                f"Kraus operators have mixed shapes: {(d, d)} vs {k.shape}")
    if len(mats) > d * d:
        raise ValueError(f"{len(mats)} Kraus operators exceed the d^2 = {d * d} maximum")
    convention = Convention(convention)
    residual = oracle_completeness_residual(mats, convention)
    if residual > tol:
        raise CompletenessError(residual, convention.value, tol)
    return mats


def oracle_generator(seed):
    return np.random.Generator(np.random.PCG64(int(seed)))


def oracle_derive_seed(seed, *parts):
    ss = np.random.SeedSequence(entropy=[int(seed), *[int(p) for p in parts]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def oracle_value_at(tables, reading, sigma, tau, p, q, d):
    if reading == Reading.PRODUCT:
        row, apply = tables.product, operator.sub
    else:
        row, apply = tables.printed, operator.add
    value = row[0]
    for pos, columns in chains._updates(reading, sigma, tau, d):
        for column in columns:
            value = apply(value, row[column])
        if pos == (p, q):
            return value
    raise AssertionError("unreachable")


def oracle_rest(prefix, d):
    return sorted(set(range(d)).difference(prefix))


def oracle_optimize(data, reading):
    """``(value, sigma, tau)`` of one instance's (2, 1) optimum: the first
    maximum over the labels (sigma[1], tau[0]), in the order in which the
    lexicographic walk over all (d!)^2 pairs first meets them."""
    d = data.dim
    tables = SimpleNamespace(product=data.stage.tables[Reading.PRODUCT][0],
                             printed=data.stage.tables[Reading.AS_PRINTED][0])
    # that walk meets sigma[1] = r first in (smallest unused label, r, the rest ascending)
    r_order = sorted(range(d), key=lambda r: (oracle_rest((r,), d)[0], r))
    values = oracle_value_at(tables, reading, [None, np.array(r_order)[:, None]],
                             [np.arange(d)[None, :]], 2, 1, d)
    i, j = (int(k) for k in np.unravel_index(int(np.argmax(values)), values.shape))
    rest = oracle_rest((r_order[i],), d)
    return float(values[i, j]), (rest[0], r_order[i], *rest[1:]), (j, *oracle_rest((j,), d))


# ---------------------------------------------------------------------------
# Helpers


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def first_failure(oracle, instances, *args):
    """``(type, message)`` of the first instance the oracle rejects, else None."""
    for instance in instances:
        try:
            oracle(instance, *args)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


STATE_KINDS = ("gaussian", "rank1", "near_singular")


def make_state(d, kind, seed):
    """A trace-one state of ``kind``.  Near-singular spectra hold zeros and
    eigenvalues within 1e-12 below zero, which ``psd_sqrt`` clamps."""
    gen = np.random.default_rng(seed)
    if kind == "near_singular":
        small = gen.choice([-1e-12, -1e-14, 0.0, 1e-15], size=d // 2)
        large = gen.random(d - len(small)) + 0.1
        w = np.concatenate([small, large / large.sum() * (1.0 - small.sum())])
        u = random_unitary(d, seed)
        m = (u * w) @ u.conj().T
    else:
        rank = 1 if kind == "rank1" else d
        g = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
        m = g @ g.conj().T
        m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


def make_family(d, n, convention, seed):
    return list(random_channel(d, n, convention, seed).operators)


states = st.lists(st.tuples(st.sampled_from(STATE_KINDS), st.integers(0, 2 ** 32 - 1)),
                  min_size=1, max_size=5)


# ---------------------------------------------------------------------------
# Stacked validators


class TestDensityStacks:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), drawn=states)
    def test_match_oracle(self, d, drawn):
        ms = [make_state(d, kind, seed) for kind, seed in drawn]
        rhos, sqrts = density_stack(np.array(ms), tol=TOL)
        assert len(rhos) == len(sqrts) == len(ms)
        for m, got_rho, got_sqrt in zip(ms, rhos, sqrts):
            rho, sqrt = oracle_validate_density(m, TOL)
            assert same_bits(got_rho, rho) and same_bits(got_sqrt, sqrt)
            alone = validate_density(m, tol=TOL)
            assert alone.dim == d
            assert same_bits(alone.rho, rho) and same_bits(alone.sqrt_rho, sqrt)
            assert same_bits(psd_sqrt(m, tol=TOL), sqrt)
            w, v = oracle_eigendecompose(m, TOL)
            got_w, got_v = hermitian_eigendecompose(m, hermiticity_tol=TOL)
            assert same_bits(got_w, w) and same_bits(got_v, v)

    def test_near_singular_spectra_reach_the_clamp(self):
        m = make_state(6, "near_singular", 3)
        assert hermitian_eigendecompose(m)[0][0] < 0.0
        _, (sqrt,) = density_stack([m])
        assert same_bits(sqrt, oracle_psd_sqrt(m, TOL))

    def test_the_worked_example_states(self):
        thetas = [0.0, 0.25, 0.5, 1.0]
        for theta, dm in zip(thetas, map(example.rho_theta, thetas)):
            a = 2.0 * theta - 1.0
            block = np.array([[1.0, a], [a, 1.0]], dtype=complex) / 4.0
            m = np.zeros((4, 4), dtype=complex)
            m[:2, :2] = m[2:, 2:] = block
            rho, sqrt = oracle_validate_density(m, 1e-12)
            assert same_bits(dm.rho, rho) and same_bits(dm.sqrt_rho, sqrt)

    @staticmethod
    def spoil(m, defect, seed):
        m = m.copy()
        d = len(m)
        if defect == "nan":
            m[seed % d, 0] = np.nan
        elif defect == "inf":
            m[0, seed % d] = np.inf
        elif defect == "not_hermitian":
            m[0, -1] += 1e-3j
        elif defect == "trace":
            m *= 1.01
        elif defect == "not_psd":
            w = np.zeros(d)
            w[0], w[-1] = -0.1, 1.1
            u = random_unitary(d, seed)
            m = (u * w) @ u.conj().T
        return m

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), drawn=st.lists(
        st.tuples(st.sampled_from([None, "nan", "inf", "not_hermitian", "trace", "not_psd"]),
                  st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5))
    def test_bad_stack_fails_as_its_first_failing_state(self, d, drawn):
        ms = [self.spoil(make_state(d, "gaussian", seed), defect, seed)
              for defect, seed in drawn]
        expected = first_failure(oracle_validate_density, ms, TOL)
        if expected is None:
            density_stack(np.array(ms), tol=TOL)
        else:
            assert raised(density_stack, np.array(ms), TOL) == expected

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["nan", "not_hermitian", "trace", "not_psd"])
    def test_each_state_is_checked(self, bad, defect):
        ms = [make_state(3, "gaussian", seed) for seed in range(3)]
        ms[bad] = self.spoil(ms[bad], defect, 1)
        assert raised(density_stack, np.array(ms), TOL) == \
            first_failure(oracle_validate_density, ms, TOL)

    def test_solver_failure_is_the_first_failing_state(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def eigh(m):  # fails on any matrix that holds the marker
            if np.any(m[..., 0, 0] == 0.125):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        marked = np.diag([0.125, 0.875]).astype(complex)
        ms = [make_state(2, "gaussian", 1), marked, self.spoil(marked, "trace", 0), marked]
        expected = first_failure(oracle_validate_density, ms, TOL)
        assert expected == (ConvergenceError, "eigensolver failed: Eigenvalues did not converge")
        assert raised(density_stack, np.array(ms), TOL) == expected
        assert raised(density_stack, np.array(ms[2:]), TOL) == \
            first_failure(oracle_validate_density, ms[2:], TOL)

    def test_mixed_shapes(self):
        good2, good3 = make_state(2, "gaussian", 1), make_state(3, "gaussian", 2)
        bad3 = self.spoil(good3, "trace", 0)
        assert raised(density_stack, [good2, bad3], TOL) == \
            first_failure(oracle_validate_density, [good2, bad3], TOL)
        assert raised(density_stack, [good2, good3], TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")
        not_square = np.ones((2, 2, 3)) / 2
        assert raised(density_stack, not_square, TOL) == \
            first_failure(oracle_validate_density, not_square, TOL)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), drawn=st.lists(
        st.tuples(st.sampled_from([None, None, "nan", "inf", "not_hermitian", "trace",
                                   "not_psd"]),
                  st.sampled_from(STATE_KINDS), st.integers(0, 2 ** 32 - 1)),
        min_size=1, max_size=5))
    def test_array_form(self, d, drawn):
        # read-only arrays with the bits of each state validated alone, or the
        # error of the first failing state alone
        ms = [self.spoil(make_state(d, kind, seed), defect, seed) for defect, kind, seed in drawn]
        expected = first_failure(oracle_validate_density, ms, TOL)
        if expected is not None:
            assert raised(density_stack, np.array(ms), TOL) == expected
            return
        rhos, sqrts = density_stack(np.array(ms), TOL)
        assert not rhos.flags.writeable and not sqrts.flags.writeable
        assert rhos.shape == sqrts.shape == (len(ms), d, d)
        for m, rho, sqrt in zip(ms, rhos, sqrts):
            want_rho, want_sqrt = oracle_validate_density(m, TOL)
            dm = validate_density(m, TOL)
            assert same_bits(rho, want_rho) and same_bits(sqrt, want_sqrt)
            assert same_bits(dm.rho, rho) and same_bits(dm.sqrt_rho, sqrt)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["nan", "inf", "not_hermitian", "trace", "not_psd"])
    def test_array_form_checks_each_state(self, bad, defect):
        ms = [make_state(3, "gaussian", seed) for seed in range(3)]
        ms[bad] = self.spoil(ms[bad], defect, 1)
        assert raised(density_stack, np.array(ms), TOL) == \
            first_failure(oracle_validate_density, ms, TOL)

    def test_array_form_of_mixed_shapes_and_empty_stacks(self):
        good2, good3 = make_state(2, "gaussian", 1), make_state(3, "gaussian", 2)
        bad3 = self.spoil(good3, "trace", 0)
        assert raised(density_stack, [good2, bad3], TOL) == raised(validate_density, bad3, TOL)
        assert raised(density_stack, [good2, good3], TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")
        assert raised(density_stack, np.ones((2, 2, 3)) / 2, TOL) == \
            raised(validate_density, np.ones((2, 3)) / 2, TOL)
        rhos, sqrts = density_stack([], TOL)
        assert rhos.shape == sqrts.shape == (0, 0, 0) and not rhos.flags.writeable


class TestChannelStacks:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_match_oracle(self, d, data):
        n = data.draw(st.just(d * d) | st.integers(1, d * d))
        convention = data.draw(st.sampled_from(list(Convention)))
        seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5))
        families = [make_family(d, n, convention, seed) for seed in seeds]
        got = channel_stack(np.array(families), convention, TOL)
        assert got.shape == (len(families), n, d, d)
        for family, family_ops in zip(families, got):
            ops = oracle_validate_channel(family, convention, TOL)
            assert same_bits(family_ops, np.array(ops))
            for alone in (validate_channel(family, convention, TOL),
                          validate_channel(np.array(family), convention, TOL)):
                assert (alone.dim, alone.n, alone.convention) == (d, n, convention)
                assert all(same_bits(a, b) for a, b in zip(alone.operators, ops))
            assert completeness_residual(family, convention) \
                == oracle_completeness_residual(ops, convention)

    @staticmethod
    def spoil(family, defect, seed):
        family = [k.copy() for k in family]
        d = len(family[0])
        if defect == "nan":
            family[seed % len(family)][0, seed % d] = np.nan
        elif defect == "inf":
            family[-1][seed % d, 0] = -np.inf
        elif defect == "incomplete":
            family[0] = family[0] * 1.01
        elif defect == "mixed":
            family.append(np.zeros((d + 1, d + 1)))
        return family

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_bad_stack_fails_as_its_first_failing_family(self, d, data):
        n = data.draw(st.integers(1, d * d))
        convention = data.draw(st.sampled_from(list(Convention)))
        drawn = data.draw(st.lists(st.tuples(
            st.sampled_from([None, "nan", "inf", "incomplete", "mixed"]),
            st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5))
        families = [self.spoil(make_family(d, n, convention, seed), defect, seed)
                    for defect, seed in drawn]
        if data.draw(st.booleans()):  # one operator too many in every family
            families = [family + [np.zeros((d, d))] * (d * d + 1 - n) for family in families]
        expected = first_failure(oracle_validate_channel, families, convention, TOL)
        if expected is None:
            channel_stack(families, convention, TOL)
        else:
            assert raised(channel_stack, families, convention, TOL) == expected

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("convention", list(Convention))
    def test_each_family_is_checked(self, bad, convention):
        families = [make_family(3, 4, convention, seed) for seed in range(3)]
        families[bad] = self.spoil(families[bad], "incomplete", 0)
        assert raised(channel_stack, np.array(families), convention, TOL) == \
            first_failure(oracle_validate_channel, families, convention, TOL)

    def test_mixed_shapes_across_families(self):
        a = make_family(2, 2, Convention.COLUMN_SUM, 1)
        b = make_family(3, 2, Convention.COLUMN_SUM, 2)
        assert raised(channel_stack, [a, b], Convention.COLUMN_SUM, TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_array_form(self, d, data):
        # a read-only array with the bits of each family validated alone, or
        # the error of the first failing family alone
        n = data.draw(st.just(d * d) | st.integers(1, d * d))
        convention = data.draw(st.sampled_from(list(Convention)))
        drawn = data.draw(st.lists(st.tuples(
            st.sampled_from([None, None, "nan", "inf", "incomplete", "mixed"]),
            st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5))
        families = [self.spoil(make_family(d, n, convention, seed), defect, seed)
                    for defect, seed in drawn]
        if data.draw(st.booleans()):  # one operator too many in every family
            families = [family + [np.zeros((d, d))] * (d * d + 1 - n) for family in families]
        expected = first_failure(oracle_validate_channel, families, convention, TOL)
        if expected is not None:
            assert raised(channel_stack, families, convention, TOL) == expected
            return
        ops = channel_stack(families, convention, TOL)
        assert not ops.flags.writeable and ops.shape == (len(families), n, d, d)
        for family, got in zip(families, ops):
            assert same_bits(got, np.array(oracle_validate_channel(family, convention, TOL)))
            assert same_bits(np.array(validate_channel(family, convention, TOL).operators), got)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["nan", "inf", "incomplete"])
    def test_array_form_checks_each_family(self, bad, defect):
        families = [make_family(3, 4, Convention.ROW_SUM, seed) for seed in range(3)]
        families[bad] = self.spoil(families[bad], defect, 1)
        assert raised(channel_stack, np.array(families), Convention.ROW_SUM, TOL) == \
            first_failure(oracle_validate_channel, families, Convention.ROW_SUM, TOL)

    def test_array_form_of_mixed_shapes_and_empty_stacks(self):
        a = make_family(2, 2, Convention.COLUMN_SUM, 1)
        b = make_family(3, 2, Convention.COLUMN_SUM, 2)
        assert raised(channel_stack, [a, b], Convention.COLUMN_SUM, TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")
        empty = channel_stack([], Convention.COLUMN_SUM, TOL)
        assert empty.shape == (0, 0, 0, 0) and not empty.flags.writeable

    @pytest.mark.parametrize("defect", [None, "nan", "inf", "incomplete", "too_many",
                                        "not_square", "empty"])
    def test_family_array_checks_as_its_matrices(self, defect):
        # an (n, d, d) array is checked as one family, not split into its
        # matrices, and fails as its matrices fail when checked one by one
        family = make_family(3, 4, Convention.ROW_SUM, 7)
        if defect == "too_many":
            family += [np.zeros((3, 3))] * 6
        elif defect == "not_square":
            family = [np.ones((2, 3))] * 2
        elif defect == "empty":
            family = []
        elif defect is not None:
            family = self.spoil(family, defect, 1)
        arr = np.array(family) if family else np.zeros((0, 3, 3))
        want = first_failure(oracle_validate_channel, [family], Convention.ROW_SUM, TOL)
        if want is None:
            ops = oracle_validate_channel(family, Convention.ROW_SUM, TOL)
            for given in (arr, family):
                assert same_ops(validate_channel(given, Convention.ROW_SUM, TOL), ops)
        else:
            assert raised(validate_channel, arr, Convention.ROW_SUM, TOL) == want
            assert raised(validate_channel, family, Convention.ROW_SUM, TOL) == want

    def test_the_worked_example_channels(self):
        points = list(itertools.product([0.0, 0.5, 1.0, 0.3], repeat=2))
        for (p, q), (n1, n2) in zip(points, itertools.starmap(example.example_channels, points)):
            sp, sq = math.sqrt(1.0 - p), math.sqrt(1.0 - q)
            f2 = np.zeros((4, 4), dtype=complex)
            f2[0, 1] = f2[2, 3] = math.sqrt(q)
            for channel, family in (
                    (n1, [np.diag([1.0, sp, 1.0, sp]).astype(complex),
                          np.diag([0.0, math.sqrt(p), 0.0, math.sqrt(p)]).astype(complex)]),
                    (n2, [np.diag([sq, 1.0, sq, 1.0]).astype(complex), f2])):
                ops = oracle_validate_channel(family, Convention.ROW_SUM, 1e-12)
                assert all(same_bits(a, b) for a, b in zip(channel.operators, ops))


# ---------------------------------------------------------------------------
# Stacked optimizer


def object_stage(rhos, ch1s, ch2s):
    """The ``chain_stage`` of instances given as objects, stacked."""
    return chain_stage(np.array([rho.sqrt_rho for rho in rhos]),
                       np.array([ch.operators for ch in ch1s]),
                       np.array([ch.operators for ch in ch2s]))


def random_block(d, count, seed, convention=Convention.COLUMN_SUM):
    """The ``chain_stage`` of ``count`` seeded same-shape instances, and each
    instance as its (state, channel, channel) objects."""
    n1, n2 = (seed % 3) + 1, ((seed // 3) % 3) + 1
    rhos = [random_density(d, (seed + b) % d + 1, seed + b) for b in range(count)]
    ch1s = [random_channel(d, n1, convention, seed + 100 + b) for b in range(count)]
    ch2s = [random_channel(d, n2, convention, seed + 200 + b) for b in range(count)]
    return object_stage(rhos, ch1s, ch2s), list(zip(rhos, ch1s, ch2s))


def alone(rho, ch1, ch2):
    """What the scalar oracles read of one instance, built as a stack of one."""
    return stage_data(object_stage([rho], [ch1], [ch2]), 0, rho.dim)


def found(values, pairs):
    """Each instance's ``(value, sigma, tau)`` of a search's ``(values, pairs)``."""
    return [(v, sigma, tau) for v, (sigma, tau) in zip(values.tolist(), pairs)]


class TestOptimizeBatch:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 4), count=st.integers(1, 5), seed=st.integers(0, 2 ** 20),
           reading=st.sampled_from(list(Reading)), data=st.data())
    def test_random_stacks(self, d, count, seed, reading, data):
        stage, instances = random_block(d, count, seed,
                                        data.draw(st.sampled_from(list(Convention))))
        assert found(*optimize_batch(stage, reading)) == [
            oracle_optimize(alone(*x), reading) for x in instances]

    @pytest.mark.parametrize("reading", list(Reading))
    def test_worked_example_ties_in_split_blocks(self, reading):
        # theta = 1/2 makes every candidate 0.0, so only the tie-break decides
        grid = [0.0, 0.5, 1.0]
        inputs = ([example.rho_theta(0.5)] * 9,
                  *zip(*itertools.starmap(example.example_channels,
                                          itertools.product(grid, grid))))
        assert found(*optimize_batch(object_stage(*inputs), reading)) == [
            oracle_optimize(alone(*instance), reading) for instance in zip(*inputs)]


# ---------------------------------------------------------------------------
# Stacked generators and Kraus mixing


def oracle_gaussian(gen, shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def oracle_haar_isometry(seed, rows, cols):
    q, r = np.linalg.qr(oracle_gaussian(oracle_generator(seed), (rows, cols)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def oracle_random_density(d, rank, seed):
    """``(rho, sqrt_rho)`` of one seeded state."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    g = oracle_gaussian(oracle_generator(seed), (d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2.0
    return oracle_validate_density(m, TOL)


def oracle_random_channel(d, n, convention, seed):
    """The operators of one seeded channel."""
    if not 1 <= n <= d * d:
        raise ValueError(f"n_kraus must satisfy 1 <= n <= d^2, got n={n}, d={d}")
    w = oracle_haar_isometry(seed, n * d, d)
    blocks = [w[i * d:(i + 1) * d, :] for i in range(n)]
    if convention == Convention.ROW_SUM:
        blocks = [b.conj().T for b in blocks]
    return oracle_validate_channel(blocks, convention, 1e-12)


def oracle_mix_kraus(channel, u):
    """The operators of one mixed family."""
    um = as_matrix(u)
    n = require_square(um)
    if n != channel.n:
        raise DimensionMismatchError(
            f"mixing unitary is {n}x{n} but the channel has {channel.n} Kraus operators")
    residual = max_abs_each((um.conj().T @ um - np.eye(n))[None])[0]
    if residual > 1e-10:
        raise NotUnitaryError(residual, 1e-10)
    return list(np.einsum("ts,sij->tij", um, np.stack(channel.operators)))


def same_ops(channel, ops):
    return len(channel.operators) == len(ops) and all(
        same_bits(a, b) for a, b in zip(channel.operators, ops))


seeds_64 = st.integers(0, 2 ** 64 - 1)


class TestGeneratorStacks:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_densities_match_oracle(self, d, data):
        drawn = data.draw(st.lists(st.tuples(st.integers(1, d), seeds_64), min_size=1, max_size=5))
        rhos, sqrts = densities_from_words(d, [rank for rank, _ in drawn],
                                           seeding_words([(seed,) for _, seed in drawn]))
        assert len(rhos) == len(sqrts) == len(drawn)
        for (rank, seed), got_rho, got_sqrt in zip(drawn, rhos, sqrts):
            rho, sqrt = oracle_random_density(d, rank, seed)
            assert same_bits(got_rho, rho) and same_bits(got_sqrt, sqrt)
            dm = random_density(d, rank, seed)
            assert dm.dim == d and same_bits(dm.rho, rho) and same_bits(dm.sqrt_rho, sqrt)

    def test_rank_out_of_range_fails_as_alone(self):
        assert raised(densities_from_words, 3, [2, 4, 0], seeding_words([(1,), (2,), (3,)])) == \
            raised(oracle_random_density, 3, 4, 2)
        assert raised(random_density, 3, 0, 1) == raised(oracle_random_density, 3, 0, 1)
        assert all(stack.shape == (0, 0, 0)
                   for stack in densities_from_words(3, [], seeding_words([])))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_channels_unitaries_and_mixing_match_oracle(self, d, data):
        n = data.draw(st.just(d * d) | st.integers(1, d * d))
        convention = data.draw(st.sampled_from(list(Convention)))
        seeds = data.draw(st.lists(st.tuples(seeds_64, seeds_64), min_size=1, max_size=5))
        families = channels_from_words(d, n, seeding_words([(seed,) for seed, _ in seeds]),
                                       convention)
        us = unitaries_from_words(n, seeding_words([(u_seed,) for _, u_seed in seeds]))
        mixed = mix_kraus_families(families, us)
        assert families.shape == mixed.shape == (len(seeds), n, d, d) and len(us) == len(seeds)
        assert not families.flags.writeable and not mixed.flags.writeable
        for (seed, u_seed), family, u, mix in zip(seeds, families, us, mixed):
            ops = oracle_random_channel(d, n, convention, seed)
            assert same_bits(family, np.array(ops))
            channel = random_channel(d, n, convention, seed)
            assert (channel.dim, channel.n, channel.convention) == (d, n, convention)
            assert same_ops(channel, ops)
            unitary = oracle_haar_isometry(u_seed, n, n)
            assert same_bits(u, unitary) and same_bits(random_unitary(n, u_seed), unitary)
            mixed_ops = oracle_mix_kraus(channel, u)
            assert same_bits(mix, np.array(mixed_ops))
            alone = mix_kraus(channel, u)
            assert alone.convention == convention
            assert same_ops(alone, mixed_ops)

    def test_kraus_count_out_of_range_fails_as_alone(self):
        for n in (0, 5):
            assert raised(channels_from_words, 2, n, seeding_words([(1,), (2,)])) == \
                raised(oracle_random_channel, 2, n, Convention.COLUMN_SUM, 1)
            assert raised(random_channel, 2, n) == \
                raised(oracle_random_channel, 2, n, Convention.COLUMN_SUM, 1)
        assert raised(unitaries_from_words, 0, seeding_words([(1,)])) == \
            raised(random_unitary, 0, 1) == (ValueError, "n must be >= 1")
        assert channels_from_words(2, 3, seeding_words([])).shape == (0, 0, 0, 0)
        assert unitaries_from_words(3, seeding_words([])).shape == (0, 3, 3)

    @staticmethod
    def spoil(u, defect):
        if defect == "scaled":
            return u * 1.001
        if defect == "far":
            return u @ np.diag([1.0] + [3.0] * (len(u) - 1))
        if defect == "nan":
            u = u.copy()
            u[-1, 0] = np.nan
            return u
        if defect == "wrong_size":
            return np.eye(len(u) + 1)
        return np.ones(len(u))  # not a matrix

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["scaled", "nan", "wrong_size", "not_2d"])
    def test_bad_unitary_fails_as_its_first_failing_pair(self, bad, defect):
        channels = [random_channel(3, 2, seed=seed) for seed in (1, 2, 3, 4)]
        us = [random_unitary(2, seed) for seed in (5, 6, 7, 8)]
        us[bad] = self.spoil(us[bad], defect)
        us[3] = self.spoil(us[3], "far")  # a later, larger failure
        expected = first_failure(lambda pair: oracle_mix_kraus(*pair), zip(channels, us))
        assert expected[0] is not None
        assert raised(mix_kraus, channels[bad], us[bad]) == expected
        families = np.array([channel.operators for channel in channels])
        if defect in ("scaled", "nan"):
            assert expected[0] is (NotUnitaryError if defect == "scaled" else NonFiniteError)
            assert raised(mix_kraus_families, families, np.array(us)) == expected
        else:  # no (B, n, n) stack of unitaries: checked pair by pair
            assert raised(mix_kraus_families, families, us) == expected

    def test_families_must_share_one_shape(self):
        # the families and the unitaries must be stacks of one count and one n
        families = np.array([random_channel(2, 2, seed=seed).operators for seed in (1, 2)])
        us = np.array([random_unitary(2, seed) for seed in (3, 4)])
        need = ("need a (B, n, d, d) stack of Kraus families and a (B, n, n) stack of "
                "mixing unitaries, got shapes")
        for args, shapes in (((families, us[:1]), "(2, 2, 2, 2) and (1, 2, 2)"),
                             ((families, np.array([random_unitary(3, 3)] * 2)),
                              "(2, 2, 2, 2) and (2, 3, 3)"),
                             ((families[0], us), "(2, 2, 2) and (2, 2, 2)")):
            assert raised(mix_kraus_families, *args) == (DimensionMismatchError,
                                                         f"{need} {shapes}")
        assert mix_kraus_families(families[:0], us[:0]).shape == (0, 2, 2, 2)


# ---------------------------------------------------------------------------
# Seeding: the vectorized SeedSequence hash against numpy's own

SEED_CORPUS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 10 ** 23)


class TestSeedingKernel:
    # every parts length the CLI and the tests derive with: a plain seed (0),
    # the tests' derive_seed(seed, side) (1), trial_entropies (2), verify (3)
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
    def test_derived_seeds_match_seed_sequence(self, length):
        entropies = [(seed, *parts) for seed in SEED_CORPUS
                     for parts in itertools.product((0, 7, 2 ** 32, 10 ** 23), repeat=length)]
        want = [oracle_derive_seed(*entropy) for entropy in entropies]
        assert derive_seeds(entropies) == want  # words of every width in one call
        assert derive_seeds(iter(entropies)) == want  # read once, as an iterator allows
        assert [derive_seed(*entropy) for entropy in entropies] == want

    def test_a_derived_seed_below_2_32_is_one_word(self):
        # the CLI feeds derived seeds back in; about one in 2^32 has one word
        small = [seed for seed in range(2 ** 32 - 4, 2 ** 32 + 4)]
        assert derive_seeds([(seed, 0, 1) for seed in small]) == [
            oracle_derive_seed(seed, 0, 1) for seed in small]

    def test_generators_match_pcg64(self):
        gens = generators_from_words(seeding_words([(seed,) for seed in SEED_CORPUS]))
        assert [gen.bit_generator.state for gen in gens] == [
            oracle_generator(seed).bit_generator.state for seed in SEED_CORPUS]
        for gen, seed in zip(gens, SEED_CORPUS):
            assert same_bits(gen.standard_normal(7), oracle_generator(seed).standard_normal(7))

    def test_trial_seeds_derive_each_trial(self):
        derived = iter(derive_seeds(trial_entropies(SEED_CORPUS, 3)))
        assert list(zip(derived, derived)) == [
            (oracle_derive_seed(seed, t, 1), oracle_derive_seed(seed, t, 2))
            for seed in SEED_CORPUS for t in range(3)]

    def test_negative_entropy_fails_as_seed_sequence(self):
        with pytest.raises(ValueError) as want:
            oracle_derive_seed(3, -1)
        for call in (lambda: derive_seed(3, -1), lambda: seeding_words([(-1,)])):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Verdict and invariance columns: the scalar checks and fold they replaced


OracleCheck = collections.namedtuple("OracleCheck", "name passed deviation")


def oracle_ge_check(name, lhs, rhs, tol):
    lhs, rhs = float(lhs), float(rhs)
    return OracleCheck(name, lhs >= rhs - tol, max(rhs - lhs, 0.0))


def oracle_eq_check(name, lhs, rhs, tol):
    dev = abs(float(lhs) - float(rhs))
    return OracleCheck(name, dev <= tol, dev)


def oracle_verify_checks(data, tol):
    """The checks of one instance, one scalar check at a time."""
    d = data.dim
    chain = data.chains[Reading.PRODUCT]
    i_vals = chain.i_values
    checks = []

    checks.append(oracle_ge_check("product_ge_cross_term", chain.product, chain.cross_term, tol))
    checks.append(oracle_ge_check("product_ge_i1", chain.product, i_vals[0], tol))
    worst_step = 0.0
    for m in range(d - 1):
        worst_step = max(worst_step, i_vals[m + 1] - i_vals[m])
    checks.append(oracle_ge_check("i_monotone", -worst_step, 0.0, tol))
    checks.append(oracle_eq_check("i_endpoint_eq_cross_term", i_vals[-1], chain.cross_term, tol))

    for reading in (Reading.PRODUCT, Reading.AS_PRINTED):
        s_vals = data.chains[reading].s_values
        label = reading.value.replace("-", "_")
        if s_vals:
            seq = [chain.product] + [s_vals[k] for k in lattice_order(d)]
            worst = max(seq[k + 1] - seq[k] for k in range(len(seq) - 1))
            checks.append(oracle_ge_check(f"s_monotone[{label}]", -worst, 0.0, tol))
            if d >= 2:
                checks.append(oracle_eq_check(f"anchor_s21_eq_i2[{label}]",
                                              s_vals[(2, 1)], i_vals[1], tol))
            if d >= 3:
                checks.append(oracle_eq_check(f"anchor_s32_eq_i3[{label}]",
                                              s_vals[(3, 2)], i_vals[2], tol))
            worst_anchor = max(abs(s_vals[(p, p - 1)] - i_vals[p - 1])
                               for p in range(2, d + 1))
            checks.append(oracle_eq_check(f"anchor_spp1_eq_ip[{label}]", worst_anchor, 0.0, tol))
            checks.append(oracle_eq_check(f"anchor_endpoint_eq_cross_term[{label}]",
                                          s_vals[(d, d - 1)], chain.cross_term, tol))

    sum_worst = min(chain.sum - 2.0 * math.sqrt(max(v, 0.0)) for v in i_vals)
    checks.append(oracle_ge_check("sum_ge_2sqrt_im", sum_worst, 0.0, tol))

    if d >= 2:
        best, _, _ = oracle_optimize(data, Reading.PRODUCT)
        checks.append(oracle_ge_check("opt_ge_identity", best, chain.s_values[(2, 1)], tol))
        for t in (0.0, 0.5, 1.0):
            prod_bound = (1.0 - t) * chain.product + t * best  # the scalar mix
            checks.append(oracle_ge_check("mixed_le_product", chain.product, prod_bound, tol))
            checks.append(oracle_ge_check("mixed_ge_cross_term", prod_bound, chain.cross_term,
                                          tol))
    return checks


def oracle_invariant_values(data):
    chain = data.chains[Reading.PRODUCT]
    return {"product": (chain.product,), "sum": (chain.sum,), "i_values": chain.i_values,
            "s_values": tuple(chain.s_values.values()),
            "s_values_as_printed": tuple(data.chains[Reading.AS_PRINTED].s_values.values()),
            "cross_term": (chain.cross_term,)}


def oracle_invariance(data, mixed_datas):
    """Each quantity's worst deviation over the trials, one Python max at a time."""
    base = oracle_invariant_values(data)
    devs = dict.fromkeys(base, 0.0)
    for mixed in mixed_datas:
        for name, values in oracle_invariant_values(mixed).items():
            devs[name] = max([devs[name], *(abs(a - b) for a, b in zip(values, base[name]))])
    return devs


def check_bits(checks):
    """Each check with its deviation as a repr, which tells NaN and -0.0 apart."""
    return [(c.name, c.passed, repr(c.deviation)) for c in checks]


def column_bits(columns, b):
    """``check_bits`` of instance b of ``VerdictColumns``."""
    return check_bits(map(OracleCheck, columns.names, columns.passed[b].tolist(),
                          columns.deviation[b].tolist()))


def stage_data(stage, b, d):
    """What the scalar oracles read of instance b of a stage."""
    return SimpleNamespace(dim=d, stage=SimpleNamespace(
        tables={reading: stage.tables[reading][b:b + 1] for reading in Reading}),
        chains={reading: SimpleNamespace(
            product=stage.products[b].item(), sum=stage.sums[b].item(),
            i_values=tuple(stage.i_values[b].tolist()),
            s_values=dict(zip(lattice_order(d), stage.lattices[reading][b].tolist())),
            cross_term=stage.cross_terms[b].item()) for reading in Reading})


SPECIALS = (math.nan, 0.0, -0.0, math.inf, -math.inf)


def take(stage, rows):
    """The instances ``rows`` of a stage, as a stage of copies of its arrays."""
    i_values = stage.i_values[rows]
    return ChainStage(stage.sums[rows], stage.products[rows],
                      {reading: table[rows] for reading, table in stage.tables.items()},
                      {reading: values[rows] for reading, values in stage.lattices.items()},
                      stage.cross_terms[rows], lambda: i_values)


def injected(stage, count, d):
    """The first ``count`` instances of a stage, then copies of them with one
    special value written over a scalar, or over the first, a middle or the
    last entry of the I values or of either reading's lattice."""
    targets = [("products", 0), ("sums", 0), ("cross_terms", 0)]
    for target, size in (("i_values", d), (Reading.PRODUCT, len(lattice_order(d))),
                         (Reading.AS_PRINTED, len(lattice_order(d)))):
        targets += [(target, pos) for pos in sorted({0, size // 2, size - 1}) if size]
    cases = [(b, target, pos, value) for target, pos in targets for value in SPECIALS
             for b in range(count)]
    out = take(stage, list(range(count)) + [b for b, *_ in cases])
    for row, (_, target, pos, value) in enumerate(cases, start=count):
        if target == "i_values":
            out.i_values[row, pos] = value
        elif isinstance(target, Reading):
            out.lattices[target][row, pos] = value
        else:
            getattr(out, target)[row] = value
    return out


def block_at(d, count, seed):
    """``random_block`` with Kraus counts that fit dimension d."""
    return random_block(d, count, seed if d > 1 else 9 * seed)  # 9k: n1 = n2 = 1


class TestVerdictColumns:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])  # d = 1: no lattice, no search
    def test_each_row_matches_the_scalar_checks(self, d):
        stage, instances = block_at(d, 3, 4 + d)
        rows = injected(stage, 3, d)
        tol = 1e-10
        columns = verdict_columns(rows, tol)
        for b in range(len(rows.products)):
            want = check_bits(oracle_verify_checks(stage_data(rows, b, d), tol))
            assert column_bits(columns, b) == want
        if d >= 2:  # optima found ahead, as bounds passes them, give the same bits
            given = verdict_columns(rows, tol, optimize_batch(rows)[0])
            for b in range(len(rows.products)):
                assert column_bits(given, b) == column_bits(columns, b)
        for instance in instances:  # verify_chain: a stack of one
            assert column_bits(verify_chain(*instance, tol), 0) == check_bits(
                oracle_verify_checks(alone(*instance), tol))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_invariance_columns_match_the_fold(self, d):
        stage, instances = block_at(d, 3, 7 + d)
        rows = injected(stage, 3, d)
        count = len(rows.products) // 3  # each instance and two trials, specials among all three
        base, trials = take(rows, range(count)), take(rows, range(count, 3 * count))
        got = invariance_columns(base, [trials])
        for b in range(count):
            want = oracle_invariance(stage_data(base, b, d),
                                     [stage_data(trials, b + t * count, d) for t in (0, 1)])
            assert [repr(x) for x in got[b].tolist()] == [repr(x) for x in want.values()]
        # the first instance with the other two as its trials, each built alone
        first, *others = [object_stage(*zip(instance)) for instance in instances]
        got = invariance_columns(first, others)[0].tolist()
        want = oracle_invariance(alone(*instances[0]), [alone(*x) for x in instances[1:]])
        assert got == list(want.values())

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_invariance_fold_by_pass_matches_the_oracle(self, d):
        # two instances and the trials of ``injected``, specials among them,
        # cut into two passes at each boundary between trials, into one pass
        # and into one pass per trial; the base is the clean instances, then
        # the first block of specials (NaN products) with the rest as trials
        stage, _ = block_at(d, 2, 11 + d)
        rows = injected(stage, 2, d)
        blocks = len(rows.products) // 2
        for first in (0, 1):
            base = take(rows, [2 * first, 2 * first + 1])
            mixed = take(rows, [2 * t + b for t in range(blocks) if t != first for b in (0, 1)])
            trials = blocks - 1
            want = [[repr(x) for x in oracle_invariance(
                stage_data(base, b, d), [stage_data(mixed, 2 * t + b, d)
                                         for t in range(trials)]).values()] for b in (0, 1)]
            cuts = [[mixed], [take(mixed, [2 * t, 2 * t + 1]) for t in range(trials)]]
            cuts += [[take(mixed, range(2 * k)), take(mixed, range(2 * k, 2 * trials))]
                     for k in range(1, trials)]
            for passes in cuts:
                got = invariance_columns(base, passes)
                assert [[repr(x) for x in row] for row in got.tolist()] == want

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 4), data=st.data())
    def test_rows_of_special_values(self, d, data):
        # every value the kernel reads drawn at once, so specials meet each other
        stage, _ = block_at(d, 1, 3 + d)
        values = st.sampled_from(SPECIALS + (1.0, -1.0, 0.25, 3.0))
        size = len(lattice_order(d))
        rows = take(stage, [0, 0])
        for field in ("products", "sums", "cross_terms"):
            getattr(rows, field)[:] = data.draw(st.lists(values, min_size=2, max_size=2))
        rows.i_values[:] = [tuple(data.draw(st.lists(values, min_size=d, max_size=d)))
                            for _ in range(2)]
        for reading in Reading:
            rows.lattices[reading][:] = data.draw(
                st.lists(st.lists(values, min_size=size, max_size=size), min_size=2, max_size=2))
        columns = verdict_columns(rows, 1e-10)
        for b in range(2):
            want = check_bits(oracle_verify_checks(stage_data(rows, b, d), 1e-10))
            assert column_bits(columns, b) == want
        got = invariance_columns(take(rows, [0]), [take(rows, [1])])[0].tolist()
        want = oracle_invariance(stage_data(rows, 0, d), [stage_data(rows, 1, d)])
        assert [repr(x) for x in got] == [repr(x) for x in want.values()]

    @settings(max_examples=200, deadline=None)
    # past 16 entries numpy's reductions run SIMD lanes, which may pick either zero
    @given(st.lists(st.sampled_from(SPECIALS + (1.0, -1.0, 2.5)), min_size=1, max_size=40))
    @hypothesis.example([-0.0] + [0.0] * 20)
    @hypothesis.example([0.0] + [-0.0] * 20)
    def test_folds_are_python_max_and_min(self, row):
        assert repr(float(first_max(np.array(row)))) == repr(max(row))
        assert repr(float(first_min(np.array(row)))) == repr(min(row))


# ---------------------------------------------------------------------------
# Stacked verify: each instance, and the whole verdict, against the
# per-instance loop it replaced


def oracle_kraus_counts(d, k):
    return min((k % 4) + 1, d * d), min(((k // 4) % 4) + 1, d * d)


def oracle_instance(d, k, derived):
    """Instance k at dimension d and its invariance trial, built by the
    one-instance oracles from its derived seeds ``derived``, by part (0, 1, 2 and 4):
    ``(state, channel 1, channel 2, mixed channel 1, mixed channel 2)``."""
    state = DensityMatrix(d, *oracle_random_density(d, (k % d) + 1, derived[0]))
    channels, mixed = [], []
    for side, n in enumerate(oracle_kraus_counts(d, k), start=1):
        channel = KrausChannel(d, tuple(oracle_random_channel(d, n, Convention.COLUMN_SUM,
                                                              derived[side])),
                               Convention.COLUMN_SUM)
        u = oracle_haar_isometry(oracle_derive_seed(derived[4], 0, side), n, n)
        channels.append(channel)
        mixed.append(dataclasses.replace(channel, operators=tuple(oracle_mix_kraus(channel, u))))
    return state, *channels, *mixed


def oracle_verify_instance(d, k, args):
    """``(checks, invariance deviation)`` of instance k at dimension d, built alone."""
    derived = {part: oracle_derive_seed(args.seed, d, k, part) for part in (0, 1, 2, 4)}
    state, ch1, ch2, mixed1, mixed2 = oracle_instance(d, k, derived)
    data = alone(state, ch1, ch2)
    checks = oracle_verify_checks(data, args.tol)
    devs = oracle_invariance(data, [alone(state, mixed1, mixed2)])
    return checks, max(devs.values())


def oracle_cmd_verify(args):
    """The per-instance ``cmd_verify`` loop; returns the exit code."""
    dims = [int(v) for v in args.dims.split(",") if v.strip()]
    stats = {}
    invariance_worst = 0.0
    total = 0
    for d in dims:
        for k in range(args.instances):
            checks, deviation = oracle_verify_instance(d, k, args)
            for check in checks:
                entry = stats.setdefault(check.name, [0, 0, 0.0])
                entry[0] += 1
                entry[1] += 0 if check.passed else 1
                entry[2] = max(entry[2], check.deviation)
            invariance_worst = max(invariance_worst, deviation)
            total += 1
    hard_failures = sum(stats[name][1] for name in stats if name in HARD_CHECK_NAMES)
    if invariance_worst > args.tol:
        hard_failures += 1
    pairs = [("command", "verify"), ("dims", args.dims), ("instances_per_dim", args.instances),
             ("seed", args.seed), ("tol", args.tol), ("budget", 14400),
             ("instances_total", total)]
    for name in sorted(stats):
        count, failures, worst = stats[name]
        kind = "hard" if name in HARD_CHECK_NAMES else "soft"
        pairs.append((f"check.{name}.kind", kind))
        pairs.append((f"check.{name}.count", count))
        pairs.append((f"check.{name}.failures", failures))
        pairs.append((f"check.{name}.worst_deviation", worst))
    pairs.append(("invariance.kind", "hard"))
    pairs.append(("invariance.max_deviation", invariance_worst))
    pairs.append(("hard_failures", hard_failures))
    pairs.append(("hard_passed", hard_failures == 0))
    cli._write_report(args.out, pairs)
    return 0 if hard_failures == 0 else 1


def stage_fields(stage):
    """Every array of a stage, I values included, by name."""
    return {"sums": stage.sums, "products": stage.products, "cross_terms": stage.cross_terms,
            "i_values": stage.i_values,
            **{f"{field}[{reading.value}]": getattr(stage, field)[reading]
               for field in ("tables", "lattices") for reading in Reading}}


def assert_same_stage(got, want):
    got, want = stage_fields(got), stage_fields(want)
    assert list(got) == list(want)
    for name in got:
        assert same_bits(got[name], want[name]), name


def assert_matches_group_passes(stage, roots, ops1, ops2, counts):
    """Each (n1, n2) group's instances of a padded pass hold the bits of one
    unpadded ``chain_stage`` pass of the group alone, as ``_verify_chunk``
    built them before one pass held instances of several counts."""
    groups = {}
    for i, pair in enumerate(zip(*(np.asarray(n).tolist() for n in counts))):
        groups.setdefault(pair, []).append(i)
    for (n1, n2), group in groups.items():
        assert_same_stage(take(stage, group),
                          chain_stage(roots[group], ops1[group, :n1], ops2[group, :n2]))


class TestPaddedChunkStage:
    # a verify chunk is two passes, its instances and then their trials,
    # whose families are zero-padded to the chunk's largest count on each
    # side, with each instance's true counts
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_the_per_group_passes(self, d, seed):
        # 40 instances span all 16 (n1, n2) pairs, two or three of each
        passes = []
        real = cli.chain_stage

        def captured(*args):
            stage = real(*args)
            passes.append((args, stage))
            return stage

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(cli, "chain_stage", captured)
            cli._verify_chunk(d, range(40), argparse.Namespace(seed=seed, tol=1e-10))
        assert len(passes) == 2
        for args, stage in passes:
            assert len({pair for pair in zip(*(np.asarray(n).tolist() for n in args[3]))}) == 16
            assert_matches_group_passes(stage, *args)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), seed=st.integers(0, 2 ** 32),
           pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1,
                          max_size=12))
    def test_each_instance_matches_its_unpadded_stack_of_one(self, d, seed, pairs):
        # interleaved counts in any order, each instance bit for bit as alone
        pairs = [(min(n1, d * d), min(n2, d * d)) for n1, n2 in pairs]
        instances = [(random_density(d, (seed + b) % d + 1, seed + b),
                      random_channel(d, n1, Convention.COLUMN_SUM, seed + 100 + b),
                      random_channel(d, n2, Convention.ROW_SUM, seed + 200 + b))
                     for b, (n1, n2) in enumerate(pairs)]
        ops = [np.zeros((len(pairs), max(side), d, d), np.complex128) for side in zip(*pairs)]
        for b, (_, ch1, ch2) in enumerate(instances):
            ops[0][b, :ch1.n], ops[1][b, :ch2.n] = ch1.operators, ch2.operators
        stage = chain_stage(np.array([rho.sqrt_rho for rho, _, _ in instances]), *ops,
                            tuple(np.array(pairs).T))
        for b, instance in enumerate(instances):
            assert_same_stage(take(stage, [b]), object_stage(*map(list, zip(instance))))

    def test_a_genuine_zero_operator_counts(self):
        # a channel holding an all-zero Kraus operator keeps it in its count:
        # the as-printed step reads n2 a_sum + n1 b_sum with the declared n1
        d = 3
        rho = random_density(d, 2, 1)
        ch1, ch2 = random_channel(d, 2, seed=2), random_channel(d, 2, seed=3)
        with_zero = np.concatenate([np.array(ch1.operators), np.zeros((1, d, d))])
        # padded to the other instance's 4 operators, past the genuine zero
        other = random_channel(d, 4, seed=4)
        ops1 = np.stack([np.concatenate([with_zero, np.zeros((1, d, d))]), other.operators])
        ops2 = np.stack([np.array(ch2.operators)] * 2)
        stage = chain_stage(np.stack([rho.sqrt_rho] * 2), ops1, ops2, ([3, 4], [2, 2]))
        alone_with_zero = chain_stage(rho.sqrt_rho[None], with_zero[None], ops2[:1])
        assert_same_stage(take(stage, [0]), alone_with_zero)
        dropped = chain_stage(rho.sqrt_rho[None], with_zero[None, :2], ops2[:1])
        printed = stage.tables[Reading.AS_PRINTED][0]
        assert not same_bits(printed, dropped.tables[Reading.AS_PRINTED][0])
        # the zero operator's frame adds nothing, so only the n1 b_sum term moves
        frames = [skew.frame_stack(rho.sqrt_rho[None], ops[None])[0] for ops in (with_zero,
                                                                                 ops2[0])]
        b_sum = skew.column_norms_sq(frames[1]).sum(axis=0)
        gap = printed[1:] - dropped.tables[Reading.AS_PRINTED][0, 1:]
        np.testing.assert_allclose(gap.reshape(d, d), -np.broadcast_to(b_sum, (d, d)),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("counts, why", [
        (([0, 1], [1, 1]), "a count below 1"),
        (([3, 1], [1, 1]), "a count above the stack's"),
        (([1, 1], [1]), "one count too few"),
        (([1.0, 1.0], [1, 1]), "a float count"),
        (([1, 1], [1, 1]), "a nonzero operator past a count")])
    def test_bad_counts_raise(self, counts, why):
        rho = random_density(2, 2, 0)
        ops1 = np.stack([np.array(random_channel(2, 2, seed=s).operators) for s in (1, 2)])
        ops2 = np.stack([np.array(random_channel(2, 1, seed=s).operators) for s in (3, 4)])
        with pytest.raises(DimensionMismatchError, match="Kraus count"):
            chain_stage(np.stack([rho.sqrt_rho] * 2), ops1, ops2, counts)


class TestStackedVerify:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_each_instance_matches_alone(self, d):
        args = argparse.Namespace(seed=11, tol=1e-10)
        for ks in (range(0, 20), range(5, 38)):  # groups of one to three instances
            columns, deviations = cli._verify_chunk(d, ks, args)
            want = [oracle_verify_instance(d, k, args) for k in ks]
            assert [column_bits(columns, b) for b in range(len(ks))] == [
                check_bits(checks) for checks, _ in want]
            assert [repr(x) for x in deviations.tolist()] == [repr(x) for _, x in want]

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 5), start=st.integers(0, 200),
           seed=st.one_of(st.integers(0, 2 ** 32), st.integers(2 ** 64, 2 ** 80)))
    def test_chunk_builds_what_the_oracles_build(self, d, start, seed):
        # every state, channel and mixed family of 16 consecutive instances,
        # which take every (n1, n2) pair (a count is at most d^2) and mixed
        # ranks; each family zero-padded to the largest count on its side
        ks = range(start, start + 16)
        roots, families, mixed_families, counts = verify_instances(seed, d, ks)
        pairs = [oracle_kraus_counts(d, k) for k in ks]
        assert len(set(pairs)) == min(d * d, 4) ** 2
        assert [np.asarray(n).tolist() for n in counts] == [list(side) for side in zip(*pairs)]
        for ops in (families, mixed_families):
            assert [side.shape for side in ops] == [(16, max(n), d, d) for n in zip(*pairs)]
        for j, k in enumerate(ks):
            derived = {part: oracle_derive_seed(seed, d, k, part) for part in (0, 1, 2, 4)}
            state, *channels = oracle_instance(d, k, derived)
            assert same_bits(roots[j], state.sqrt_rho)
            for got, want in zip((*families, *mixed_families), channels):
                n = want.n
                assert same_bits(got[j, :n], np.array(want.operators))
                assert same_bits(got[j, n:], np.zeros_like(got[j, n:]))  # +0.0 only

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    @pytest.mark.parametrize("flags, block", [
        ([], None), ([], 2), (["--tol", "1e-18"], 5), (["--tol", "1e-18"], None)],
        ids=["defaults", "block2", "tol1e-18-block5", "tol1e-18"])
    def test_verdict_matches_per_instance_loop(self, tmp_path, monkeypatch, seed, flags, block):
        if block is not None:  # chunks of one and of two instances
            monkeypatch.setattr(cli, "_BLOCK", block)
        argv = ["verify", "--dims", "1,2,3,4,5", "--instances", "18", "--seed", str(seed),
                *flags]
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        code = cli.main(argv + ["--out", str(got)])
        assert code == oracle_cmd_verify(cli.build_parser().parse_args(argv + ["--out", str(want)]))
        assert got.read_bytes() == want.read_bytes()
        if "1e-18" in flags:
            assert code == 1

    @pytest.mark.parametrize("name, value", [("_BLOCK", 4), ("CHUNK_ENTRIES", 2)])
    def test_passes_hold_at_most_a_block(self, tmp_path, monkeypatch, name, value):
        monkeypatch.setattr(cli, name, value)  # either makes chunks of two instances
        sizes = []
        real = chains.chain_stage

        def counted(roots, ops1, ops2, counts):
            sizes.append(len(roots))
            return real(roots, ops1, ops2, counts)

        monkeypatch.setattr(cli, "chain_stage", counted)
        # two passes per chunk of two instances: the instances, then their trials
        assert cli.main(["verify", "--dims", "1", "--instances", "9",
                         "--out", str(tmp_path / "v.txt")]) == 0
        assert sizes == [2, 2, 2, 2, 2, 2, 2, 2, 1, 1]

    def test_fold_keeps_python_order_on_special_deviations(self, tmp_path, monkeypatch):
        # real verdicts carry no NaN or -0.0 deviation, so write some in, on
        # both sides alike, keyed by each instance's place in the run: both
        # take the dimensions in order and each one's instances in order
        def special(counter):
            place = len(counter)
            counter.append(place)
            return (place % len(SPECIALS + (1.0,)), SPECIALS[place % len(SPECIALS)])

        real_columns = cli.verdict_columns
        got_places = []

        def columns_with_specials(stage, tol):
            columns = real_columns(stage, tol)
            deviation = columns.deviation.copy()
            for b in range(len(deviation)):
                column, value = special(got_places)
                deviation[b, column % deviation.shape[1]] = value
            return dataclasses.replace(columns, deviation=deviation)

        real_oracle = oracle_verify_checks
        want_places = []

        def oracle_with_specials(data, tol):
            checks = real_oracle(data, tol)
            column, value = special(want_places)
            checks[column % len(checks)] = checks[column % len(checks)]._replace(deviation=value)
            return checks

        monkeypatch.setattr(cli, "verdict_columns", columns_with_specials)
        monkeypatch.setattr(sys.modules[__name__], "oracle_verify_checks", oracle_with_specials)
        argv = ["verify", "--dims", "1,2,3", "--instances", "20", "--seed", "2"]
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        code = cli.main(argv + ["--out", str(got)])
        assert code == oracle_cmd_verify(cli.build_parser().parse_args(argv + ["--out", str(want)]))
        assert got.read_bytes() == want.read_bytes()
        assert "nan" not in got.read_text()  # the fold from 0.0 skips NaN, as max does
        assert len(got_places) == len(want_places) == 3 * 20

    def test_builds_nothing_per_instance(self, tmp_path, monkeypatch):
        # the chunk's seeds come from one hash pass and its checks are
        # columns: no SeedSequence, no int-seeded PCG64, no one-instance verdict
        def refuse(*args, **kwargs):
            raise AssertionError("built per instance")

        real_pcg64 = np.random.PCG64

        def pcg64(seed):
            if not isinstance(seed, np.random.bit_generator.ISeedSequence):
                raise AssertionError("PCG64 hashed its own seed")
            return real_pcg64(seed)

        argv = ["verify", "--dims", "1,2,3", "--instances", "9"]
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        with monkeypatch.context() as patched:
            patched.setattr(np.random, "SeedSequence", refuse)
            patched.setattr(np.random, "PCG64", pcg64)
            patched.setattr(chains, "verify_chain", refuse)
            code = cli.main(argv + ["--out", str(got)])
        assert code == 0
        assert code == oracle_cmd_verify(cli.build_parser().parse_args(argv + ["--out", str(want)]))
        assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# Columnar discrepancy report: the row-wise report, the scalar closed forms and
# the per-value CSV writers it replaced


def oracle_closed_forms(theta, p, q):
    root_tt = math.sqrt(theta * (1.0 - theta))
    w4 = (math.sqrt(1.0 - theta) - math.sqrt(theta)) ** 4
    w2 = (1.0 - 2.0 * root_tt) ** 2
    sp, sq = math.sqrt(1.0 - p), math.sqrt(1.0 - q)
    eq20 = 0.25 * w4 * (1.0 - sp) * (1.0 - sq)
    eq21 = (2.0 * root_tt - 1.0) * (sp + sq - 2.0)
    eq22 = 0.125 * w4 * (1.0 - sp) * (1.0 - sq) ** 2
    eq23 = (1.0 / 32.0) * w2 * (sp - 1.0) * (q + 8.0 * sq - 8.0)
    eq24 = (1.0 / 256.0) * (4.0 * theta ** 2 - 4.0 * theta + 4.0 * root_tt - 1.0) * (
        p * (q + 2.0 * sq - 2.0) - 8.0 * (sp - 1.0) * (2.0 * q + 9.0 * sq - 9.0))
    eq25 = ((3.0 * q / 256.0) * w4 * (sp - 1.0) ** 2
            + (1.0 / 16.0) * w2 * (sp - 1.0) ** 2 * (sq - 1.0) ** 2
            + (p / 16.0) * w2 * (sq - 1.0) ** 2
            + (q / 16.0) * w2 * (sp - 1.0) ** 2
            + (q * math.sqrt(p) / 256.0) * w2 * (4.0 * sp + 3.0 * math.sqrt(p) - 4.0))
    return eq20, eq21, eq22, eq23, eq24, eq25


def oracle_row(formula, params, numeric, printed):
    """A report row ``(formula, params, numeric, printed, abs_dev, rel_dev, ratio)``."""
    abs_dev = abs(numeric - printed)
    scale = max(abs(numeric), abs(printed))
    return (formula, params, numeric, printed, abs_dev,
            abs_dev / scale if scale > 0.0 else 0.0,
            printed / numeric if abs(numeric) > 1e-15 else float("nan"))


def oracle_chain_targets(params):
    """Each (theta, p, q) point's product-reading (product, sum, cross term,
    S21, S31, S32), read from the columns of stages of the points' objects,
    in passes of ``example._BLOCK`` points."""
    targets = []
    for start in range(0, len(params), example._BLOCK):
        block = params[start:start + example._BLOCK]
        pairs = [example.example_channels(p, q) for _, p, q in block]
        stage = object_stage([example.rho_theta(theta) for theta, _, _ in block],
                             [n1 for n1, _ in pairs], [n2 for _, n2 in pairs])
        lattices = stage.lattices[Reading.PRODUCT][:, :3]  # (2, 1), (3, 1), (3, 2)
        targets += zip(stage.products.tolist(), stage.sums.tolist(),
                       stage.cross_terms.tolist(), *lattices.T.tolist())
    return targets


def oracle_discrepancy_report(params):
    """``(rows, fitted ratios)`` of the row-wise report."""
    params = list(params)
    rows = []
    ratios = {name: [] for name in example._FORM_NAMES}
    for pt, values in zip(params, oracle_chain_targets(params)):
        forms = oracle_closed_forms(*pt)
        for name, numeric, printed in zip(example._FORM_NAMES, values, forms):
            row = oracle_row(name, pt, numeric, printed)
            rows.append(row)
            if not math.isnan(row[-1]):
                ratios[name].append(row[-1])
    fitted = {}
    for name, values in ratios.items():
        if values:
            lo, hi = min(values), max(values)
            mid = (lo + hi) / 2.0
            if abs(hi - lo) <= 1e-6 * max(abs(mid), 1e-12):
                fitted[name] = mid
    return rows, fitted


def oracle_fmt(x):
    return format(float(x) + 0.0, ".12g")


def oracle_discrepancy_csv(rows, fitted):
    """The per-value writer over ``(formula, (theta, p, q), numeric, printed,
    abs_dev, rel_dev, ratio)`` rows."""
    lines = ["formula,theta,p,q,numeric,printed,abs_dev,rel_dev,ratio,fitted_ratio"]
    fitted = {name: oracle_fmt(v) for name, v in fitted.items()}
    for formula, pt, numeric, printed, abs_dev, rel_dev, ratio in rows:
        lines.append(",".join([
            formula, ",".join(oracle_fmt(v) for v in pt), oracle_fmt(numeric),
            oracle_fmt(printed), oracle_fmt(abs_dev), oracle_fmt(rel_dev),
            "" if math.isnan(ratio) else oracle_fmt(ratio), fitted.get(formula, "")]))
    return "\n".join(lines) + "\n"


def oracle_sweep_csv(table):
    lines = [example.CSV_HEADER]
    for row in table.columns.tolist():
        lines.append(",".join(oracle_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def per_line_discrepancy_csv(report):
    """The discrepancy CSV with one ``%`` template per line, each point's text
    formatted once: the writer that the block writer replaced."""
    lines = ["formula,theta,p,q,numeric,printed,abs_dev,rel_dev,ratio,fitted_ratio"]
    templates = []
    for name in example._FORM_NAMES:
        fitted = "%.12g" % (report.fitted_ratios[name] + 0.0) \
            if name in report.fitted_ratios else ""
        templates.append((f"{name},%s,{'%.12g,' * 5}{fitted}",
                          f"{name},%s,{'%.12g,' * 4}%.0s,{fitted}"))
    grid = np.asarray(report.params, dtype=float) + 0.0
    points = ["%.12g,%.12g,%.12g" % tuple(v) for v in grid.tolist()]
    values = np.stack([report.numeric, report.printed, report.abs_dev, report.rel_dev,
                       report.ratio], axis=-1) + 0.0
    nans = np.isnan(report.ratio)
    for point, rows, flags in zip(points, values.tolist(), nans.tolist()):
        lines += [template[nan] % (point, *v) for template, nan, v in zip(templates, flags, rows)]
    return "\n".join(lines) + "\n"


def row_bits(row):
    formula, params, *values = row
    return formula, params, np.array(values).tobytes()


def report_rows(report):
    """``(formula, (theta, p, q), numeric, printed, abs_dev, rel_dev, ratio)``
    per point and formula, read from the report's arrays: row i is point i,
    and columns 0..5 are eq20..eq25."""
    columns = (report.numeric, report.printed, report.abs_dev, report.rel_dev, report.ratio)
    return [(name, tuple(report.params[i].tolist()), *(c[i, j].item() for c in columns))
            for i in range(len(report.params)) for j, name in enumerate(example._FORM_NAMES)]


# Every binade, both zeros, both infinities, NaN, subnormals and values that
# round at the twelfth digit.
FORMAT_CORPUS = sorted(
    {x for e in range(-1074, 1024) for x in (2.0 ** e, -(2.0 ** e), 1.7 * 2.0 ** e)}
    | {0.0, 5e-324, 2.5e-323, 2.2250738585072009e-308, 1.7976931348623157e308,
       0.1234567890125, 0.12345678901249999, 999999999999.5, 1e16, 1 - 2 ** -53, 1 / 3})
FORMAT_CORPUS = (FORMAT_CORPUS + [-0.0, float("inf"), -float("inf"), float("nan")]
                 + [-x for x in FORMAT_CORPUS[:50]])
UNIT_CORPUS = [x for x in FORMAT_CORPUS if 0.0 <= x <= 1.0]  # legal grid parameters

special_units = st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1 - 2 ** -53])
units = st.floats(0.0, 1.0) | special_units


class TestColumnarReport:
    @pytest.mark.parametrize("block", [None, 5])
    def test_report_matches_row_wise_oracle(self, monkeypatch, tmp_path, block):
        if block is not None:  # several passes, the last one partial
            monkeypatch.setattr(example, "_BLOCK", block)
        values = (0.0, 0.5, 1.0, 0.3, 5e-324, 1 - 2 ** -53)
        grid = list(itertools.product(values, repeat=3))
        grid += grid[:9]  # duplicate points
        np.random.default_rng(5).shuffle(grid)  # not theta-major
        report = example.discrepancy_report(grid)
        rows, fitted = oracle_discrepancy_report(grid)
        assert [row_bits(r) for r in report_rows(report)] == [row_bits(r) for r in rows]
        assert report.fitted_ratios == fitted and set(fitted) == {"eq20", "eq21", "eq22", "eq23"}
        assert same_bits(list(report.fitted_ratios.values()), list(fitted.values()))
        path = tmp_path / "disc.csv"
        example.write_discrepancy_csv(report, path)
        assert path.read_text() == oracle_discrepancy_csv(rows, fitted)

    @pytest.mark.parametrize("block", [None, 5])
    def test_stage_targets_match_object_stages(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(example, "_BLOCK", block)
        grid = list(itertools.product((0.0, 0.2, 0.5, 0.9, 1.0), (0.0, 0.35, 1.0),
                                      (0.1, 0.5, 1.0)))
        targets = example.discrepancy_report(grid).numeric
        assert same_bits(targets, np.array(oracle_chain_targets(grid)))

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(units, units, units), min_size=1, max_size=40))
    def test_closed_form_columns_match_scalar_forms(self, points):
        columns = example._form_columns(*zip(*points))
        assert same_bits(columns, np.array([oracle_closed_forms(*pt) for pt in points]))
        theta, p, q = points[0]
        forms = example.closed_forms(theta, p, q)
        assert list(forms) == ["eq20", "eq21", "eq22", "eq23", "eq24", "eq25"]
        assert same_bits(list(forms.values()), oracle_closed_forms(theta, p, q))

    def test_closed_form_columns_on_random_and_special_points(self):
        # x * x and libm pow(x, 2) differ in the last bit for about 1 uniform x in 1 200
        points = np.random.default_rng(9).random((20000, 3)).tolist()
        points += itertools.product([0.0, 0.5, 1.0, 5e-324, 1 - 2 ** -53, 2 ** -53, 0.3],
                                    repeat=3)
        assert same_bits(example._form_columns(*zip(*points)),
                         np.array([oracle_closed_forms(*pt) for pt in points]))

    @pytest.mark.parametrize("block", [None, 5])
    def test_block_writer_matches_the_per_line_writer(self, monkeypatch, tmp_path, block):
        # one % per block of lines against one % per line, on a worked
        # report (NaN ratios at theta = 1/2 and at p or q = 0, fitted ratios)
        # and on a corpus report (NaN, -0.0 and infinite values and fits)
        if block is not None:
            monkeypatch.setattr(example, "_BLOCK", block)
        grid = list(itertools.product((0.5, 1.0, 0.25), (0.0, 0.5, 1.0), (1.0, 0.0, 0.3)))
        rng = np.random.default_rng(8)
        count = 2 * 5 + 3  # a partial last block
        params = rng.choice(UNIT_CORPUS, (count, 3))
        numeric, printed, abs_dev, rel_dev, ratio = rng.choice(FORMAT_CORPUS, (5, count, 6))
        ratio[rng.random(ratio.shape) < 0.3] = float("nan")
        params[0], numeric[0, :4] = (-0.0, 0.0, 1.0), (-0.0, math.inf, -math.inf, math.nan)
        fitted = {"eq20": -0.0, "eq21": float("nan"), "eq23": 1e-300, "eq25": float("inf")}
        for report in (example.discrepancy_report(grid),
                       example.DiscrepancyReport(params, numeric, printed, abs_dev, rel_dev,
                                                 ratio, fitted)):
            assert np.isnan(report.ratio).any() and not np.isnan(report.ratio).all()
            assert report.fitted_ratios
            example.write_discrepancy_csv(report, tmp_path / "disc.csv")
            assert (tmp_path / "disc.csv").read_text() == per_line_discrepancy_csv(report)

    def test_writers_match_per_value_writers_on_the_corpus(self, tmp_path):
        values = itertools.cycle(FORMAT_CORPUS)
        unit_values = itertools.cycle(UNIT_CORPUS)
        fields = len(example.CSV_HEADER.split(","))
        count = len(FORMAT_CORPUS) // fields + 1
        columns = np.array([next(values) for _ in range(count * fields)]).reshape(count, fields)
        table = example.SweepTable(columns=columns)
        assert np.isnan(columns).any() and (np.signbit(columns) & (columns == 0.0)).any()
        example.write_sweep_csv(table, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_text() == oracle_sweep_csv(table)

        count = len(FORMAT_CORPUS) // 30 + 1
        params = np.array([next(unit_values) for _ in range(count * 3)]).reshape(count, 3)
        numeric, printed, abs_dev, rel_dev, ratio = np.array(
            [next(values) for _ in range(count * 30)]).reshape(5, count, 6)
        fitted = {"eq20": -0.0, "eq22": 5e-324, "eq23": 1.0000000000005, "eq25": float("inf")}
        report = example.DiscrepancyReport(params, numeric, printed, abs_dev, rel_dev, ratio,
                                           fitted)
        assert np.isnan(ratio).any() and not np.isnan(ratio).all()
        example.write_discrepancy_csv(report, tmp_path / "disc.csv")
        assert (tmp_path / "disc.csv").read_text() == oracle_discrepancy_csv(
            report_rows(report), fitted)
