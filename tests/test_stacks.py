"""Differential tests of the stacked validators and the stacked optimizer.

Each stacked kernel is checked with ``==`` on the bits against the
per-instance code it replaced, which is kept below as oracles.  A bad stack
must raise the error type and message that its first failing instance raises
on its own.
"""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewchain import chains, example
from skewchain.chains import Reading, Strategy, chain_batch, lattice_order, optimize_batch
from skewchain.errors import (
    BudgetError,
    CompletenessError,
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
)
from skewchain.linalg import (
    as_matrix,
    hermitian_eigendecompose,
    hermiticity_defect,
    max_abs,
    psd_sqrt,
    require_square,
)
from skewchain.objects import (
    Convention,
    completeness_residual,
    generator,
    random_channel,
    random_density,
    random_unitary,
    validate_channel,
    validate_channels,
    validate_densities,
    validate_density,
)

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


def oracle_eigendecompose(m, hermiticity_tol):
    arr = as_matrix(m)
    require_square(arr)
    defect = hermiticity_defect(arr)
    if defect > hermiticity_tol:
        raise NotHermitianError(defect, hermiticity_tol)
    herm = (arr + arr.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    v = oracle_fix_phases(v)
    d = arr.shape[0]
    if max_abs(v.conj().T @ v - np.eye(d)) > 1e-10:
        raise ConvergenceError("eigenvector matrix is not unitary to 1e-10")
    if max_abs((v * w) @ v.conj().T - herm) > 1e-10:
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
    defect = hermiticity_defect(arr)
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
    return max_abs(acc - np.eye(d))


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


def oracle_exhaustive(tables, d, p, q, reading):
    taus = list(itertools.permutations(range(d), p - 1))
    sigmas = sorted(taus, key=lambda prefix: (oracle_rest(prefix, d)[0], prefix))
    rows = np.array(sigmas, dtype=np.intp)
    cols = np.array(taus, dtype=np.intp)
    sigma = [None] + [rows[:, k, None] for k in range(p - 1)]
    tau = [cols[None, :, k] for k in range(p - 1)]
    values = oracle_value_at(tables, reading, sigma, tau, p, q, d)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    rest = oracle_rest(sigmas[i], d)
    sig = (rest[0], *sigmas[i], *rest[1:])
    tu = (*taus[j], *oracle_rest(taus[j], d))
    return float(values[i, j]), sig, tu


def oracle_sampled(tables, d, p, q, budget, seed, reading):
    def value(sig, tu):
        return float(oracle_value_at(tables, reading, sig, tu, p, q, d))

    gen = generator(seed)
    ident = tuple(range(d))
    best = (value(ident, ident), ident, ident)
    for _ in range(max(0, budget)):
        sig = tuple(int(x) for x in gen.permutation(d))
        tu = tuple(int(x) for x in gen.permutation(d))
        v = value(sig, tu)
        if v > best[0]:
            best = (v, sig, tu)
    improved = True
    while improved:
        improved = False
        _, sig, tu = best
        for k in range(d - 1):
            cand = list(sig)
            cand[k], cand[k + 1] = cand[k + 1], cand[k]
            v = value(tuple(cand), tu)
            if v > best[0]:
                best = (v, tuple(cand), tu)
                improved = True
        _, sig, tu = best
        for k in range(d - 1):
            cand = list(tu)
            cand[k], cand[k + 1] = cand[k + 1], cand[k]
            v = value(sig, tuple(cand))
            if v > best[0]:
                best = (v, sig, tuple(cand))
                improved = True
    return best


def oracle_optimize(data, p, q, strategy, budget, seed, reading):
    """``(value, sigma, tau)`` of one instance's permutation optimum."""
    d = data.dim
    n_pairs = math.perm(d, p - 1) ** 2
    if strategy is None:
        strategy = Strategy.EXHAUSTIVE if n_pairs <= budget else Strategy.SAMPLED
    if Strategy(strategy) == Strategy.EXHAUSTIVE:
        if n_pairs > budget:
            raise BudgetError(f"exhaustive search at (p, q) = ({p}, {q}) needs "
                              f"{n_pairs} prefix pairs > budget {budget}", n_pairs, budget)
        return oracle_exhaustive(data.tables, d, p, q, reading)
    return oracle_sampled(data.tables, d, p, q, budget, seed, reading)


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
        got = validate_densities(np.array(ms), tol=TOL)
        assert len(got) == len(ms)
        for m, dm in zip(ms, got):
            rho, sqrt = oracle_validate_density(m, TOL)
            assert dm.dim == d and dm.validation_tol == TOL
            assert same_bits(dm.rho, rho) and same_bits(dm.sqrt_rho, sqrt)
            alone = validate_density(m, tol=TOL)
            assert same_bits(alone.rho, rho) and same_bits(alone.sqrt_rho, sqrt)
            assert same_bits(psd_sqrt(m, tol=TOL), sqrt)
            w, v = oracle_eigendecompose(m, TOL)
            eig = hermitian_eigendecompose(m, hermiticity_tol=TOL)
            assert same_bits(eig.eigenvalues, w) and same_bits(eig.eigenvectors, v)

    def test_near_singular_spectra_reach_the_clamp(self):
        m = make_state(6, "near_singular", 3)
        assert hermitian_eigendecompose(m).eigenvalues[0] < 0.0
        (dm,) = validate_densities([m])
        assert same_bits(dm.sqrt_rho, oracle_psd_sqrt(m, TOL))

    def test_the_worked_example_states(self):
        thetas = [0.0, 0.25, 0.5, 1.0]
        for theta, dm in zip(thetas, example.rho_thetas(thetas)):
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
            validate_densities(np.array(ms), tol=TOL)
        else:
            assert raised(validate_densities, np.array(ms), TOL) == expected

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["nan", "not_hermitian", "trace", "not_psd"])
    def test_each_state_is_checked(self, bad, defect):
        ms = [make_state(3, "gaussian", seed) for seed in range(3)]
        ms[bad] = self.spoil(ms[bad], defect, 1)
        assert raised(validate_densities, np.array(ms), TOL) == \
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
        assert raised(validate_densities, np.array(ms), TOL) == expected
        assert raised(validate_densities, np.array(ms[2:]), TOL) == \
            first_failure(oracle_validate_density, ms[2:], TOL)

    def test_mixed_shapes(self):
        good2, good3 = make_state(2, "gaussian", 1), make_state(3, "gaussian", 2)
        bad3 = self.spoil(good3, "trace", 0)
        assert raised(validate_densities, [good2, bad3], TOL) == \
            first_failure(oracle_validate_density, [good2, bad3], TOL)
        assert raised(validate_densities, [good2, good3], TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")
        not_square = np.ones((2, 2, 3)) / 2
        assert raised(validate_densities, not_square, TOL) == \
            first_failure(oracle_validate_density, not_square, TOL)
        assert validate_densities([], TOL) == []


class TestChannelStacks:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), data=st.data())
    def test_match_oracle(self, d, data):
        n = data.draw(st.just(d * d) | st.integers(1, d * d))
        convention = data.draw(st.sampled_from(list(Convention)))
        seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5))
        families = [make_family(d, n, convention, seed) for seed in seeds]
        got = validate_channels(np.array(families), convention, TOL)
        assert len(got) == len(families)
        for family, channel in zip(families, got):
            ops = oracle_validate_channel(family, convention, TOL)
            assert (channel.dim, channel.n, channel.convention, channel.completeness_tol) \
                == (d, n, convention, TOL)
            assert all(same_bits(a, b) for a, b in zip(channel.operators, ops))
            alone = validate_channel(family, convention, TOL)
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
            validate_channels(families, convention, TOL)
        else:
            assert raised(validate_channels, families, convention, TOL) == expected

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("convention", list(Convention))
    def test_each_family_is_checked(self, bad, convention):
        families = [make_family(3, 4, convention, seed) for seed in range(3)]
        families[bad] = self.spoil(families[bad], "incomplete", 0)
        assert raised(validate_channels, np.array(families), convention, TOL) == \
            first_failure(oracle_validate_channel, families, convention, TOL)

    def test_mixed_shapes_across_families(self):
        a = make_family(2, 2, Convention.COLUMN_SUM, 1)
        b = make_family(3, 2, Convention.COLUMN_SUM, 2)
        assert raised(validate_channels, [a, b], Convention.COLUMN_SUM, TOL) == (
            DimensionMismatchError, "the instances of a stack must share one shape")
        assert validate_channels([], Convention.COLUMN_SUM, TOL) == []

    def test_the_worked_example_channels(self):
        points = list(itertools.product([0.0, 0.5, 1.0, 0.3], repeat=2))
        for (p, q), (n1, n2) in zip(points, example.example_channel_pairs(points)):
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


def random_block(d, count, seed, convention=Convention.COLUMN_SUM):
    """``chain_batch`` data of ``count`` seeded same-shape instances."""
    n1, n2 = (seed % 3) + 1, ((seed // 3) % 3) + 1
    rhos = [random_density(d, (seed + b) % d + 1, seed + b) for b in range(count)]
    ch1s = [random_channel(d, n1, convention, seed + 100 + b) for b in range(count)]
    ch2s = [random_channel(d, n2, convention, seed + 200 + b) for b in range(count)]
    return chain_batch(rhos, ch1s, ch2s)


def found(best):
    return best.value, best.sigma, best.tau


class TestOptimizeBatch:
    @pytest.mark.parametrize("reading", list(Reading))
    @pytest.mark.parametrize("target", [(2, 1), (3, 1), (4, 2)])
    def test_deeper_targets_at_d4(self, reading, target):
        datas = random_block(4, 5, 17)
        bests = optimize_batch(datas, *target, Strategy.EXHAUSTIVE, reading=reading)
        for data, best in zip(datas, bests):
            assert (best.p, best.q) == target
            assert found(best) == oracle_optimize(data, *target, Strategy.EXHAUSTIVE,
                                                  14400, 0, reading)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 4), count=st.integers(1, 5), seed=st.integers(0, 2 ** 20),
           reading=st.sampled_from(list(Reading)), data=st.data())
    def test_random_stacks(self, d, count, seed, reading, data):
        p, q = data.draw(st.sampled_from(lattice_order(d)))
        datas = random_block(d, count, seed, data.draw(st.sampled_from(list(Convention))))
        bests = optimize_batch(datas, p, q, None, reading=reading)
        assert [found(best) for best in bests] == [
            oracle_optimize(x, p, q, None, 14400, 0, reading) for x in datas]

    @pytest.mark.parametrize("reading", list(Reading))
    @pytest.mark.parametrize("target", [(2, 1), (3, 1), (4, 2)])
    def test_worked_example_ties_in_split_blocks(self, monkeypatch, reading, target):
        # theta = 1/2 makes every candidate 0.0, so only the tie-break decides
        monkeypatch.setattr(example, "_BLOCK", 5)
        calls = []
        real = chains._optimize

        def counted(rows, *args):
            calls.append(len(rows))
            return real(rows, *args)

        monkeypatch.setattr(chains, "_optimize", counted)
        grid = [0.0, 0.5, 1.0]
        table = example.sweep(grid, grid, grid, reading=reading, perm_target=target)
        assert calls == [5, 4] * 3  # one search per chain block of 9 points per theta
        for row in table.rows:
            rho = example.rho_theta(row.params.theta)
            n1, n2 = example.example_channels(row.params.p, row.params.q)
            data = chain_batch([rho], [n1], [n2])[0]
            value, _, _ = oracle_optimize(data, *target, None, 14400, 0, reading)
            assert row.perm_opt == value
        datas = chain_batch([example.rho_theta(0.5)] * 9,
                            *zip(*example.example_channel_pairs(itertools.product(grid, grid))))
        for data, best in zip(datas, optimize_batch(datas, *target, reading=reading)):
            assert found(best) == oracle_optimize(data, *target, None, 14400, 0, reading)

    def test_exhaustive_over_budget_raises_as_alone(self):
        datas = random_block(4, 3, 5)
        with pytest.raises(BudgetError) as info:
            optimize_batch(datas, 3, 1, Strategy.EXHAUSTIVE, budget=100)
        with pytest.raises(BudgetError) as alone:
            oracle_optimize(datas[0], 3, 1, Strategy.EXHAUSTIVE, 100, 0, Reading.PRODUCT)
        assert str(info.value) == str(alone.value)
        assert (info.value.needed, info.value.budget) == (144, 100)

    @pytest.mark.parametrize("reading", list(Reading))
    def test_sampled_matches_for_a_fixed_seed(self, reading):
        datas = random_block(4, 4, 23)
        for strategy, budget in ((Strategy.SAMPLED, 50), (None, 100)):  # auto samples over budget
            bests = optimize_batch(datas, 3, 2, strategy, budget, seed=5, reading=reading)
            assert [found(best) for best in bests] == [
                oracle_optimize(x, 3, 2, strategy, budget, 5, reading) for x in datas]

    def test_one_search_needs_one_dimension(self):
        with pytest.raises(DimensionMismatchError):
            optimize_batch(random_block(2, 1, 1) + random_block(3, 1, 1), 2, 1)
