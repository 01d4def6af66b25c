import dis
import gc
import itertools
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewchain import chains
from skewchain.chains import (
    HARD_CHECK_NAMES,
    Reading,
    chain_stage,
    compute_chain,
    invariance_columns,
    kraus_invariance_check,
    lattice_order,
    mixed_columns,
    optimize_batch,
    permute_s,
    sum_transfer,
    verdict_columns,
    _mod_sq,
)
from skewchain.errors import DimensionMismatchError
from skewchain.example import example_channels, rho_theta
from skewchain.objects import (
    Convention,
    channel_stack,
    density_stack,
    derive_seed,
    mix_kraus,
    mix_kraus_families,
    random_channel,
    random_density,
    random_unitary,
    seeding_words,
    unitaries_from_words,
    validate_channel,
    validate_density,
)
from skewchain.linalg import DEFAULT_TOL, first_max
from skewchain.skew import column_norms_sq, frame_stack, skew_info_channel

# ---------------------------------------------------------------------------
# Brute-force oracles, written directly from the definitions with raw loops.


def frame_columns(dm, ops):
    """The frame ``[sqrt(rho), K]`` of each operator, one matrix product pair each."""
    s = dm.sqrt_rho
    return [s @ k - k @ s for k in ops]


def hs_inner(a, b):
    """``Tr(A^dag B)``, each part summed exactly, so no evaluation order shows."""
    prod = (a.conj() * b).ravel()
    return complex(math.fsum(prod.real.tolist()), math.fsum(prod.imag.tolist()))


def test_worked_example_cross_inner_product():
    # <[sqrt(rho), E1], [sqrt(rho), F1]> at theta=1, p=q=1/2
    rho = rho_theta(1.0)
    e1 = np.diag([1, math.sqrt(0.5), 1, math.sqrt(0.5)]).astype(complex)
    f1 = np.diag([math.sqrt(0.5), 1, math.sqrt(0.5), 1]).astype(complex)
    (e,), (f,) = frame_columns(rho, [e1]), frame_columns(rho, [f1])
    value = hs_inner(e, f)
    assert value.real == pytest.approx(-0.04289321881345245, abs=1e-10)
    assert value.imag == pytest.approx(0.0, abs=1e-14)


def oracle_cross_term(dm, ch1, ch2):
    total = 0.0
    for e in frame_columns(dm, ch1.operators):
        for f in frame_columns(dm, ch2.operators):
            total += 0.25 * abs(hs_inner(e, f)) ** 2
    return total


def oracle_i_m(dm, ch1, ch2, m):
    """I_m from scratch: stack the first m columns, take plain numpy norms."""
    d = dm.dim
    total = 0.0
    for ce in frame_columns(dm, ch1.operators):
        for cf in frame_columns(dm, ch2.operators):
            em = ce[:, :m].ravel(order="F")
            emc = ce[:, m:].ravel(order="F")
            fm = cf[:, :m].ravel(order="F")
            fmc = cf[:, m:].ravel(order="F")
            total += 0.25 * (abs(np.vdot(em, fm)) ** 2
                             + np.vdot(em, em).real * np.vdot(fmc, fmc).real
                             + np.vdot(emc, emc).real
                             * (np.vdot(fm, fm).real + np.vdot(fmc, fmc).real))
    return total


def oracle_s_product(dm, ch1, ch2):
    """Product-reading lattice values via an independent per-pair recursion."""
    d = dm.dim
    out = {key: 0.0 for key in lattice_order(d)}
    for ce in frame_columns(dm, ch1.operators):
        for cf in frame_columns(dm, ch2.operators):
            a = [np.vdot(ce[:, k], ce[:, k]).real for k in range(d)]
            b = [np.vdot(cf[:, k], cf[:, k]).real for k in range(d)]
            c = [np.vdot(ce[:, k], cf[:, k]) for k in range(d)]
            s = 0.25 * sum(a) * sum(b)
            for (p, q) in lattice_order(d):
                r, t = p - 1, q - 1
                s -= 0.25 * (a[r] * b[t] + a[t] * b[r] - 2 * (c[t].conjugate() * c[r]).real)
                if q == 1:
                    s -= 0.25 * (a[r] * b[r] - abs(c[r]) ** 2)
                if (p, q) == (2, 1):
                    s -= 0.25 * (a[0] * b[0] - abs(c[0]) ** 2)
                out[(p, q)] += s
    return out


def oracle_s_printed(dm, ch1, ch2):
    """As-printed lattice values: subtract a_p + b_q, add |c_p + c_q|^2."""
    d = dm.dim
    out = {key: 0.0 for key in lattice_order(d)}
    for ce in frame_columns(dm, ch1.operators):
        for cf in frame_columns(dm, ch2.operators):
            a = [np.vdot(ce[:, k], ce[:, k]).real for k in range(d)]
            b = [np.vdot(cf[:, k], cf[:, k]).real for k in range(d)]
            c = [np.vdot(ce[:, k], cf[:, k]) for k in range(d)]
            s = 0.25 * sum(a) * sum(b)
            for (p, q) in lattice_order(d):
                r, t = p - 1, q - 1
                s = s - (a[r] + b[t]) + abs(c[r] + c[t]) ** 2
                out[(p, q)] += s
    return out


def oracle_optimum(rho, ch1, ch2, reading):
    """Exhaustive permutation search at (2, 1): all (d!)^2 pairs in
    lexicographic order, first maximum kept.  The optimizer's exact search must reproduce it bit for bit."""
    stage = object_stage([rho], [ch1], [ch2])
    best = None
    for sig in itertools.permutations(range(rho.dim)):
        for tu in itertools.permutations(range(rho.dim)):
            (v,) = permute_s(stage, sig, tu, 2, 1, reading).tolist()
            if best is None or v > best[0]:
                best = (v, sig, tu)
    return best


@dataclass(frozen=True)
class Columns:
    """One instance's column arrays, as the oracles below build them."""

    dim: int
    e_norms: np.ndarray
    f_norms: np.ndarray
    overlaps: np.ndarray

    @property
    def n1(self):
        return self.e_norms.shape[0]

    @property
    def n2(self):
        return self.f_norms.shape[0]


# Per-pair loop forms of the kernels in skew.py and chains.py.  The kernels
# must reproduce them bit for bit: the byte-identity of every report rests on
# it.  The frames come from ``frame_columns``, two matrix products per
# operator, so no oracle runs the kernel it checks.


def loop_chain_data(rho, ch1, ch2):
    e_frames = frame_columns(rho, ch1.operators)
    f_frames = frame_columns(rho, ch2.operators)
    e_norms = np.stack([np.einsum("ij,ij->j", e.conj(), e).real for e in e_frames])
    f_norms = np.stack([np.einsum("ij,ij->j", f.conj(), f).real for f in f_frames])
    overlaps = np.stack([
        np.stack([np.einsum("ij,ij->j", e.conj(), f) for f in f_frames])
        for e in e_frames])
    return Columns(dim=rho.dim, e_norms=e_norms, f_norms=f_norms, overlaps=overlaps)


def loop_skews(data):
    return tuple(0.5 * math.fsum(norms[i, k] for i in range(len(norms)) for k in range(data.dim))
                 for norms in (data.e_norms, data.f_norms))


def loop_cross_term(data):
    totals = data.overlaps.sum(axis=2)
    return 0.25 * math.fsum((abs(totals[i, j]) ** 2
                             for i in range(data.n1) for j in range(data.n2)))


def loop_i_values(data):
    d = data.dim
    a_pref = np.cumsum(data.e_norms, axis=1)
    b_pref = np.cumsum(data.f_norms, axis=1)
    c_pref = np.cumsum(data.overlaps, axis=2)
    a_tot = a_pref[:, -1]
    b_tot = b_pref[:, -1]
    values = []
    for m in range(1, d + 1):
        terms = []
        for i in range(data.n1):
            for j in range(data.n2):
                head_a = a_pref[i, m - 1]
                tail_a = a_tot[i] - head_a
                head_b = b_pref[j, m - 1]
                tail_b = b_tot[j] - head_b
                u = c_pref[i, j, m - 1]
                terms.append(0.25 * (abs(u) ** 2 + head_a * tail_b
                                     + tail_a * (head_b + tail_b)))
        values.append(math.fsum(terms))
    return tuple(values)


# The S-lattice tables and the identity-label walk of one instance, over the
# loop columns: the oracles for ``_s_tables`` and ``_lattice_values``.


def instance_s_tables(data):
    a_sum = data.e_norms.sum(axis=0)
    b_sum = data.f_norms.sum(axis=0)
    flat = data.overlaps.reshape(-1, data.dim)
    gram = flat.T @ flat.conj()
    ab = np.outer(a_sum, b_sum)
    mod_sq = (np.diagonal(gram).real[:, None] + np.diagonal(gram).real[None, :]
              + 2.0 * gram.real)
    skew_1, skew_2 = loop_skews(data)
    return {"start": skew_1 * skew_2,
            "pair_product": 0.25 * (ab + ab.T - 2.0 * gram.real),
            "diag_product": 0.25 * (np.diagonal(ab) - np.diagonal(gram).real),
            "step_printed": mod_sq - (data.n2 * a_sum[:, None] + data.n1 * b_sum[None, :])}


def instance_lattice_values(tables, reading, d):
    """The identity-label walk over one instance's tables."""
    value = tables["start"]
    out = {}
    for p, q in lattice_order(d):
        if reading == Reading.PRODUCT:
            value = value - tables["pair_product"][p - 1, q - 1]
            if q == 1:
                value = value - tables["diag_product"][p - 1]
            if p == 2 and q == 1:
                value = value - tables["diag_product"][0]
        else:
            value = value + tables["step_printed"][p - 1, q - 1]
        out[(p, q)] = float(value)
    return out


def s_values(stage, reading=Reading.PRODUCT, b=0):
    """Instance b's S values of ``reading``, read from a stage's lattice
    column as Python floats keyed by (p, q)."""
    d = stage.i_values.shape[1]
    return dict(zip(lattice_order(d), stage.lattices[reading][b].tolist()))


def stage_row(stage, b=0):
    """Instance b of a stage as Python floats: its product, sum, I values,
    each reading's ``s_values`` and cross term."""
    return (stage.products[b].item(), stage.sums[b].item(), tuple(stage.i_values[b].tolist()),
            {reading: s_values(stage, reading, b) for reading in Reading},
            stage.cross_terms[b].item())


def random_instance(d, seed, convention=Convention.COLUMN_SUM):
    rho = random_density(d, (seed % d) + 1, derive_seed(seed, 0))
    ch1 = random_channel(d, (seed % 4) + 1, convention, derive_seed(seed, 1))
    ch2 = random_channel(d, ((seed // 3) % 4) + 1, convention, derive_seed(seed, 2))
    return rho, ch1, ch2


def example_instance(theta=1.0, p=0.5, q=0.5):
    n1, n2 = example_channels(p, q)
    return rho_theta(theta), n1, n2


# ---------------------------------------------------------------------------


@st.composite
def instance_stacks(draw):
    """(d, n1, n2, [(rank, seed), ...], row_sum): one to five same-shape
    instances, leaning towards n = d^2 and rank 1."""
    d = draw(st.integers(1, 6))
    kraus_count = st.just(d * d) | st.integers(1, d * d)
    n1, n2 = draw(kraus_count), draw(kraus_count)
    members = draw(st.lists(st.tuples(st.just(1) | st.integers(1, d),
                                      st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5))
    return d, n1, n2, members, draw(st.booleans())


# Seed 268 at d = 5 is an instance where squaring hypot as x * x moves an I
# value, and seed 182 at d = 2 one where summing the skew information per
# Kraus operator moves its last bit.  The others pin n = d^2 (one stack of
# them mixing rank-1 and full-rank states under row-sum channels) and d = 1.
PINNED_STACKS = [
    (5, 2, 5, [(5, 268)], False),
    (2, 2, 4, [(1, 182)], False),
    (6, 36, 36, [(1, 0)], True),
    (4, 16, 16, [(4, 1)], False),
    (6, 36, 36, [(1, 0), (6, 1), (1, 2)], True),
    (1, 1, 1, [(1, 3), (1, 4)], False),
]


def over_instance_stacks(test):
    """Run ``test(self, params)`` on drawn stacks and on every pinned stack."""
    for params in PINNED_STACKS:
        test = example(params=params)(test)
    return settings(max_examples=40, deadline=None)(given(params=instance_stacks())(test))


def stack_of(d, n1, n2, members, row_sum):
    convention = Convention.ROW_SUM if row_sum else Convention.COLUMN_SUM
    rhos = [random_density(d, rank, derive_seed(seed, 0)) for rank, seed in members]
    ch1s = [random_channel(d, n1, convention, derive_seed(seed, 1)) for _, seed in members]
    ch2s = [random_channel(d, n2, convention, derive_seed(seed, 2)) for _, seed in members]
    return rhos, ch1s, ch2s


def worked_example_stack(thetas=(0.0, 0.5, 1.0)):
    """The tie-heavy points with p, q in {0, 1/2, 1} at each theta, as one stack."""
    points = list(itertools.product(thetas, (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    pairs = [example_channels(p, q) for _, p, q in points]
    return ([rho_theta(theta) for theta, _, _ in points],
            [a for a, _ in pairs], [b for _, b in pairs])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def object_stage(rhos, ch1s, ch2s):
    """The ``chain_stage`` of instances given as objects, stacked."""
    return chain_stage(np.array([rho.sqrt_rho for rho in rhos]),
                       np.array([ch.operators for ch in ch1s]),
                       np.array([ch.operators for ch in ch2s]))


class TestStageOnArrays:
    """``chain_stage`` on validated array stacks, bit for bit against the
    per-pair loops.  The stage holds no frame columns: the norms are checked
    on the frames, and the overlaps through the S tables, the cross terms and
    the I values."""

    @staticmethod
    def assert_matches(rhos, ch1s, ch2s, tol=DEFAULT_TOL):
        """``tol`` is the tolerance the states were validated at; the channels
        were validated at 1e-12, ``random_channel``'s default and the worked
        example's tolerance."""
        d = rhos[0].dim
        roots = density_stack(np.array([rho.rho for rho in rhos]), tol)[1]
        ops1, ops2 = (channel_stack(np.array([ch.operators for ch in chs]), chs[0].convention,
                                    1e-12) for chs in (ch1s, ch2s))
        assert same_bits(roots, np.array([rho.sqrt_rho for rho in rhos]))
        stage = chain_stage(roots, ops1, ops2)
        norms = [column_norms_sq(frame_stack(roots, ops)) for ops in (ops1, ops2)]
        assert len(stage.products) == len(rhos)
        for b, (rho, ch1, ch2) in enumerate(zip(rhos, ch1s, ch2s)):
            loop = loop_chain_data(rho, ch1, ch2)
            assert same_bits(norms[0][b], loop.e_norms) and same_bits(norms[1][b], loop.f_norms)
            tables = instance_s_tables(loop)
            start = [tables["start"]]
            assert same_bits(stage.tables[Reading.PRODUCT][b], np.concatenate(
                [start, tables["pair_product"].ravel(), tables["diag_product"]]))
            assert same_bits(stage.tables[Reading.AS_PRINTED][b], np.concatenate(
                [start, tables["step_printed"].ravel()]))
            skew_1, skew_2 = loop_skews(loop)
            assert same_bits([stage.products[b], stage.sums[b], stage.cross_terms[b]],
                             [tables["start"], skew_1 + skew_2, loop_cross_term(loop)])
            assert same_bits(stage.i_values[b], loop_i_values(loop))
            for reading in Reading:
                walk = instance_lattice_values(tables, reading, d)
                assert same_bits(stage.lattices[reading][b], list(walk.values()))

    @over_instance_stacks
    def test_random_instances(self, params):
        self.assert_matches(*stack_of(*params))

    def test_worked_example_stack(self):
        self.assert_matches(*worked_example_stack(), tol=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("convention", list(Convention))
    def test_each_stack_length_and_convention(self, count, convention):
        for n1, n2 in ((1, 1), (2, 3), (4, 1), (9, 9)):
            self.assert_matches(*stack_of(3, n1, n2, [(1 + b % 3, 40 + b) for b in range(count)],
                                          convention == Convention.ROW_SUM))

    def test_rejects_stacks_of_mismatched_shapes(self):
        rhos, ch1s, ch2s = stack_of(3, 2, 1, [(1, 5), (3, 6)], False)
        roots = np.array([rho.sqrt_rho for rho in rhos])
        ops1, ops2 = (np.array([ch.operators for ch in chs]) for chs in (ch1s, ch2s))
        for args in ((roots[:1], ops1, ops2), (roots, ops1[:1], ops2), (roots[:0], ops1[:0],
                     ops2[:0]), (roots[:, :2, :2], ops1, ops2), (roots, ops1[:, :, :2], ops2),
                     (roots[0], ops1, ops2), (roots, ops1[:, 0], ops2)):
            with pytest.raises(DimensionMismatchError):
                chain_stage(*args)


class TestIValuesOnRead:
    """A stage computes its I values when they are first read, once, as a
    (B, d) array; a stage whose I values were read holds none of its columns."""

    def test_computed_once_and_only_when_read(self, monkeypatch):
        calls = []
        real = chains._i_values

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(chains, "_i_values", counted)
        rhos, ch1s, ch2s = zip(*(random_instance(3, seed) for seed in (0, 12, 24)))
        stage = chain_stage(np.array([rho.sqrt_rho for rho in rhos]),
                            *(np.array([ch.operators for ch in chs]) for chs in (ch1s, ch2s)))
        assert calls == []
        assert stage.i_values.shape == (3, 3) and stage.i_values.dtype == np.float64
        assert stage.i_values is stage.i_values
        assert calls == [3]
        stage.i_values[2]  # a second read computes no more
        assert calls == [3]

    def test_read_stage_holds_no_column(self, monkeypatch):
        overlaps = []
        real = chains._cross_terms

        def spied(columns):
            overlaps.append(weakref.ref(columns))
            return real(columns)

        monkeypatch.setattr(chains, "_cross_terms", spied)
        stage = object_stage(*zip(random_instance(4, 5)))
        gc.collect()
        assert overlaps[0]() is not None  # the unread I-value source holds them
        i_values = stage.i_values.tolist()
        gc.collect()
        assert overlaps[0]() is None  # while the stage itself is alive
        assert stage.i_values.tolist() == i_values

    def test_first_reads_from_threads_at_once_agree(self):
        # four threads read a fresh stage's I values behind one barrier.  A
        # tracer holds each one on the first line past the source's "not yet
        # computed" test until all four stand there; one runs on, and the
        # others go on only once its read has returned, so they find the
        # source already spent.  Every thread gets the bits of a lone read.
        instance = random_instance(4, 7)
        want = compute_chain(*instance).i_values
        stage = compute_chain(*instance)
        call = chains._Once.__call__.__code__
        ops = list(dis.get_instructions(call))
        body = next(ops[i + 1].positions.lineno
                    for i, op in enumerate(ops) if op.opname.startswith("POP_JUMP"))
        start, inside, first_done, got = (threading.Barrier(4, timeout=10),
                                          threading.Barrier(4, timeout=10),
                                          threading.Event(), [])

        def trace(frame, event, arg):
            if frame.f_code is not call:
                return None

            def line(frame, event, arg):
                if event == "line" and frame.f_lineno == body and inside.wait():
                    first_done.wait(10)  # every thread but one waits for that one
                return line
            return line

        def read():
            start.wait()
            try:
                got.append(stage.i_values)
            except BaseException as exc:
                got.append(exc)
            first_done.set()

        threading.settrace(trace)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
        finally:
            threading.settrace(None)
        for thread in threads:
            thread.join()
        assert len(got) == 4 and all(same_bits(values, want) for values in got), got


class TestBatchedKernelsMatchLoops:
    @staticmethod
    def assert_matches_loops(rhos, ch1s, ch2s):
        stage = object_stage(rhos, ch1s, ch2s)  # one build serves both readings
        assert len(stage.products) == len(rhos)
        for b, (rho, ch1, ch2) in enumerate(zip(rhos, ch1s, ch2s)):
            loop = loop_chain_data(rho, ch1, ch2)
            tables = instance_s_tables(loop)
            start = [tables["start"]]
            assert np.array_equal(stage.tables[Reading.PRODUCT][b], np.concatenate(
                [start, tables["pair_product"].ravel(), tables["diag_product"]]))
            assert np.array_equal(stage.tables[Reading.AS_PRINTED][b], np.concatenate(
                [start, tables["step_printed"].ravel()]))
            skew_1, skew_2 = loop_skews(loop)
            assert stage_row(stage, b) == (
                tables["start"], skew_1 + skew_2, loop_i_values(loop),
                {reading: instance_lattice_values(tables, reading, rho.dim)
                 for reading in Reading}, loop_cross_term(loop))
            assert stage_row(compute_chain(rho, ch1, ch2)) == stage_row(stage, b)

    @over_instance_stacks
    def test_random_instances(self, params):
        self.assert_matches_loops(*stack_of(*params))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_worked_example_points(self, theta):
        # one state's nine points in one stack, as ``example`` builds its blocks
        self.assert_matches_loops(*worked_example_stack([theta]))

    def test_worked_example_stack(self):
        # all 27 points in one stack, three states mixed
        self.assert_matches_loops(*worked_example_stack())

    def test_rejects_mixed_shapes_and_empty_stacks(self):
        # both functions of (rho, ch1, ch2) are stacks of one over ``chain_stage``,
        # which rejects a state and channels of different dimensions
        rho, ch1, ch2 = random_instance(3, 1)
        small = random_channel(2, 1, Convention.COLUMN_SUM, seed=3)
        for call in (compute_chain, lambda *xs: kraus_invariance_check(*xs, trials=1, seed=0)):
            for args in ((rho, small, ch2), (rho, ch1, small)):
                with pytest.raises(DimensionMismatchError):
                    call(*args)
        roots, ops1, ops2 = (np.array(x) for x in (
            [rho.sqrt_rho] * 2, [ch1.operators] * 2, [ch2.operators]))
        with pytest.raises(DimensionMismatchError):
            chain_stage(roots, ops1, ops2)  # two states and families, one family
        with pytest.raises(DimensionMismatchError):
            chain_stage(roots[:0], ops1[:0], ops2[:0])

    def test_mismatch_messages(self):
        rho, ch1, ch2 = random_instance(3, 1)
        small = random_channel(2, 1, Convention.COLUMN_SUM, seed=3)
        shapes = "need one or more instances as (B, d, d), (B, n1, d, d) and (B, n2, d, d) stacks"
        cases = [
            ((rho, small, ch2), f"{shapes}, got shapes (1, 3, 3), (1, 1, 2, 2) and "
                                f"(1, {ch2.n}, 3, 3)"),
            ((rho, ch1, small), f"{shapes}, got shapes (1, 3, 3), (1, {ch1.n}, 3, 3) and "
                                f"(1, 1, 2, 2)"),
        ]
        for args, message in cases:
            with pytest.raises(DimensionMismatchError) as info:
                compute_chain(*args)
            assert str(info.value) == message
        with pytest.raises(DimensionMismatchError) as info:
            chain_stage(np.zeros((0, 3, 3)), np.zeros((0, 1, 3, 3)), np.zeros((0, 1, 3, 3)))
        assert str(info.value) == (f"{shapes}, got shapes (0, 3, 3), (0, 1, 3, 3) and "
                                   f"(0, 1, 3, 3)")

    def test_mod_sq_is_scalar_abs_squared(self):
        rng = np.random.default_rng(5)
        c = ((rng.standard_normal(20000) + 1j * rng.standard_normal(20000))
             * np.exp(rng.uniform(-20.0, 2.0, 20000)))
        assert _mod_sq(c).tolist() == [float(abs(z) ** 2) for z in c]


class TestSkewInfoMatchesChain:
    """``skew_info_channel`` reads the chain's kernel, so it carries the chain's bits."""

    @staticmethod
    def assert_matches_chain(rhos, ch1s, ch2s):
        stage = object_stage(rhos, ch1s, ch2s)
        for b, (rho, ch1, ch2) in enumerate(zip(rhos, ch1s, ch2s)):
            skew_1, skew_2 = skew_info_channel(rho, ch1), skew_info_channel(rho, ch2)
            assert skew_1 + skew_2 == stage.sums[b]
            assert skew_1 * skew_2 == stage.products[b]

    @over_instance_stacks
    def test_random_instances(self, params):
        self.assert_matches_chain(*stack_of(*params))

    def test_worked_example_points(self):
        self.assert_matches_chain(*worked_example_stack())


class TestCrossTermBound:
    def test_incoherent_point_is_zero(self):
        rho, n1, n2 = example_instance(theta=0.5)
        assert compute_chain(rho, n1, n2).cross_terms[0] == 0.0

    def test_identity_channels_give_zero(self):
        rho = random_density(3, 3, seed=5)
        ident = validate_channel([np.eye(3)], Convention.COLUMN_SUM)
        assert compute_chain(rho, ident, ident).cross_terms[0] <= 1e-28

    def test_worked_example_value(self):
        rho, n1, n2 = example_instance()
        value = compute_chain(rho, n1, n2).cross_terms[0]
        assert value == pytest.approx(oracle_cross_term(rho, n1, n2), abs=1e-14)
        assert value == pytest.approx(0.0031407832308854556, abs=1e-12)

    def test_matches_oracle_on_random(self):
        for seed in range(8):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 100 + seed)
            assert compute_chain(rho, ch1, ch2).cross_terms[0] == pytest.approx(
                oracle_cross_term(rho, ch1, ch2), abs=1e-13)


class TestIChain:
    def test_incoherent_point_all_zero(self):
        rho, n1, n2 = example_instance(theta=0.5)
        assert (compute_chain(rho, n1, n2).i_values == 0.0).all()

    def test_worked_example_values(self):
        rho, n1, n2 = example_instance()
        stage = compute_chain(rho, n1, n2)
        i_values = stage.i_values[0]
        expected = [oracle_i_m(rho, n1, n2, m) for m in range(1, 5)]
        for got, want in zip(i_values, expected):
            assert got == pytest.approx(want, abs=1e-13)
        assert i_values[-1] == pytest.approx(0.0031407832308854556, abs=1e-12)
        assert stage.products[0] == pytest.approx(0.02144660940672623, abs=1e-12)
        assert stage.sums[0] == pytest.approx(0.2928932188134524, abs=1e-12)

    def test_refinement_oracle_on_random(self):
        for seed in range(10):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 30 + seed)
            i_values = compute_chain(rho, ch1, ch2).i_values[0]
            for m in range(1, d + 1):
                assert i_values[m - 1] == pytest.approx(
                    oracle_i_m(rho, ch1, ch2, m), abs=1e-12)

    def test_monotone_and_endpoint_on_random(self):
        for seed in range(20):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 200 + seed)
            product, _, i_values, _, cross_term = stage_row(compute_chain(rho, ch1, ch2))
            assert product >= i_values[0] - 1e-10
            for m in range(d - 1):
                assert i_values[m] >= i_values[m + 1] - 1e-10
            assert i_values[-1] == pytest.approx(cross_term, abs=1e-12)


class TestSChain:
    def test_incoherent_point_all_zero(self):
        rho, n1, n2 = example_instance(theta=0.5)
        stage = compute_chain(rho, n1, n2)
        for reading in Reading:
            assert (stage.lattices[reading] == 0.0).all()

    def test_product_reading_matches_oracle(self):
        for seed in range(8):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 300 + seed)
            values = s_values(compute_chain(rho, ch1, ch2), Reading.PRODUCT)
            oracle = oracle_s_product(rho, ch1, ch2)
            for key in lattice_order(d):
                assert values[key] == pytest.approx(oracle[key], abs=1e-12)

    def test_as_printed_matches_oracle(self):
        for seed in range(8):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 400 + seed)
            values = s_values(compute_chain(rho, ch1, ch2), Reading.AS_PRINTED)
            oracle = oracle_s_printed(rho, ch1, ch2)
            for key in lattice_order(d):
                assert values[key] == pytest.approx(oracle[key], abs=1e-10)

    def test_product_reading_anchors_exactly(self):
        # S_{p,p-1} = I_p for every p, and the endpoint equals the cross term
        for seed in range(10):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 500 + seed)
            _, _, i_values, lattices, cross_term = stage_row(compute_chain(rho, ch1, ch2))
            values = lattices[Reading.PRODUCT]
            for p in range(2, d + 1):
                assert values[(p, p - 1)] == pytest.approx(i_values[p - 1], abs=1e-12)
            assert values[(d, d - 1)] == pytest.approx(cross_term, abs=1e-12)

    def test_product_reading_monotone_along_traversal(self):
        for seed in range(10):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 600 + seed)
            stage = compute_chain(rho, ch1, ch2)
            seq = [stage.products[0], *stage.lattices[Reading.PRODUCT][0]]
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1e-12

    def test_as_printed_breaks_anchors(self):
        # documents why the as-printed reading is report-only: its updates mix
        # quadratic and quartic terms, so the lattice detaches from the I-chain
        rho, ch1, ch2 = example_instance()
        stage = compute_chain(rho, ch1, ch2)
        assert abs(s_values(stage, Reading.AS_PRINTED)[(2, 1)] - stage.i_values[0, 1]) > 1e-3

    def test_worked_example_product_reading_values(self):
        rho, n1, n2 = example_instance()
        values = s_values(compute_chain(rho, n1, n2), Reading.PRODUCT)
        assert values[(2, 1)] == pytest.approx(0.01687015286276604, abs=1e-12)
        assert values[(3, 1)] == pytest.approx(0.013437810454795893, abs=1e-12)
        assert values[(3, 2)] == pytest.approx(0.011149582182815795, abs=1e-12)
        assert values[(4, 3)] == pytest.approx(0.0031407832308854556, abs=1e-12)


class TestSumChain:
    # the sum-form chain: sum_transfer of the I values and of the S values
    def test_all_zero_chain(self):
        rho, n1, n2 = example_instance(theta=0.5)
        stage = compute_chain(rho, n1, n2)
        assert (sum_transfer(stage.i_values[0]) == 0.0).all()
        assert (sum_transfer(stage.lattices[Reading.PRODUCT][0]) == 0.0).all()

    def test_worked_example_transfer(self):
        rho, n1, n2 = example_instance()
        i_sums = sum_transfer(compute_chain(rho, n1, n2).i_values[0])
        assert i_sums[-1] == pytest.approx(0.11208538229199123, abs=1e-10)

    def test_monotonicity_inherited(self):
        rho, ch1, ch2 = random_instance(4, 77)
        i_sums = sum_transfer(compute_chain(rho, ch1, ch2).i_values[0]).tolist()
        for a, b in zip(i_sums, i_sums[1:]):
            assert b <= a + 1e-12

    def test_negative_values_transfer_to_zero(self):
        rho, n1, n2 = example_instance()
        values = s_values(compute_chain(rho, n1, n2), Reading.AS_PRINTED)
        s_sums = dict(zip(values, sum_transfer(list(values.values())).tolist()))
        assert values[(4, 3)] < 0.0
        assert s_sums[(4, 3)] == 0.0

    def test_sum_dominates_transfers(self):
        for seed in range(10):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 700 + seed)
            product, total, i_values, _, _ = stage_row(compute_chain(rho, ch1, ch2))
            assert total >= 2 * math.sqrt(product) - 1e-10
            for v in sum_transfer(i_values).tolist():
                assert total >= v - 1e-10


class TestPermuteS:
    def test_identity_is_bit_identical_to_chain(self):
        rho, ch1, ch2 = random_instance(4, 88)
        stage = compute_chain(rho, ch1, ch2)
        for reading in Reading:
            values = s_values(stage, reading)
            ident = (0, 1, 2, 3)
            for (p, q) in lattice_order(4):
                assert permute_s(stage, ident, ident, p, q, reading)[0] == values[(p, q)]

    def test_incoherent_point_zero_for_all_permutations(self):
        stage = compute_chain(*example_instance(theta=0.5))
        for sigma in itertools.permutations(range(4)):
            assert permute_s(stage, sigma, sigma[::-1], 2, 1)[0] == 0.0

    def test_transposition_equals_relabeling_oracle_d2(self):
        # relabeling the basis before the chain equals permuting inside it
        rho, ch1, ch2 = random_instance(2, 91)
        perm = np.array([[0, 1], [1, 0]], dtype=complex)
        relabeled_rho = validate_density(perm @ rho.rho @ perm.T)
        relabeled_1 = validate_channel([perm @ k @ perm.T for k in ch1.operators],
                                       ch1.convention, tol=1e-9)
        relabeled_2 = validate_channel([perm @ k @ perm.T for k in ch2.operators],
                                       ch2.convention, tol=1e-9)
        direct = compute_chain(relabeled_rho, relabeled_1, relabeled_2)
        stage = compute_chain(rho, ch1, ch2)
        (swapped,) = permute_s(stage, (1, 0), (1, 0), 2, 1, Reading.PRODUCT)
        assert swapped == pytest.approx(direct.lattices[Reading.PRODUCT][0, 0], abs=1e-12)

    def test_permuted_values_stay_below_product(self):
        for seed in range(5):
            stage = compute_chain(*random_instance(3, 800 + seed))
            product = stage.products[0]
            for sigma in itertools.permutations(range(3)):
                for tau in itertools.permutations(range(3)):
                    for (p, q) in lattice_order(3):
                        (v,) = permute_s(stage, sigma, tau, p, q, Reading.PRODUCT)
                        assert v <= product + 1e-12

    def test_start_value_is_permutation_invariant(self):
        # S_{1,0} is the walk's start and never touched by the labels
        rho, ch1, ch2 = random_instance(3, 95)
        stage = object_stage([rho], [ch1], [ch2])
        product = stage.products[0]
        assert stage.tables[Reading.PRODUCT][0, 0] == product
        assert stage.tables[Reading.AS_PRINTED][0, 0] == product

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_stack_gives_each_instance_its_stack_of_one_bits(self, d):
        # five instances of mixed Kraus counts in one stage, zero-padded and
        # passed with their counts; every position, both readings, the
        # identity pair and seeded random pairs
        instances = [random_instance(d, 31 * d + b) for b in range(5)]
        counts = tuple(np.array([x[side].n for x in instances]) for side in (1, 2))
        assert all(len(set(n.tolist())) > 1 for n in counts)
        ops = [np.zeros((5, n.max(), d, d), np.complex128) for n in counts]
        for b, (_, ch1, ch2) in enumerate(instances):
            ops[0][b, :ch1.n], ops[1][b, :ch2.n] = ch1.operators, ch2.operators
        stage = chain_stage(np.array([x[0].sqrt_rho for x in instances]), *ops, counts)
        alone = [compute_chain(*x) for x in instances]
        rng = np.random.default_rng(d)
        pairs = [(range(d), range(d))] + [(rng.permutation(d), rng.permutation(d))
                                          for _ in range(4)]
        for reading in Reading:
            for sigma, tau in pairs:
                for p, q in lattice_order(d):
                    got = permute_s(stage, sigma, tau, p, q, reading)
                    want = np.concatenate([permute_s(one, sigma, tau, p, q, reading)
                                           for one in alone])
                    assert got.shape == (5,) and same_bits(got, want), (reading, p, q)

    def test_invalid_permutation_rejected(self):
        stage = compute_chain(*random_instance(2, 96))
        with pytest.raises(ValueError):
            permute_s(stage, (0, 0), (0, 1), 2, 1)
        with pytest.raises(ValueError):
            permute_s(stage, (0, 1), (0, 1), 1, 1)


class TestOptimizePermutations:
    def test_exhaustive_d2_dominates_identity(self):
        stage = compute_chain(*random_instance(2, 97))
        (best,), _ = optimize_batch(stage)
        (ident,) = permute_s(stage, (0, 1), (0, 1), 2, 1)
        assert best >= ident

    def test_exhaustive_matches_brute_maximum(self):
        # the first maximum of permute_s over all (d!)^2 pairs in
        # lexicographic order, value and pair bit for bit
        for d, seed in ((2, 98), (2, 99), (3, 98), (3, 100)):
            stage = compute_chain(*random_instance(d, seed))
            for reading in Reading:
                brute = None
                for s in itertools.permutations(range(d)):
                    for t in itertools.permutations(range(d)):
                        (v,) = permute_s(stage, s, t, 2, 1, reading).tolist()
                        if brute is None or v > brute[0]:
                            brute = (v, s, t)
                (best,), ((sigma, tau),) = optimize_batch(stage, reading)
                assert (repr(best.item()), sigma, tau) == (repr(brute[0]), *brute[1:])

    def test_no_deeper_position_beats_the_optimum(self):
        # under the product reading every permuted walk is non-increasing, so
        # no pair at any deeper position exceeds the (2, 1) optimum
        for seed in (101, 102):
            stage = compute_chain(*random_instance(4, seed))
            (best,), _ = optimize_batch(stage)
            deeper = max(permute_s(stage, s, t, p, q)[0]
                         for s in itertools.permutations(range(4))
                         for t in itertools.permutations(range(4))
                         for p, q in lattice_order(4)[1:])
            assert deeper <= best

    def test_incoherent_point_optimum_is_zero(self):
        (best,), _ = optimize_batch(compute_chain(*example_instance(theta=0.5)))
        assert best == 0.0


class TestExactSearchMatchesOracle:
    @staticmethod
    def assert_matches_oracle(rho, ch1, ch2):
        stage = compute_chain(rho, ch1, ch2)
        for reading in Reading:
            (best,), ((sigma, tau),) = optimize_batch(stage, reading)
            assert (best.item(), sigma, tau) == oracle_optimum(rho, ch1, ch2, reading), reading

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_instances(self, d, seed):
        self.assert_matches_oracle(*random_instance(d, seed))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_worked_example_ties(self, theta):
        # theta = 1/2 makes every candidate 0.0, so only the tie-break decides
        for p in (0.0, 0.5, 1.0):
            for q in (0.0, 0.5, 1.0):
                self.assert_matches_oracle(*example_instance(theta, p, q))

    def test_auto_is_exact_beyond_old_exhaustive_range(self):
        # d = 6: (6!)^2 pairs, but (2, 1) only reads sigma[1] and tau[0]
        rho, ch1, ch2 = random_instance(6, 111)

        def with_label(label, slot):
            perm = [k for k in range(6) if k != label]
            perm.insert(slot, label)
            return perm

        stage = compute_chain(rho, ch1, ch2)
        (best,), _ = optimize_batch(stage)
        brute = max(permute_s(stage, with_label(r, 1), with_label(s, 0), 2, 1)[0]
                    for r in range(6) for s in range(6))
        assert best == brute


class TestMixedBound:
    @staticmethod
    def mixed(stage, t):
        """``mixed_columns`` of a stage's rows and their product-reading optima."""
        optima, _ = optimize_batch(stage)
        return mixed_columns(stage.products, stage.sums, optima, t)

    def test_endpoints(self):
        stage = compute_chain(*random_instance(3, 102))
        (best,), _ = optimize_batch(stage)
        (prod0,), (sum0,) = self.mixed(stage, 0.0)
        assert (prod0, sum0) == (stage.products[0], stage.sums[0])
        (prod1,), (sum1,) = self.mixed(stage, 1.0)
        assert prod1 == best
        assert sum1 == pytest.approx(2 * math.sqrt(best), abs=1e-15)

    def test_midpoint_sandwich(self):
        stage = compute_chain(*example_instance())
        (best,), _ = optimize_batch(stage)
        (prod,), _ = self.mixed(stage, 0.5)
        assert prod == pytest.approx((stage.products[0] + best) / 2, abs=1e-15)
        assert stage.cross_terms[0] - 1e-10 <= prod <= stage.products[0] + 1e-10

    def test_invalid_t(self):
        stage = compute_chain(*random_instance(2, 103))
        for t in (1.5, -0.1, math.nan, np.array([0.0, 1.5]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                self.mixed(stage, t)
        self.mixed(stage, np.array([0.0, -0.0, 0.5, 1.0]))  # the closed interval, -0.0 in it


class TestVerifyChain:
    def test_incoherent_point_all_pass(self):
        verdict = verdict_columns(compute_chain(*example_instance(theta=0.5)), 1e-10)
        assert verdict.passed.shape == (1, len(verdict.names)) and verdict.passed.all()

    def test_random_instances_pass_hard_checks(self):
        for seed in range(12):
            d = 2 + seed % 3
            rho, ch1, ch2 = random_instance(d, 900 + seed)
            verdict = verdict_columns(compute_chain(rho, ch1, ch2), 1e-10)
            failed = [name for name, ok in zip(verdict.names, verdict.passed[0]) if not ok]
            assert not set(failed) & set(HARD_CHECK_NAMES), failed

    def test_anchor_rows_exist_for_both_readings(self):
        rho, ch1, ch2 = random_instance(4, 104)
        names = set(verdict_columns(compute_chain(rho, ch1, ch2), 1e-10).names)
        for label in ("product", "as_printed"):
            assert f"anchor_s21_eq_i2[{label}]" in names
            assert f"anchor_s32_eq_i3[{label}]" in names
            assert f"anchor_spp1_eq_ip[{label}]" in names
            assert f"anchor_endpoint_eq_cross_term[{label}]" in names

    def test_product_reading_anchors_pass_as_printed_fail(self):
        rho, ch1, ch2 = random_instance(4, 105)
        verdict = verdict_columns(compute_chain(rho, ch1, ch2), 1e-10)
        by_name = verdict.by_name()  # name -> (passed, deviations)
        assert by_name["anchor_endpoint_eq_cross_term[product]"][0].all()
        assert not by_name["anchor_endpoint_eq_cross_term[as_printed]"][0].any()

    def test_hard_names_are_a_subset_of_emitted_checks(self):
        rho, ch1, ch2 = random_instance(3, 106)
        assert set(HARD_CHECK_NAMES) <= set(verdict_columns(compute_chain(rho, ch1, ch2),
                                                            1e-10).names)

    def test_dimension_mismatch(self):
        rho = random_density(3, 3, seed=1)
        ch = random_channel(2, 2, Convention.COLUMN_SUM, seed=2)
        with pytest.raises(DimensionMismatchError):
            verdict_columns(compute_chain(rho, ch, ch), 1e-10)


class TestKrausInvariance:
    def test_identity_mixing_gives_zero_deviation(self):
        rho, n1, n2 = example_instance()
        base = compute_chain(rho, n1, n2)
        mixed = compute_chain(rho, mix_kraus(n1, np.eye(2)), mix_kraus(n2, np.eye(2)))
        assert mixed.products == base.products
        assert mixed.cross_terms == base.cross_terms

    def test_worked_example_twenty_trials(self):
        rho, n1, n2 = example_instance()
        deviations = kraus_invariance_check(rho, n1, n2, trials=20, seed=7)
        assert list(deviations) == ["product", "sum", "i_values", "s_values",
                                    "s_values_as_printed", "cross_term"]
        assert all(v <= 1e-10 for v in deviations.values()), deviations

    def test_single_kraus_phase_mixing(self):
        rho = random_density(3, 2, seed=107)
        ch1 = random_channel(3, 1, Convention.COLUMN_SUM, seed=108)
        ch2 = random_channel(3, 1, Convention.COLUMN_SUM, seed=109)
        deviations = kraus_invariance_check(rho, ch1, ch2, trials=5, seed=110)
        assert all(v <= 1e-12 for v in deviations.values()), deviations

    def test_data_level_form_matches(self):
        # the instance and its trials as arrays: two stages read by
        # invariance_columns, one row per trial, folded over the trials
        rho, ch1, ch2 = random_instance(3, 112)
        direct = kraus_invariance_check(rho, ch1, ch2, trials=2, seed=4)
        ops = []
        for side, ch in enumerate((ch1, ch2), start=1):
            base = np.array([ch.operators] * 2)
            us = unitaries_from_words(ch.n, seeding_words([(derive_seed(4, trial, side),)
                                                           for trial in range(2)]))
            ops.append(mix_kraus_families(base, us))
        unmixed = chain_stage(rho.sqrt_rho[None], ch1.operators[None], ch2.operators[None])
        mixed = chain_stage(np.array([rho.sqrt_rho] * 2), *ops)
        rows = invariance_columns(unmixed, mixed)
        assert rows.shape == (2, 6)
        assert first_max(rows.T).tolist() == list(direct.values())

    def test_deviations_match_recomputed_chains(self):
        # every quantity of both readings, of the instance the data was built from
        rho, ch1, ch2 = random_instance(3, 113)
        trials, seed = 3, 6

        def values(r, a, b):
            product, total, i_values, lattices, cross_term = stage_row(compute_chain(r, a, b))
            return {"product": (product,), "sum": (total,), "i_values": i_values,
                    "s_values": tuple(lattices[Reading.PRODUCT].values()),
                    "s_values_as_printed": tuple(lattices[Reading.AS_PRINTED].values()),
                    "cross_term": (cross_term,)}

        base = values(rho, ch1, ch2)
        want = dict.fromkeys(base, 0.0)
        for trial in range(trials):
            mixed = values(rho, mix_kraus(ch1, random_unitary(ch1.n, derive_seed(seed, trial, 1))),
                           mix_kraus(ch2, random_unitary(ch2.n, derive_seed(seed, trial, 2))))
            for name in base:
                want[name] = max([want[name],
                                  *(abs(a - b) for a, b in zip(mixed[name], base[name]))])
        assert kraus_invariance_check(rho, ch1, ch2, trials=trials, seed=seed) == want

    def test_rejects_zero_trials(self):
        rho, n1, n2 = example_instance()
        with pytest.raises(ValueError):
            kraus_invariance_check(rho, n1, n2, trials=0, seed=1)
