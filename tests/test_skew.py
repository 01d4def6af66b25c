import math

import numpy as np
import pytest
from test_stacks import same_bits

from skewchain.errors import DimensionMismatchError
from skewchain.example import example_channels, rho_theta
from skewchain.linalg import max_abs_each
from skewchain.objects import (
    Convention,
    mix_kraus,
    mix_kraus_families,
    random_channel,
    random_density,
    random_unitary,
    validate_density,
)
from skewchain.skew import (
    column_norms_sq,
    column_overlaps,
    commutator_frame,
    skew_info_channel,
    skew_info_operator,
)


def brute_skew(dm, k):
    """Oracle: (1/2) Tr(C^dag C) via explicit matrix products."""
    c = dm.sqrt_rho @ k - k @ dm.sqrt_rho
    return 0.5 * float(np.trace(c.conj().T @ c).real)


class TestCommutatorFrame:
    def test_maximally_mixed_gives_zero_frame(self):
        dm = validate_density(np.eye(4) / 4)
        frame = commutator_frame(dm, np.diag([1.0, 2.0, 3.0, 4.0]))
        assert max_abs_each(frame[None])[0] <= 1e-15
        assert np.all(np.sqrt(column_norms_sq(frame[None])) <= 1e-15)

    def test_frame_is_read_only(self):
        frame = commutator_frame(random_density(3, 3, seed=3), random_unitary(3, seed=4))
        assert frame.shape == (3, 3) and not frame.flags.writeable

    def test_block_structure_of_worked_example(self):
        # [sqrt(rho(1)), E1(p=1/2)] is c * [[0,1],[-1,0]] on each block,
        # c = (sqrt(1/2) - 1) / (2 sqrt(2))
        dm = rho_theta(1.0)
        n1, _ = example_channels(0.5, 0.5)
        frame = commutator_frame(dm, n1.operators[0])
        c = (math.sqrt(0.5) - 1.0) / (2.0 * math.sqrt(2.0))
        block = c * np.array([[0, 1], [-1, 0]], dtype=complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = block
        expected[2:, 2:] = block
        assert max_abs_each((frame - expected)[None])[0] <= 1e-14

    def test_diagonal_state_and_operator_commute(self):
        dm = validate_density(np.diag([0.5, 0.3, 0.2]))
        frame = commutator_frame(dm, np.diag([1.0, 5.0, 9.0]))
        assert max_abs_each(frame[None])[0] == 0.0

    def test_half_column_norms_equal_skew_info(self):
        dm = random_density(5, 3, seed=8)
        k = random_unitary(5, seed=9)
        frame = commutator_frame(dm, k)
        total = 0.5 * math.fsum(column_norms_sq(frame[None]).ravel().tolist())
        assert total == skew_info_operator(dm, k)
        assert total == pytest.approx(brute_skew(dm, k), abs=1e-12)

    def test_dimension_mismatch(self):
        dm = random_density(3, 3, seed=1)
        with pytest.raises(DimensionMismatchError):
            commutator_frame(dm, np.eye(4))


class TestSkewInfoOperator:
    def test_maximally_mixed_is_zero(self):
        dm = validate_density(np.eye(4) / 4)
        assert skew_info_operator(dm, random_unitary(4, seed=2)) == 0.0

    def test_worked_example_e1(self):
        # closed form (1 - sqrt(1-p))^2 (1 - 2 sqrt(theta(1-theta))) / 4
        dm = rho_theta(1.0)
        n1, _ = example_channels(0.5, 0.5)
        value = skew_info_operator(dm, n1.operators[0])
        assert value == pytest.approx(brute_skew(dm, n1.operators[0]), abs=1e-14)
        assert value == pytest.approx(0.021446609406726224, abs=1e-12)

    def test_worked_example_e2(self):
        # closed form p (1 - 2 sqrt(theta(1-theta))) / 4
        dm = rho_theta(1.0)
        n1, _ = example_channels(0.5, 0.5)
        value = skew_info_operator(dm, n1.operators[1])
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_nonnegative_and_zero_iff_commuting(self):
        dm = random_density(4, 4, seed=5)
        for seed in range(5):
            k = random_unitary(4, seed=60 + seed)
            value = skew_info_operator(dm, k)
            frame = commutator_frame(dm, k)
            assert value >= 0.0
            if max_abs_each(frame[None])[0] <= 1e-12:
                assert value <= 1e-12
            else:
                assert value > 1e-12
        # commuting case: polynomial in rho
        poly = dm.rho @ dm.rho
        assert skew_info_operator(dm, poly) <= 1e-12

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            dm = random_density(3, 3, seed=int(rng.integers(1 << 32)))
            k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert skew_info_operator(dm, k) == pytest.approx(brute_skew(dm, k), abs=1e-12)


class TestSkewInfoChannel:
    def test_incoherent_point_vanishes(self):
        dm = rho_theta(0.5)
        n1, n2 = example_channels(0.5, 0.5)
        assert skew_info_channel(dm, n1) == 0.0
        assert skew_info_channel(dm, n2) == 0.0

    def test_worked_example_value(self):
        # closed form (1 - sqrt(1-p)) (1 - 2 sqrt(theta(1-theta))) / 2
        dm = rho_theta(1.0)
        n1, n2 = example_channels(0.5, 0.5)
        brute = math.fsum(brute_skew(dm, k) for k in n1.operators)
        assert skew_info_channel(dm, n1) == pytest.approx(brute, abs=1e-14)
        assert skew_info_channel(dm, n1) == pytest.approx(0.1464466094067262, abs=1e-12)
        assert skew_info_channel(dm, n2) == pytest.approx(0.1464466094067262, abs=1e-12)

    def test_invariant_under_kraus_mixing(self):
        dm = random_density(4, 4, seed=81)
        ch = random_channel(4, 3, Convention.COLUMN_SUM, seed=82)
        base = skew_info_channel(dm, ch)
        for seed in range(5):
            mixed = mix_kraus(ch, random_unitary(3, seed=90 + seed))
            assert skew_info_channel(dm, mixed) == pytest.approx(base, abs=1e-10)

    def test_dimension_mismatch(self):
        dm = random_density(3, 3, seed=1)
        ch = random_channel(4, 2, Convention.COLUMN_SUM, seed=2)
        with pytest.raises(DimensionMismatchError):
            skew_info_channel(dm, ch)


# Every (B, n, d) stack the kernel tests below run: B in {1, 3, 40, 128}, n in
# {1, 2, d, d^2} up to d^2, at most 2^21 overlap products per stack.
KERNEL_STACKS = [(b, n, d) for d in (1, 2, 3, 4, 7, 8, 16, 32, 64)
                 for n in sorted({1, 2, d, d * d}) if n <= d * d
                 for b in (1, 3, 40, 128) if b * n * n * d * d <= 2 ** 21]


def special_stack(rng, b, n, d) -> np.ndarray:
    """A (b, n, d, d) complex stack: Gaussian entries, a sixteenth of each part
    set to one of +-0.0, NaN and +-inf, and each family's operators past a
    random count of 1..n zero, as a padded family is."""
    parts = rng.standard_normal((2, b, n, d, d))
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    hit = rng.random(parts.shape) < 1 / 16
    parts[hit] = rng.choice(specials, size=int(hit.sum()))
    stack = parts[0].astype(np.complex128)
    stack.imag = parts[1]  # each part keeps its bits, signed zeros too
    stack[np.arange(n) >= rng.integers(1, n + 1, size=b)[:, None]] = 0.0
    return stack


def column_major(frames: np.ndarray) -> np.ndarray:
    """``frames`` stored column-major, as ``stage_from_frames`` stores them."""
    return np.ascontiguousarray(frames.swapaxes(-1, -2)).swapaxes(-1, -2)


def same_bits_but_nan_sign(got, want) -> bool:
    """``same_bits`` of the float parts, signed zeros included, with every NaN
    taken as +NaN.  Which NaN operand an addition returns is the compiler's
    choice, so the contiguous loops may flip a NaN's sign bit; no output
    prints that sign."""
    got, want = (np.ascontiguousarray(x).view(np.float64) for x in (got, want))
    return same_bits(np.where(np.isnan(got), np.nan, got), np.where(np.isnan(want), np.nan, want))


class TestContiguousKernels:
    """The frame kernels and the Kraus mixing against the strided ``einsum``s
    they replaced, kept here as oracles: the same bits in either frame
    layout, but for the sign of a NaN."""

    @pytest.mark.parametrize("b, n, d", KERNEL_STACKS)
    def test_norms_and_overlaps_match_the_strided_sums(self, b, n, d):
        rng = np.random.default_rng([b, n, d])
        e, f = special_stack(rng, b, n, d), special_stack(rng, b, n, d)
        norms = np.einsum("...nij,...nij->...nj", e.conj(), e).real
        overlaps = np.einsum("...aij,...bij->...abj", e.conj(), f)
        for layout in (np.ascontiguousarray, column_major):
            got = column_overlaps(layout(e), layout(f))
            assert got.flags.c_contiguous
            assert same_bits_but_nan_sign(column_norms_sq(layout(e)), norms)
            assert same_bits_but_nan_sign(got, overlaps)

    @pytest.mark.parametrize("b, n, d", KERNEL_STACKS)
    def test_mixing_matches_the_strided_sum(self, b, n, d):
        rng = np.random.default_rng([b, n, d, 1])
        ops = special_stack(rng, b, n, d)
        gauss = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
        us = np.linalg.qr(gauss)[0]
        # a sign-flipped permutation in every other slot: its zeros are -0.0
        us[::2] = -np.eye(n, dtype=complex)[rng.permutation(n)]
        want = np.einsum("...ts,...sij->...tij", us, ops)
        assert same_bits_but_nan_sign(mix_kraus_families(ops, us), want)
