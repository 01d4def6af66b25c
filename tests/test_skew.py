import math

import numpy as np
import pytest

from skewchain.errors import DimensionMismatchError
from skewchain.example import example_channels, rho_theta
from skewchain.linalg import max_abs
from skewchain.objects import (
    Convention,
    mix_kraus,
    random_channel,
    random_density,
    random_unitary,
    validate_density,
)
from skewchain.skew import (
    column_norms_sq,
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
        assert max_abs(frame) <= 1e-15
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
        assert max_abs(frame - expected) <= 1e-14

    def test_diagonal_state_and_operator_commute(self):
        dm = validate_density(np.diag([0.5, 0.3, 0.2]))
        frame = commutator_frame(dm, np.diag([1.0, 5.0, 9.0]))
        assert max_abs(frame) == 0.0

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
            if max_abs(frame) <= 1e-12:
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
