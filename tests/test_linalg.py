import numpy as np
import pytest

from skewchain.errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
)
from skewchain.linalg import (
    hermitian_eigendecompose,
    max_abs,
    psd_sqrt,
)


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rho_theta_matrix(theta):
    a = 2 * theta - 1
    block = np.array([[1, a], [a, 1]], dtype=complex) / 4
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = block
    rho[2:, 2:] = block
    return rho


class TestEigendecompose:
    def test_identity(self):
        w, _ = hermitian_eigendecompose(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = hermitian_eigendecompose(np.diag([0.8, 0.2]))
        assert np.allclose(w, [0.2, 0.8])

    def test_two_block_state_spectrum(self):
        # each block diagonalizes to eigenvalues {0, 1/2}
        w, _ = hermitian_eigendecompose(rho_theta_matrix(1.0))
        assert np.allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_reconstruction_random(self, d):
        rng = np.random.default_rng(11 * d)
        for _ in range(20):
            m = rand_hermitian(rng, d)
            w, v = hermitian_eigendecompose(m, hermiticity_tol=1e-8)
            assert max_abs(v.conj().T @ v - np.eye(d)) <= 1e-10
            assert max_abs((v * w) @ v.conj().T - m) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(5)
        m = rand_hermitian(rng, 6)
        a = hermitian_eigendecompose(m, hermiticity_tol=1e-8)
        b = hermitian_eigendecompose(m.copy(), hermiticity_tol=1e-8)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eigendecompose(np.ones((2, 3)))

    def test_rejects_non_hermitian_with_magnitude(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as exc:
            hermitian_eigendecompose(m, hermiticity_tol=1e-10)
        assert exc.value.asymmetry == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            hermitian_eigendecompose(np.array([[np.nan, 0], [0, 1]]))


class TestPsdSqrt:
    def test_scaled_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4) / 4), np.eye(4) / 2)

    def test_rank_one_projector_is_fixed_point(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        assert max_abs(psd_sqrt(proj) - proj) <= 1e-12

    def test_two_block_state(self):
        # rho(1) = (P + Q)/2 with rank-1 block projectors, so sqrt = sqrt(2) rho(1)
        rho = rho_theta_matrix(1.0)
        assert max_abs(psd_sqrt(rho) - np.sqrt(2) * rho) <= 1e-12

    def test_square_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 6):
            g = rand_complex(rng, d)
            s = (g @ g.conj().T)
            s /= np.trace(s).real
            root = psd_sqrt(s)
            assert max_abs(root @ root - s) <= 1e-10
            again = psd_sqrt(root @ root)
            assert max_abs(again - root) <= 1e-8

    def test_clamps_tiny_negative_eigenvalues(self):
        m = np.diag([1.0, -1e-12])
        root = psd_sqrt(m, tol=1e-9)
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError) as exc:
            psd_sqrt(np.diag([1.0, -0.5]), tol=1e-9)
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)
