import numpy as np
import pytest
from helpers import complex_gaussian

from chanent import matcore
from chanent.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEigenvalues:
    def test_identity(self):
        spec = matcore.hermitian_eigenvalues(np.eye(2))
        np.testing.assert_allclose(spec.values, [1.0, 1.0])
        assert spec.kind == "eigenvalues-hermitian"

    def test_diagonal(self):
        spec = matcore.hermitian_eigenvalues(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(spec.values, [3.0, -1.0])

    def test_pauli_x(self):
        # characteristic polynomial x**2 - 1 = 0 by hand
        spec = matcore.hermitian_eigenvalues(PAULI_X)
        np.testing.assert_allclose(spec.values, [1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_sum_matches_trace(self, n):
        rng = np.random.default_rng(100 + n)
        g = complex_gaussian(rng, (n, n))
        h = (g + g.conj().T) / 2
        spec = matcore.hermitian_eigenvalues(h)
        assert abs(spec.values.sum() - np.trace(h).real) <= 1e-10
        assert np.all(np.diff(spec.values) <= 0)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            matcore.hermitian_eigenvalues(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            matcore.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(matcore.singular_values(np.eye(4)).values, np.ones(4))

    def test_diagonal_with_sign(self):
        np.testing.assert_allclose(matcore.singular_values(np.diag([3.0, -4.0])).values, [4.0, 3.0])

    def test_nilpotent(self):
        # X^dag X = diag(0, 4)
        spec = matcore.singular_values(np.array([[0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(spec.values, [2.0, 0.0], atol=1e-15)
        assert spec.kind == "singular-values"

    def test_matches_eigenvalues_of_abs(self):
        rng = np.random.default_rng(7)
        for n in (3, 8):
            x = complex_gaussian(rng, (n, n))
            gram = x.conj().T @ x
            vals, vecs = np.linalg.eigh(gram)
            absx = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
            sv = matcore.singular_values(x).values
            ev = matcore.hermitian_eigenvalues(absx).values
            np.testing.assert_allclose(sv, ev, atol=1e-9)


class TestPartialTrace:
    def test_identity_second(self):
        np.testing.assert_allclose(matcore.partial_trace(np.eye(4), 2, "second"), 2 * np.eye(2))

    def test_product_factorization(self):
        rng = np.random.default_rng(3)
        a = complex_gaussian(rng, (3, 3))
        b = complex_gaussian(rng, (3, 3))
        big = np.kron(a, b)
        np.testing.assert_allclose(
            matcore.partial_trace(big, 3, "second"), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            matcore.partial_trace(big, 3, "first"), np.trace(a) * b, atol=1e-12
        )

    def test_identity_channel_dynamical(self):
        # D = sum_{mu,nu} |mu mu><nu nu|; tracing the principal factor leaves I
        v = np.eye(2, dtype=complex).reshape(-1)
        dyn = np.outer(v, v.conj())
        np.testing.assert_allclose(matcore.partial_trace(dyn, 2, "first"), np.eye(2), atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        x = complex_gaussian(rng, (9, 9))
        for sub in ("first", "second"):
            out = matcore.partial_trace(x, 3, sub)
            assert abs(np.trace(out) - np.trace(x)) <= 1e-9 * 9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matcore.partial_trace(np.eye(4), 3, "second")


class TestVec:
    def test_identity(self):
        np.testing.assert_array_equal(matcore.vec(np.eye(2)), [1, 0, 0, 1])

    def test_basis_matrix(self):
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        np.testing.assert_array_equal(matcore.vec(e01), [0, 1, 0, 0])

    def test_isometry_on_identity(self):
        v = matcore.vec(np.eye(2))
        assert v.conj() @ v == 2.0

    def test_isometry_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = complex_gaussian(rng, (8, 8))
            y = complex_gaussian(rng, (8, 8))
            lhs = matcore.vec(x).conj() @ matcore.vec(y)
            rhs = np.trace(x.conj().T @ y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            matcore.vec(np.ones((2, 3)))


class TestClampSpectrum:
    def test_small_negatives_become_zero(self):
        out = matcore.clamp_spectrum(np.array([2.0, -1e-12]), neg_tol=1e-9)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_positive_noise_becomes_zero(self):
        out = matcore.clamp_spectrum(np.array([2.0, 3e-16]), neg_tol=1e-9)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_genuine_values_survive(self):
        vals = np.array([1.0, 1e-3, 1e-9])
        np.testing.assert_array_equal(matcore.clamp_spectrum(vals, neg_tol=1e-9), vals)

    def test_large_negative_rejected(self):
        with pytest.raises(NotPositiveError):
            matcore.clamp_spectrum(np.array([1.0, -1e-3]), neg_tol=1e-9)


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(17)
        x = complex_gaussian(rng, (3, 5))
        obj = matcore.matrix_to_json(x)
        assert obj["rows"] == 3 and obj["cols"] == 5 and len(obj["re"]) == 15
        np.testing.assert_array_equal(matcore.matrix_from_json(obj), x)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matcore.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
