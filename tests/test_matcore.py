import sys

import numpy as np
import oracles
import pytest
from helpers import complex_gaussian

from chanent import matcore
from chanent.errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEigenvalues:
    def test_identity(self):
        spec = matcore.hermitian_eigenvalues(np.eye(2))
        np.testing.assert_allclose(spec, [1.0, 1.0])
        assert isinstance(spec, np.ndarray) and spec.dtype == np.float64

    def test_diagonal(self):
        spec = matcore.hermitian_eigenvalues(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(spec, [3.0, -1.0])

    def test_pauli_x(self):
        # characteristic polynomial x**2 - 1 = 0 by hand
        spec = matcore.hermitian_eigenvalues(PAULI_X)
        np.testing.assert_allclose(spec, [1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_sum_matches_trace(self, n):
        rng = np.random.default_rng(100 + n)
        g = complex_gaussian(rng, (n, n))
        h = (g + g.conj().T) / 2
        spec = matcore.hermitian_eigenvalues(h)
        assert abs(spec.sum() - np.trace(h).real) <= 1e-10
        assert np.all(np.diff(spec) <= 0)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            matcore.hermitian_eigenvalues(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            matcore.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_hermiticity_tolerance_is_relative(self, c):
        # the deviation is compared with HERM_TOL times the matrix's largest
        # entry: a relative asymmetry of 1e-12 passes at any scale, one of
        # 1e-6 fails at any scale, and a zero matrix passes
        x = np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]])
        np.testing.assert_allclose(matcore.hermitian_eigenvalues(c * x), c * np.array([2.0, 0.0]), atol=1e-11 * c)
        with pytest.raises(NotHermitianError, match="times the largest entry"):
            matcore.hermitian_eigenvalues(c * np.array([[1.0, 1.0 + 1e-6], [1.0, 1.0]]))
        assert not matcore.hermitian_eigenvalues(np.zeros((2, 2))).any()

    def test_nan_rejected(self):
        # a NaN entry leaves no spectrum, in any matrix of a stack
        x = np.stack([np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])])
        with pytest.raises(InvalidSpectrumError, match="must be finite"):
            matcore.hermitian_eigenvalues(x)


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(matcore.singular_values(np.eye(4)), np.ones(4))

    def test_diagonal_with_sign(self):
        np.testing.assert_allclose(matcore.singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_nilpotent(self):
        # X^dag X = diag(0, 4)
        spec = matcore.singular_values(np.array([[0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(spec, [2.0, 0.0], atol=1e-15)
        assert isinstance(spec, np.ndarray) and spec.dtype == np.float64

    def test_matches_eigenvalues_of_abs(self):
        rng = np.random.default_rng(7)
        for n in (3, 8):
            x = complex_gaussian(rng, (n, n))
            gram = x.conj().T @ x
            vals, vecs = np.linalg.eigh(gram)
            absx = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
            sv = matcore.singular_values(x)
            ev = matcore.hermitian_eigenvalues(absx)
            np.testing.assert_allclose(sv, ev, atol=1e-9)


class TestPartialTrace:
    def test_identity_second(self):
        np.testing.assert_allclose(matcore.partial_trace(np.eye(4), 2), 2 * np.eye(2))

    def test_product_factorization(self):
        rng = np.random.default_rng(3)
        a = complex_gaussian(rng, (3, 3))
        b = complex_gaussian(rng, (3, 3))
        big = np.kron(a, b)
        np.testing.assert_allclose(matcore.partial_trace(big, 3), a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(oracles.partial_trace_first(big, 3), np.trace(a) * b, atol=1e-12)

    def test_identity_channel_dynamical(self):
        # D = sum_{mu,nu} |mu mu><nu nu|; tracing the principal factor leaves I
        v = np.eye(2, dtype=complex).reshape(-1)
        dyn = np.outer(v, v.conj())
        np.testing.assert_allclose(oracles.partial_trace_first(dyn, 2), np.eye(2), atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        x = complex_gaussian(rng, (9, 9))
        for trace in (oracles.partial_trace_first, matcore.partial_trace):
            out = trace(x, 3)
            assert abs(np.trace(out) - np.trace(x)) <= 1e-9 * 9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matcore.partial_trace(np.eye(4), 3)


class TestVec:
    """The row-major ``vec`` layout the superoperator and the reshuffle are written in."""

    def test_identity(self):
        np.testing.assert_array_equal(oracles.vec(np.eye(2)), [1, 0, 0, 1])

    def test_basis_matrix(self):
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        np.testing.assert_array_equal(oracles.vec(e01), [0, 1, 0, 0])

    def test_isometry_on_identity(self):
        v = oracles.vec(np.eye(2))
        assert v.conj() @ v == 2.0

    def test_isometry_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = complex_gaussian(rng, (8, 8))
            y = complex_gaussian(rng, (8, 8))
            lhs = oracles.vec(x).conj() @ oracles.vec(y)
            rhs = np.trace(x.conj().T @ y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            oracles.vec(np.ones((2, 3)))


class TestClampSpectrum:
    def test_small_negatives_become_zero(self):
        out = matcore.clamp_spectrum(np.array([2.0, -1e-12]))
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_positive_noise_becomes_zero(self):
        out = matcore.clamp_spectrum(np.array([2.0, 3e-16]))
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_genuine_values_survive(self):
        vals = np.array([1.0, 1e-3, 1e-9])
        np.testing.assert_array_equal(matcore.clamp_spectrum(vals), vals)

    def test_large_negative_rejected(self):
        with pytest.raises(NotPositiveError):
            matcore.clamp_spectrum(np.array([1.0, -1e-3]))

    def test_negative_threshold_scales_with_the_largest_entry(self):
        # a decomposition's rounding scales with lam_max: -1 is within
        # eig_tol(2) lam_max = 2 of 0 in a spectrum whose largest entry is 1e9
        np.testing.assert_array_equal(matcore.clamp_spectrum(np.array([1e9, -1.0])), [1e9, 0.0])
        with pytest.raises(NotPositiveError, match=r"^eigenvalue -3.000000e\+00 below -2.0e\+00$"):
            matcore.clamp_spectrum(np.array([[1.0, 0.0], [1e9, -3.0]]))

    @pytest.mark.parametrize("c", [1e-150, 1e-12, 1.0, 1e150])
    def test_negative_threshold_is_relative_at_any_scale(self, c):
        # the threshold is eig_tol(m) max |lam| with no floor at 1: below
        # unit scale a negative semidefinite spectrum, or one whose negative
        # entry is as large as its positive one, is no PSD rounding
        np.testing.assert_array_equal(matcore.clamp_spectrum(c * np.array([1.0, -1e-10])), [c, 0.0])
        for bad in ([-1.0, 0.0], [1.0, -1.0], [1.0, -1e-8]):
            with pytest.raises(NotPositiveError):
                matcore.clamp_spectrum(c * np.array(bad))

    def test_nan_rejected(self):
        rows = np.array([[2.0, 1.0], [1.0, np.nan]])
        with pytest.raises(NotPositiveError, match="eigenvalue nan"):
            matcore.clamp_spectrum(rows)


@pytest.mark.parametrize("fn", [matcore.hermitian_eigenvalues, matcore.singular_values])
@pytest.mark.parametrize("x", [
    np.diag([np.inf, 1.0]),  # eigvalsh's symmetrization meets inf - inf, svd returns NaN
    np.array([[1.0, np.nan], [np.nan, 1.0]]),  # svd does not converge
], ids=["inf-diagonal", "nan-off-diagonal"])
def test_non_finite_entries_have_no_spectrum(fn, x):
    # a typed error, before numpy can warn (the suite runs with warnings as errors)
    with pytest.raises(InvalidSpectrumError, match="matrix entries must be finite"):
        fn(x)


@pytest.mark.parametrize("fn", [matcore.hermitian_eigenvalues, matcore.singular_values])
def test_spectrum_beyond_the_double_range_is_no_spectrum(fn):
    # finite entries, but the largest eigenvalue and singular value are 2.7e308
    with pytest.raises(InvalidSpectrumError, match="beyond the double range"):
        fn(np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))


def test_largest_doubles_are_symmetrized_without_overflow():
    # X + X^dag overflows for both, X/2 + X^dag/2 does not; a deviation
    # beyond a double is over any tolerance, not a warning
    np.testing.assert_array_equal(matcore.hermitian_eigenvalues(np.diag([1e308, 5e307])), [1e308, 5e307])
    with pytest.raises(NotHermitianError):
        matcore.hermitian_eigenvalues(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))


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

    @pytest.mark.parametrize("rows, cols", [(0, 0), (1, 0), (2.9, 1), (2, True), ("2", 1), (2.0, 1)])
    def test_sizes_are_integers_from_1(self, rows, cols):
        # an empty matrix has no spectrum, and 2.9, true or "2" is no size
        entries = [0.0] * (int(rows) * int(cols))
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            matcore.matrix_from_json({"rows": rows, "cols": cols, "re": entries, "im": entries})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("entry", [
        "1", True, None, [1.0], {"re": 1.0},
        # no float holds it: numpy raised OverflowError
        pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400"),
    ])
    def test_entries_are_numbers(self, part, entry):
        obj = matcore.matrix_to_json(np.eye(2))
        obj[part][1] = entry
        with pytest.raises(ValueError, match=f"'{part}' entry 1 must be a number"):
            matcore.matrix_from_json(obj)

    def test_an_integer_entry_up_to_the_largest_double_is_a_number(self):
        top = int(sys.float_info.max)
        m = matcore.matrix_from_json({"rows": 1, "cols": 2, "re": [top, -top], "im": [0, 0]})
        np.testing.assert_array_equal(m, [[sys.float_info.max, -sys.float_info.max]])

    @pytest.mark.parametrize("entries", ["1234", {"a": 1}, 1.0])
    def test_entries_are_a_list(self, entries):
        with pytest.raises(ValueError, match="'re' must be a list of numbers"):
            matcore.matrix_from_json({"rows": 1, "cols": 1, "re": entries, "im": [0.0]})

    def test_numpy_numbers_are_numbers(self):
        obj = {"rows": 1, "cols": 2, "re": [np.float32(0.5), np.int64(2)], "im": [0, np.float64(-1.0)]}
        np.testing.assert_array_equal(matcore.matrix_from_json(obj), [[0.5, 2.0 - 1.0j]])

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, part, entry):
        obj = matcore.matrix_to_json(np.eye(2))
        obj[part][1] = entry
        with pytest.raises(ValueError, match="finite"):
            matcore.matrix_from_json(obj)


class TestStacks:
    """A stack (n, m, m) gives each matrix's result, and is checked matrix by matrix."""

    @staticmethod
    def _psd_stack(seed, n=6, m=3):
        g = complex_gaussian(np.random.default_rng(seed), (n, m, m))
        return g @ g.conj().swapaxes(-2, -1)

    def test_spectra_match_per_matrix_calls(self):
        x = self._psd_stack(171)
        eig = matcore.hermitian_eigenvalues(x)
        sv = matcore.singular_values(x)
        assert eig.shape == sv.shape == (6, 3)
        for i, m in enumerate(x):
            np.testing.assert_array_equal(eig[i], matcore.hermitian_eigenvalues(m))
            np.testing.assert_array_equal(sv[i], matcore.singular_values(m))

    def test_hermiticity_checked_per_matrix(self):
        x = self._psd_stack(173)
        x[0] *= 1e6  # a large matrix with rounding-level asymmetry still passes
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        x[4] = bad
        with pytest.raises(NotHermitianError) as stacked:
            matcore.hermitian_eigenvalues(x)
        with pytest.raises(NotHermitianError) as single:
            matcore.hermitian_eigenvalues(bad)
        assert str(stacked.value) == str(single.value)

    def test_non_square_stack_names_the_matrix_shape(self):
        with pytest.raises(NonSquareError, match=r"\(2, 3\)"):
            matcore.hermitian_eigenvalues(np.ones((4, 2, 3)))

    def test_clamp_per_row(self):
        rows = np.array([[2.0, 1e-13, -1e-12], [1e-20, 0.0, -1e-30], [5.0, 3e-16, 1.0]])
        out = matcore.clamp_spectrum(rows)
        for got, row in zip(out, rows):
            np.testing.assert_array_equal(got, matcore.clamp_spectrum(row))
        rows[2, 2] = -1e-3
        with pytest.raises(NotPositiveError, match="-1.000000e-03"):
            matcore.clamp_spectrum(rows)

    def test_partial_trace_per_matrix(self):
        x = complex_gaussian(np.random.default_rng(179), (3, 9, 9))
        for trace in (oracles.partial_trace_first, matcore.partial_trace):
            got = trace(x, 3)
            for i, m in enumerate(x):
                np.testing.assert_array_equal(got[i], trace(m, 3))

    def test_real_input_stays_real(self):
        x = np.random.default_rng(181).normal(size=(3, 5, 5))
        assert matcore.as_matrices(x).dtype == np.float64
        assert matcore.as_matrices(x.astype(np.float32)).dtype == np.float64
        assert matcore.as_matrices([[1, 2], [3, 4]]).dtype == np.float64
        assert matcore.as_matrices(x + 0j).dtype == np.complex128
        real = matcore.singular_values(x)
        np.testing.assert_allclose(real, np.linalg.svd(x + 0j, compute_uv=False), rtol=1e-14, atol=1e-14)
        sym = x + x.swapaxes(-2, -1)
        np.testing.assert_allclose(
            matcore.hermitian_eigenvalues(sym), matcore.hermitian_eigenvalues(sym + 0j), atol=1e-13
        )

    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionMismatchError):
            matcore.singular_values(np.ones((2, 2, 2, 2)))
        with pytest.raises(DimensionMismatchError, match="expected a 2-D matrix, got ndim=3"):
            matcore.as_matrix(np.ones((2, 2, 2)))
