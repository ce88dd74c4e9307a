import math
import re

import mpmath
import numpy as np
import oracles
import pytest
from helpers import (
    complex_gaussian,
    drawn_stacks,
    noisy_depolarizing,
    population,
    profile,
    random_psd,
    random_unitary,
    stack_channels,
)

from chanent import channel as chmod
from chanent import cli, matcore, sampler, spectra
from chanent.errors import (
    DimensionMismatchError,
    InvalidOrderError,
    InvalidSpectrumError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)


class TestNormOrder:
    def test_regimes(self):
        # an order's regime picks the norm (q >= 1) or the anti-norm (q < 1),
        # as the oracle dispatches one matrix at a time
        x = np.diag([1.0, 4.0])
        for q in (1.0, math.inf, 2.5):
            assert spectra.schatten_norm(x, q) == pytest.approx(oracles.schatten(x, q), rel=1e-14)
        for q in (0.5, -1.0):
            assert spectra.schatten_antinorm(x, q) == pytest.approx(oracles.schatten(x, q), rel=1e-14)

    def test_zero_rejected(self):
        for schatten in (spectra.schatten_norm, spectra.schatten_antinorm):
            with pytest.raises(InvalidOrderError):
                schatten(np.eye(2), 0.0)


class TestInfiniteOrders:
    """q = inf is the spectral norm and nothing else; the checks take finite orders."""

    X = np.diag([1.0, 4.0])

    @pytest.mark.parametrize("check", [
        lambda x, q: spectra.check_prop1(x, q),
        lambda x, q: spectra.check_prop1(x, [2.0, q]),
        lambda x, q: spectra.check_antinorm_monotonicity(x, 0.5, q),
        lambda x, q: spectra.check_antinorm_monotonicity(x, q, 0.5),
        lambda x, q: spectra.check_superadditivity(x, x, q),
    ])
    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_checks_reject_infinite_orders(self, check, q):
        with pytest.raises(InvalidOrderError):
            check(self.X[None], q)

    @pytest.mark.parametrize("check", [
        lambda x: spectra.check_prop1(x, []),
        lambda x: spectra.check_antinorm_monotonicity(x, [], []),
        lambda x: spectra.check_superadditivity(x, x, []),
    ])
    def test_checks_reject_empty_orders(self, check):
        # no order is an order error, before any stacking
        with pytest.raises(InvalidOrderError, match="at least one order"):
            check(self.X[None])

    def test_antinorm_rejects_minus_inf(self):
        for fn in (spectra.schatten_antinorm, spectra.schatten_norm):
            with pytest.raises(InvalidOrderError):
                fn(self.X, -math.inf)

    def test_spectral_norm_stays(self):
        assert spectra.schatten_norm(self.X, math.inf) == 4.0


class TestSchattenNorm:
    def test_frobenius_of_identity(self):
        assert abs(spectra.schatten_norm(np.eye(4), 2.0) - 2.0) <= 1e-14

    def test_trace_and_spectral_norms(self):
        x = np.diag([3.0, -4.0])
        assert abs(spectra.schatten_norm(x, 1.0) - 7.0) <= 1e-14
        assert abs(spectra.schatten_norm(x, math.inf) - 4.0) <= 1e-14

    def test_frobenius_equals_entry_sum(self):
        rng = np.random.default_rng(61)
        x = complex_gaussian(rng, (6, 6))
        entry_form = math.sqrt(float(np.sum(np.abs(x) ** 2)))
        assert abs(spectra.schatten_norm(x, 2.0) - entry_form) <= 1e-12 * entry_form

    def test_trace_norm_of_dynamical_matrix_is_dim(self):
        for _, d, _, ch in population(908, (2, 3, 4), ("cptp", "unitary-mixture"), 3):
            dyn = chmod.dynamical_from_kraus(ch)
            assert abs(spectra.schatten_norm(dyn, 1.0) - d) <= 1e-10 * d

    def test_rejects_antinorm_orders(self):
        with pytest.raises(InvalidOrderError):
            spectra.schatten_norm(np.eye(2), 0.5)


class TestSchattenAntinorm:
    def test_flat_spectrum(self):
        # all eigenvalues 1: (d * 1)**(1/q) = 4 at q = 1/2, d = 2
        assert abs(spectra.schatten_antinorm(np.eye(2), 0.5) - 4.0) <= 1e-13

    def test_half_order(self):
        assert abs(spectra.schatten_antinorm(np.diag([1.0, 4.0]), 0.5) - 9.0) <= 1e-12

    def test_negative_order(self):
        got = spectra.schatten_antinorm(np.diag([1.0, 2.0]), -1.0)
        assert abs(got - 2.0 / 3.0) <= 1e-14

    def test_rejects_norm_orders(self):
        with pytest.raises(InvalidOrderError):
            spectra.schatten_antinorm(np.eye(2), 1.5)

    def test_negative_order_needs_strict_positivity(self):
        with pytest.raises(NotPositiveError):
            spectra.schatten_antinorm(np.diag([1.0, 0.0]), -1.0)

    def test_strict_positivity_threshold_sits_between_1e_11_and_1e_9_of_the_largest(self):
        # literal thresholds, not STRICT_POS_TOL: a smallest eigenvalue at
        # 1e-11 of the largest is refused by a negative order, one at 1e-9 is taken
        with pytest.raises(NotPositiveError, match="min eigenvalue 1.000e-11"):
            spectra.schatten_antinorm(np.diag([1.0, 1e-11]), -0.5)
        got = spectra.schatten_antinorm(np.diag([1.0, 1e-9]), -0.5)
        assert got == pytest.approx((1.0 + 1e-9**-0.5) ** -2.0, rel=1e-13)

    def test_zero_eigenvalues_contribute_nothing(self):
        assert abs(spectra.schatten_antinorm(np.diag([1.0, 0.0]), 0.5) - 1.0) <= 1e-13


class TestSymmetryProperties:
    def test_unitary_invariance(self):
        rng = np.random.default_rng(67)
        x = complex_gaussian(rng, (5, 5))
        u = random_unitary(rng, 5)
        for q in (1.0, 2.0, 3.7, math.inf):
            a = spectra.schatten_norm(u @ x @ u.conj().T, q)
            b = spectra.schatten_norm(x, q)
            assert abs(a - b) <= 1e-10 * max(1.0, b)
        p = random_psd(rng, 5) + 0.1 * np.eye(5)
        for q in (0.5, -1.0):
            a = spectra.schatten_antinorm(u @ p @ u.conj().T, q)
            b = spectra.schatten_antinorm(p, q)
            assert abs(a - b) <= 1e-10 * max(1.0, b)

    def test_homogeneity(self):
        rng = np.random.default_rng(71)
        p = random_psd(rng, 4) + 0.1 * np.eye(4)
        for q, c in ((2.5, 3.7), (0.5, 0.13), (-2.0, 5.0)):
            schatten = spectra.schatten_norm if q >= 1.0 else spectra.schatten_antinorm
            scaled = schatten(c * p, q)
            base = schatten(p, q)
            assert abs(scaled - c * base) <= 1e-10 * max(1.0, c * base)

    @pytest.mark.parametrize("c", [1e-150, 1e-6, 1e6, 1e150])
    def test_homogeneity_at_any_scale(self, c):
        # m exp(ln(n)/q + t): the scale enters through m alone, and the
        # tolerances are relative, so c X reads c times |X| at every order
        x = _psd_stack(3, 201, 20) + np.eye(3)  # strictly positive, for q < 0
        for schatten, orders in ((spectra.schatten_norm, (1.0, 1.5, 2.0, 3.7, math.inf)),
                                 (spectra.schatten_antinorm, (0.3, 0.5, -0.5, -2.0))):
            for q in orders:
                np.testing.assert_allclose(schatten(c * x, q), c * schatten(x, q), rtol=1e-14, atol=0.0, err_msg=q)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_continuity_across_q_one(self, eps):
        for n, c in ((3, 0.7), (16, 2.1)):
            x = c * np.eye(n)
            trace_norm = c * n
            below = spectra.schatten_antinorm(x, 1.0 - eps)
            above = spectra.schatten_norm(x, 1.0 + eps)
            assert abs(below - trace_norm) / trace_norm <= 10 * eps
            assert abs(above - trace_norm) / trace_norm <= 10 * eps


class TestCheckProp1:
    def test_flat_spectrum_saturates(self):
        batch = spectra.check_prop1(np.eye(5)[None], (0.3, 1.5, 2.0, 4.0))
        assert batch.passed.all() and np.abs(batch.slack).max() <= 1e-10

    def test_rank_one_saturates(self):
        x = np.diag([1.0, 0.0, 0.0])
        batch = spectra.check_prop1(x[None], 3.0)
        assert batch.passed.all() and abs(batch.slack[0, 0]) <= 1e-10
        want = oracles.check_prop1(x, 3.0)
        assert want.lhs == pytest.approx(1.0) and want.rhs == pytest.approx(1.0) and want.slack == 0.0

    def test_identities_at_one_and_two_read_exactly_zero(self):
        # at q = 1 and q = 2 both sides are the same sum
        for x in (_psd_stack(3, 201), _rank_deficient_stack(931)):
            batch = spectra.check_prop1(x, [1.0, 2.0])
            assert batch.passed.all() and (batch.slack == 0.0).all()

    def test_direction_flips_at_two(self):
        # a slack is the margin in its order's direction: a flip the oracle
        # makes and the library does not would flip the slack's sign
        x = random_psd(np.random.default_rng(73), 8)
        orders = (1.5, 3.0, 0.5)
        want = [oracles.check_prop1(x, q) for q in orders]
        assert [rep.direction for rep in want] == ["<=", ">=", ">="]
        slack = spectra.check_prop1(x[None], orders).slack[0]
        assert (slack > 0).all() and slack == pytest.approx([rep.slack for rep in want], rel=1e-9)

    @pytest.mark.parametrize("q", [0.3, 0.7, 1.2, 1.8, 2.0, 2.5, 4.0])
    def test_random_psd_passes(self, q):
        rng = np.random.default_rng(79)
        for n in (2, 5, 11):
            batch = spectra.check_prop1(np.stack([random_psd(rng, n) for _ in range(10)]), q)
            assert batch.first_failure() is None, (q, n, batch.first_failure())

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            spectra.check_prop1(np.zeros((1, 2, 2)), 1.5)

    def test_strict_positivity_is_relative(self):
        # a q < 0 order compares the smallest eigenvalue with the largest:
        # 1e-150 (G G^dag + I) is strictly positive, diag(1, 0) is not
        x = _psd_stack(2, 201, 20) + np.eye(2)
        batch = spectra.check_prop1(1e-150 * x, -1.0)
        assert batch.passed.all()
        assert np.abs(batch.slack - spectra.check_prop1(x, -1.0).slack).max() <= 1e-12
        with pytest.raises(NotPositiveError, match="times the largest"):
            spectra.check_prop1(np.diag([1.0, 0.0])[None], -1.0)

    @pytest.mark.parametrize("orders", [(0.5, -1.0), (-1.0, 0.5)])
    def test_mixed_signs_on_an_indefinite_stack(self, orders):
        # the strict positivity a negative order needs is checked before the
        # clamp, whatever the order of the orders
        with pytest.raises(NotPositiveError, match="strictly positive"):
            spectra.check_prop1(np.diag([1.0, -1.0])[None], orders)

    @pytest.mark.parametrize("q", [600.0, 1e300])
    def test_large_orders_compare_the_sides_scaled(self, q):
        # the power sums are beyond a double for the suite's first d = 2
        # inputs, whose largest eigenvalue reaches 11.7, and for 20 I, which
        # saturates; the slack is the exact one of the unrounded sides, with
        # digits to spare beyond the log10(q) that the exponents take
        x = np.concatenate([_psd_stack(2, 201, 8), [20.0 * np.eye(2), np.diag([2.0, 1.0])]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(matcore.singular_values(x) ** q).all()
        batch = spectra.check_prop1(x, q)
        assert batch.passed.all()
        with mpmath.workdps(30 + int(math.log10(q))):
            order = mpmath.mpf(q)
            for slack, m in zip(batch.slack[:, 0], x):
                vals = [mpmath.mpf(float(v)) for v in matcore.singular_values(m)]
                lhs = mpmath.fsum(v**order for v in vals)
                rhs = mpmath.fsum(v**2 for v in vals) ** (order - 1) * mpmath.fsum(vals) ** (2 - order)
                assert abs(slack - float((lhs - rhs) / max(lhs, rhs))) <= 1e-12

    @pytest.mark.parametrize("q", [0.5, 1.5, 3.0, 4.0])
    def test_tiny_spectra_compare_the_sides_scaled(self, q):
        # the squares of diag(1e-200, 1e-201) underflow, so |X|_2 is 0 as a
        # double; the slack is that of the same matrix scaled
        assert (np.array([1e-200, 1e-201]) ** 2).sum() == 0.0
        batch = spectra.check_prop1(np.diag([1e-200, 1e-201])[None], [q])
        want = spectra.check_prop1(np.diag([1.0, 0.1])[None], q).slack[0, 0]
        assert batch.passed.all() and want > 1e-3
        assert batch.slack[0, 0] == pytest.approx(want, rel=1e-12)


class TestCheckTwoInfOne:
    def test_identity_saturates(self):
        batch = spectra.check_two_inf_one(np.eye(6)[None])
        assert batch.passed[0, 0] and abs(batch.slack[0, 0]) <= 1e-12

    def test_rank_one_projector_saturates(self):
        p = np.zeros((1, 4, 4))
        p[0, 0, 0] = 1.0
        batch = spectra.check_two_inf_one(p)
        assert batch.passed[0, 0] and abs(batch.slack[0, 0]) <= 1e-12

    def test_random_matrix_strict(self):
        rng = np.random.default_rng(83)
        batch = spectra.check_two_inf_one(complex_gaussian(rng, (16, 16))[None])
        assert batch.passed[0, 0] and batch.slack[0, 0] > 1e-3

    def test_large_entries_compare_the_sides_in_logs(self):
        # 3e155**2 overflows, so both sides of the first matrix are beyond a
        # double: its slack comes from the singular values scaled by the
        # largest, and equals the slack of diag(3, 1), 1 - sqrt(10/12); the
        # zero matrix in the same stack has slack 0
        x = np.stack([np.diag([3e155, 1e155]), np.diag([3.0, 1.0]), np.zeros((2, 2))])
        with np.errstate(over="ignore"):
            assert np.float64(3e155) ** 2 == math.inf
        batch = spectra.check_two_inf_one(x)
        assert batch.passed.all() and batch.slack[2, 0] == 0.0
        assert abs(batch.slack[0, 0] - (1.0 - math.sqrt(10.0 / 12.0))) <= 1e-15
        assert abs(batch.slack[0, 0] - batch.slack[1, 0]) <= 1e-15


class TestCheckSuperopNormBound:
    def test_identity_channel_saturates_unital_bound(self):
        ch = sampler.named_channel("identity", 2)
        batch = spectra.check_superop_norm_bound(profile(ch))
        assert batch.passed[0, 0] and abs(batch.slack[0, 0]) <= 1e-12
        want = oracles.check_superop_norm_bound(ch)
        assert want.lhs == pytest.approx(1.0, abs=1e-12) and want.rhs == pytest.approx(1.0, abs=1e-12)

    def test_completely_depolarizing_saturates(self):
        batch = spectra.check_superop_norm_bound(profile(sampler.named_channel("completely-depolarizing", 2)))
        assert batch.passed[0, 0] and abs(batch.slack[0, 0]) <= 1e-10

    def test_tp_noisy_depolarizing_passes(self):
        # admitted within TP_TOL with its Kraus set scaled by 1 + 4.5e-9:
        # |K|_inf = (1 + 4.5e-9)**2 against the unital bound 1
        ch = noisy_depolarizing()
        prof = profile(ch)
        batch = spectra.check_superop_norm_bound(prof)
        assert prof.superop_spectrum[0, 0] == pytest.approx(1.0 + 9e-9, abs=1e-12)
        assert batch.slack[0, 0] == pytest.approx(-9e-9, abs=1e-12)
        assert batch.passed[0, 0] and oracles.check_superop_norm_bound(ch).passed

    def test_tp_noisy_unitary_passes(self):
        # the bound is tight on a unitary channel, so any scale error reaches it
        ch = chmod.check_kraus_stack(sampler.named_channel("unitary", 3, 0.7)[None] * (1.0 + 4.5e-9))[0]
        batch = spectra.check_superop_norm_bound(profile(ch))
        assert batch.slack[0, 0] < -8e-9
        assert batch.passed[0, 0] and oracles.check_superop_norm_bound(ch).passed

    @pytest.mark.parametrize("excess, passed", [(0.5e-8, True), (2e-8, False)])
    def test_relative_slack_is_tp_tol(self, excess, passed):
        def stack(k_inf, unital):
            return chmod.ChannelProfile(
                channel_id=("",),
                dim=4,
                unital=np.array([unital]),
                choi_spectrum=np.ones((1, 16)),
                superop_spectrum=np.full((1, 16), k_inf),
                tr2=np.diag([2.0, 1.0, 0.5, 0.5])[None],  # all-channel bound sqrt(4 * 2 / 4)
            )

        unital = spectra.check_superop_norm_bound(stack(1.0 + excess, True))
        plain = spectra.check_superop_norm_bound(stack(math.sqrt(2.0) * (1.0 + excess), False))
        assert unital.passed.tolist() == plain.passed.tolist() == [[passed]]

    def test_random_nonunital_holds_with_slack(self):
        prof = profile(sampler.sample_stack("cptp", 3, [oracles.derive_seed(909, 0, 3, 0)])[0])
        assert not prof.unital[0]
        batch = spectra.check_superop_norm_bound(prof)
        assert batch.passed[0, 0] and batch.slack[0, 0] > 0


class TestCheckAntinormMonotonicity:
    def test_small_order_compares_the_sides_in_logs(self):
        # |X|_p overflows at p = 1e-5, and exceeds |X|_q by a factor beyond a double
        x = random_psd(np.random.default_rng(107), 4)[None]
        batch = spectra.check_antinorm_monotonicity(x, 1e-5, 0.5)
        assert spectra.schatten_antinorm(x, 1e-5)[0] == math.inf
        assert batch.passed[0, 0] and batch.slack[0, 0] == 1.0

    def test_flat_spectrum(self):
        # |I|_{1/2} = 4 against |I|_{1/3} = 8
        batch = spectra.check_antinorm_monotonicity(np.eye(2)[None], 1.0 / 3.0, 0.5)
        assert batch.passed[0, 0] and batch.slack[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_worked_example(self):
        # |X|_1 = 5 against |X|_{1/2} = 9
        batch = spectra.check_antinorm_monotonicity(np.diag([1.0, 4.0])[None], 0.5, 1.0)
        assert batch.passed[0, 0] and batch.slack[0, 0] == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_random_psd(self):
        rng = np.random.default_rng(89)
        x = np.stack([random_psd(rng, 6) for _ in range(10)])
        assert spectra.check_antinorm_monotonicity(x, 0.2, 0.8).passed.all()

    def test_order_validation(self):
        with pytest.raises(InvalidOrderError):
            spectra.check_antinorm_monotonicity(np.eye(2)[None], 0.8, 0.2)
        with pytest.raises(InvalidOrderError, match="as many p as q, got 2 and 1"):
            spectra.check_antinorm_monotonicity(np.eye(2)[None], [0.2, 0.3], [0.8])

    def test_negative_semidefinite_of_small_norm_is_rejected(self):
        # -1e-12 is the largest |eigenvalue|, so it is no PSD rounding
        with pytest.raises(NotPositiveError):
            spectra.check_antinorm_monotonicity(np.diag([-1e-12, 0.0])[None], 0.5, 1.0)


def mp_superadditivity_slack(x, y, q):
    """``(|X+Y|_q - |X|_q - |Y|_q) / |X+Y|_q``: eigenvalues in 60 digits, anti-norms in
    enough digits that ``lambda**q - 1`` keeps 60 of its own."""
    with mpmath.workdps(60):
        eigs = [mpmath.eighe(mpmath.matrix(m.tolist()))[0] for m in (x + y, x, y)]
    with mpmath.workdps(60 + int(-math.log10(abs(q)))):
        qq = mpmath.mpf(q)
        total, a, b = (mpmath.fsum(mpmath.re(v) ** qq for v in e) ** (1 / qq) for e in eigs)
        return float((total - a - b) / total)


class TestCheckSuperadditivity:
    def test_equal_flat_operands_saturate(self):
        batch = spectra.check_superadditivity(np.eye(3)[None], np.eye(3)[None], 0.5)
        assert batch.passed[0, 0] and abs(batch.slack[0, 0]) <= 1e-12
        assert spectra.schatten_antinorm(2.0 * np.eye(3), 0.5) == pytest.approx(18.0)  # (3 sqrt(2))**2

    def test_commuting_rank_deficient(self):
        # |I|_{1/2} = 4 against 1 + 1
        batch = spectra.check_superadditivity(np.diag([1.0, 0.0])[None], np.diag([0.0, 1.0])[None], 0.5)
        assert batch.passed[0, 0] and batch.slack[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_random_pairs(self):
        rng = np.random.default_rng(97)
        for q in (0.7, -0.5):
            x = random_psd(rng, 6) + 0.05 * np.eye(6)
            y = random_psd(rng, 6) + 0.05 * np.eye(6)
            assert spectra.check_superadditivity(x[None], y[None], q).passed.all()

    def test_large_rank_one_operands_are_psd(self):
        # 1e7 v v^dag has an eigenvalue of about -8.7e-8 from rounding, and
        # 1e150 v v^dag with one entry one ulp off deviates from Hermitian by
        # 3.6e134: both within their tolerances relative to the largest entry
        v = np.arange(1, 7) * (1 + 0.5j)
        huge = 1e150 * np.outer(v, v.conj())
        huge[0, 1] = np.nextafter(huge[0, 1].real, np.inf) + 1j * huge[0, 1].imag
        psd = random_psd(np.random.default_rng(101), 6)
        for x in (1e7 * np.outer(v, v.conj()), huge):
            for y in (x, np.abs(x).max() * psd):
                assert spectra.check_superadditivity(x[None], y[None], [0.3, 0.5, 0.9]).passed.all()

    def test_rejects_norm_orders(self):
        with pytest.raises(InvalidOrderError):
            spectra.check_superadditivity(np.eye(2)[None], np.eye(2)[None], 1.5)

    def test_indefinite_operands_of_small_norm_are_rejected(self):
        x, y = np.diag([1e-12, -1e-12])[None], np.diag([-1e-12, 1e-12])[None]
        with pytest.raises(NotPositiveError):
            spectra.check_superadditivity(x, y, 0.5)

    @pytest.mark.parametrize("q", [1e-5, 3e-16, 1e-300, -1e-5, -1e-300])
    def test_small_orders_compare_the_sides_in_logs(self, q):
        # (sum lambda**q)**(1/q) overflows once 1/q is large, and underflows
        # to 0 once -1/q is: both sides are infinite, or 0, as doubles, and
        # the slack comes from their logarithms, here against the anti-norms
        # in high precision (the inputs are positive definite)
        rng = np.random.default_rng(103)
        for n in (2, 5):
            x, y = random_psd(rng, n), random_psd(rng, n)
            batch = spectra.check_superadditivity(x[None], y[None], q)
            assert spectra.schatten_antinorm(x + y, q) == (math.inf if q > 0 else 0.0)
            assert batch.passed[0, 0] and abs(batch.slack[0, 0] - mp_superadditivity_slack(x, y, q)) <= 1e-12

    @pytest.mark.parametrize("q", [1e-310, 1e-320, 5e-324, -1e-310])
    def test_subnormal_orders_give_the_geometric_mean_limit(self, q):
        # ln(n)/q overflows at a subnormal q, and the equal-rank parts used to
        # cancel as inf - inf (or underflow to a vacuous slack of 0 for
        # q < 0); as q -> 0 the slack tends to 1 - (G(X) + G(Y))/G(X + Y),
        # with G the geometric mean of the eigenvalues
        rng = np.random.default_rng(107)
        for n in (2, 5):
            x, y = random_psd(rng, n), random_psd(rng, n)
            with mpmath.workdps(60):
                eigs = [mpmath.eighe(mpmath.matrix(m.tolist()))[0] for m in (x + y, x, y)]
                total, a, b = (mpmath.exp(mpmath.fsum(mpmath.log(mpmath.re(v)) for v in e) / n) for e in eigs)
                want = float(1 - (a + b) / total)
            batch = spectra.check_superadditivity(x[None], y[None], q)
            assert spectra.schatten_antinorm(x + y, q) == (math.inf if q > 0 else 0.0)
            assert batch.passed[0, 0] and abs(batch.slack[0, 0] - want) <= 1e-15

    def test_small_orders_keep_the_saturation(self):
        eye = np.eye(3)
        batch = spectra.check_superadditivity([eye, eye], [eye, 2.0 * eye], [1e-5, 1e-300])
        assert batch.passed.all() and np.abs(batch.slack).max() <= 1e-12


class TestCheckNormProductChain:
    def test_bound_per_family(self):
        pop = drawn_stacks(910, (2, 3), ("cptp", "unitary-mixture", "unistochastic"), 4)
        for family, d, ids, ops in pop:
            batch = spectra.check_norm_product_chain(chmod.profile_channel(ops, ids))
            assert batch.first_failure() is None, (family, d, batch.first_failure())
            bound = d if family in ("unitary-mixture", "unistochastic") else math.sqrt(d)
            for ch in ops:
                assert oracles.check_norm_product_chain(ch).lhs >= bound - 1e-9

    def test_trace_route_matches_the_oracle(self):
        # the check reads Tr D and |K|_2 for |D|_1 and |D|_2; the oracle
        # decomposes D and K, each norm taken from its own spectrum
        sampled = [ch for _, _, _, ch in population(911, (2, 3), SUITE.families, 5)]
        named = [
            sampler.named_channel(name, d, param)
            for d in (2, 3)
            for name, param in (("identity", None), ("completely-depolarizing", None),
                                ("depolarizing", 0.3), ("dephasing", 0.6), ("unitary", 0.7))
        ]
        named.append(sampler.named_channel("amplitude-damping", 2, 0.4))
        for ch in [*sampled, *named, noisy_depolarizing()]:
            batch = spectra.check_norm_product_chain(profile(ch))
            want = oracles.check_norm_product_chain(ch)
            assert abs(batch.slack[0, 0] - want.slack) <= 1e-12
            assert batch.passed[0, 0] == want.passed


# The suite's own population: the CLI's default seed and sample count.
SUITE = cli.SweepConfig()
MONOTONICITY_PAIRS = ((0.2, 0.8), (1.0 / 3.0, 0.5), (0.5, 1.0))


def _ginibre_stack(d, stream, count=SUITE.samples_per_family):
    (*_, g), = drawn_stacks(SUITE.seed, (d,), ("mat",), count, stream)
    return g


def _psd_stack(d, stream, count=SUITE.samples_per_family):
    (*_, x), = drawn_stacks(SUITE.seed, (d,), ("psd",), count, stream)
    return x


def _rank_deficient_stack(seed, d=4, rank=2, count=20):
    g = complex_gaussian(np.random.default_rng(seed), (count, d, rank))
    return g @ g.conj().swapaxes(-2, -1)


def _psd_cases():
    """(stack, full rank) for the default suite dimensions, d = 4, and a rank-2 stack."""
    cases = [pytest.param(_psd_stack(d, 201), True, id=f"d{d}") for d in (2, 3)]
    cases.append(pytest.param(_psd_stack(4, 201, 20), True, id="d4"))
    cases.append(pytest.param(_rank_deficient_stack(931), False, id="rank-deficient"))
    return cases


def _assert_matches(batch, oracle):
    """Slack within 1e-12 relative (floored at 1), so of the oracle's direction, and equal verdicts, entry by entry."""
    assert batch.slack.shape == (len(oracle), len(oracle[0]))
    for i, row in enumerate(oracle):
        for j, rep in enumerate(row):
            slack = batch.slack[i, j]
            assert abs(slack - rep.slack) <= 1e-12 * max(abs(slack), abs(rep.slack), 1.0), (i, j)
            assert batch.passed[i, j] == rep.passed, (i, j)


class TestBatchedChecksMatchOracles:
    @pytest.mark.parametrize("x, full_rank", _psd_cases())
    def test_prop1(self, x, full_rank):
        orders = SUITE.q_grid + ((-0.5,) if full_rank else ())
        batch = spectra.check_prop1(x, orders)
        _assert_matches(batch, [[oracles.check_prop1(m, q) for q in orders] for m in x])

    @pytest.mark.parametrize("d, count", [(2, 50), (3, 50), (4, 20)])
    def test_two_inf_one(self, d, count):
        x = _ginibre_stack(d, 202, count)
        _assert_matches(spectra.check_two_inf_one(x), [[oracles.check_two_inf_one(m)] for m in x])

    @pytest.mark.parametrize("x, full_rank", _psd_cases())
    def test_antinorm_monotonicity(self, x, full_rank):
        ps, qs = zip(*MONOTONICITY_PAIRS)
        batch = spectra.check_antinorm_monotonicity(x, ps, qs)
        oracle = [[oracles.check_antinorm_monotonicity(m, p, q) for p, q in MONOTONICITY_PAIRS] for m in x]
        _assert_matches(batch, oracle)

    @pytest.mark.parametrize("x, full_rank", _psd_cases())
    def test_superadditivity(self, x, full_rank):
        y = x[::-1] + 0.0  # a different partner for every input
        orders = (0.3, 0.5, 0.9) + ((-0.5,) if full_rank else ())
        batch = spectra.check_superadditivity(x, y, orders)
        oracle = [[oracles.check_superadditivity(a, b, q) for q in orders] for a, b in zip(x, y)]
        _assert_matches(batch, oracle)

    @pytest.mark.parametrize("d, count", [(2, 50), (3, 50), (4, 10)])
    def test_channel_checks(self, d, count):
        chs = [ch for _, _, _, ch in population(SUITE.seed, (d,), SUITE.families, count, stream=100)]
        stack = chmod.profile_channel(stack_channels(chs))
        _assert_matches(
            spectra.check_superop_norm_bound(stack), [[oracles.check_superop_norm_bound(ch)] for ch in chs]
        )
        _assert_matches(
            spectra.check_norm_product_chain(stack), [[oracles.check_norm_product_chain(ch)] for ch in chs]
        )

    def test_one_matrix_is_rejected(self):
        # the checks take stacks only: one matrix is a stack of one
        x = np.diag([1.0, 4.0])
        checks = (
            lambda m: spectra.check_prop1(m, [1.5, 3.0]),
            spectra.check_two_inf_one,
            lambda m: spectra.check_antinorm_monotonicity(m, 0.5, 1.0),
            lambda m: spectra.check_superadditivity(m, m, 0.5),
        )
        for check in checks:
            with pytest.raises(DimensionMismatchError):
                check(x)
            assert isinstance(check(x[None]), spectra.InequalityBatch)
        assert spectra.check_prop1(x[None], [1.5, 3.0]).slack.shape == (1, 2)
        ch = sampler.named_channel("identity", 2)
        assert spectra.check_norm_product_chain(profile(ch, ch)).slack.shape == (2, 1)

    @pytest.mark.parametrize("y", [np.stack([np.eye(2)] * 2), np.eye(3)[None]])
    def test_superadditivity_pairs_equal_stacks(self, y):
        # a stack of another length or matrix size has no input to pair with each x
        x = np.eye(2)[None]
        with pytest.raises(DimensionMismatchError, match=re.escape(f"{x.shape} and {y.shape}")):
            spectra.check_superadditivity(x, y, 0.5)

    def test_channel_checks_need_one_dimension(self):
        with pytest.raises(DimensionMismatchError):
            profile(*[sampler.named_channel("identity", d) for d in (2, 3)])


class TestRankOne:
    """A rank-one input reads slack exactly 0 where its check is an equality.

    Its clamped spectrum has one positive entry, at every order: the
    decomposition's noise below ``ZERO_REL_TOL`` of the largest reads 0.
    """

    @staticmethod
    def _stacks(d):
        rng = np.random.default_rng(0)
        v, g, h = complex_gaussian(rng, (3, 50, d, 1))
        return v @ v.conj().swapaxes(-2, -1), g @ h.swapaxes(-2, -1)

    @pytest.mark.parametrize("check", [
        lambda psd, mat: spectra.check_prop1(psd, SUITE.q_grid),
        lambda psd, mat: spectra.check_prop1(psd, [1.5, 3.0]),
        lambda psd, mat: spectra.check_antinorm_monotonicity(psd, *zip(*MONOTONICITY_PAIRS)),
        lambda psd, mat: spectra.check_two_inf_one(mat),
    ], ids=["prop1-default-grid", "prop1-norm-orders", "npqr", "21in"])
    def test_slack_is_exactly_zero(self, check):
        for d in (2, 3, 4, 8):
            batch = check(*self._stacks(d))
            assert batch.passed.all() and (batch.slack == 0.0).all(), (d, np.abs(batch.slack).max())


class TestScaleInvariance:
    """The six inequalities are homogeneous: the slack of ``c X`` is that of ``X``, however small or large ``c``."""

    CHECKS = {
        "prop1": lambda x: spectra.check_prop1(x, SUITE.q_grid),
        "21in": spectra.check_two_inf_one,
        "npqr": lambda x: spectra.check_antinorm_monotonicity(x, *zip(*MONOTONICITY_PAIRS)),
        "sups": lambda x: spectra.check_superadditivity(x, x[::-1] + 0.0, (0.3, 0.5, 0.9)),
    }

    # q < 0 orders, on a strictly positive stack
    STRICT = {
        "prop1": lambda x: spectra.check_prop1(x, (-1.0, -0.5)),
        "sups": lambda x: spectra.check_superadditivity(x, x[::-1] + 0.0, -0.5),
    }

    @staticmethod
    def _assert_scale_free(check, x):
        want = check(x).slack
        for c in (1e-150, 1e-6, 1e6, 1e150):
            batch = check(c * x)
            assert batch.passed.all() and np.abs(batch.slack - want).max() <= 1e-12, c

    @pytest.mark.parametrize("name", CHECKS)
    @pytest.mark.parametrize("d", [2, 3, None], ids=["d2", "d3", "rank-deficient"])
    def test_slack_of_a_scaled_stack(self, name, d):
        # G G^dag as sampled, not exactly Hermitian: the Hermiticity
        # tolerance is relative, so 1e150 times its rounding passes
        if d is None:
            x = _rank_deficient_stack(931)
        else:
            x = _ginibre_stack(d, 202) if name == "21in" else _psd_stack(d, 201)
        self._assert_scale_free(self.CHECKS[name], x)

    @pytest.mark.parametrize("name", STRICT)
    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_orders_of_a_scaled_stack(self, name, d):
        self._assert_scale_free(self.STRICT[name], _psd_stack(d, 201) + np.eye(d))


def _first_error(fn):
    """``(class, message)`` of the error ``fn()`` raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestBatchErrorsInStackOrder:
    """A check takes each step over the whole stack: the first step an input fails names its first failing input.

    A stack with one input the check cannot take raises what the per-input
    loop raises, wherever that input is in the stack.
    """

    POSITIONS = pytest.mark.parametrize("position", [0, 3, 5], ids=["first", "middle", "last"])

    @staticmethod
    def _loop(check, inputs, orders):
        def run():
            for args in inputs:
                for order in orders:
                    check(*args, *order)
        return run

    @POSITIONS
    @pytest.mark.parametrize(
        "bad, error",
        [(np.array([[1.0, 1.0], [0.0, 1.0]]), NotHermitianError), (-np.eye(2), NotPositiveError)],
        ids=["non-hermitian", "negative-definite"],
    )
    def test_matrix_checks(self, bad, error, position):
        x, y = _psd_stack(2, 201, 6), _psd_stack(2, 205, 6)
        x[position] = bad
        cases = [
            (spectra.check_prop1, oracles.check_prop1, (x,), (SUITE.q_grid,), [(q,) for q in SUITE.q_grid]),
            (spectra.check_antinorm_monotonicity, oracles.check_antinorm_monotonicity, (x,),
             tuple(zip(*MONOTONICITY_PAIRS)), MONOTONICITY_PAIRS),
            (spectra.check_superadditivity, oracles.check_superadditivity, (x, y), ((0.3, 0.5),), [(0.3,), (0.5,)]),
        ]
        for batched, oracle, stacks, batch_orders, loop_orders in cases:
            want = _first_error(self._loop(oracle, list(zip(*stacks)), loop_orders))
            alone = _first_error(lambda: batched(*(s[position:position + 1] for s in stacks), *batch_orders))
            got = _first_error(lambda: batched(*stacks, *batch_orders))
            assert want[0] is error and got == alone == want, batched.__name__

    @POSITIONS
    def test_strictly_positive_order(self, position):
        x = _psd_stack(2, 201, 6)
        x[position] = np.diag([1.0, 0.0])
        want = _first_error(self._loop(oracles.check_prop1, [(m,) for m in x], [(-0.5,)]))
        assert want[0] is NotPositiveError
        assert _first_error(lambda: spectra.check_prop1(x, [-0.5])) == want

    def test_superadditivity_names_an_x_operand_before_a_y(self):
        # the stack holds the x operands, then the y, then the sums: x_3 is
        # named before y_1, though pair 1 comes before pair 3
        x, y = _psd_stack(2, 204, 5), _psd_stack(2, 205, 5)
        x[3], y[1] = -2.0 * np.eye(2), -np.eye(2)
        want = _first_error(lambda: spectra.check_superadditivity(x[3:4], y[3:4], 0.5))
        assert want[0] is NotPositiveError and want[1].startswith("eigenvalue -2.000000e+00 ")
        assert _first_error(lambda: spectra.check_superadditivity(x, y, 0.5)) == want

    def test_superadditivity_names_the_first_sum_beyond_a_double(self):
        # every operand is finite, but the sums of pairs 2 and 4 are not
        x, y = _psd_stack(2, 204, 5), _psd_stack(2, 205, 5)
        x[[2, 4]] = y[[2, 4]] = np.diag([1e308, 5e307])
        want = (InvalidSpectrumError, "the sum X + Y of input 2 has an entry beyond the double range")
        assert _first_error(lambda: spectra.check_superadditivity(x, y, 0.5)) == want

    @pytest.mark.parametrize("check", ["prop1", "antinorm_monotonicity", "superadditivity"])
    def test_earlier_input_failing_a_later_step(self, check):
        # input 1 is Hermitian but not PSD, input 3 is not Hermitian: the
        # stack is checked for Hermiticity before it is clamped, so input 3 is named
        eye, skew = np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])
        x = np.array([eye, np.diag([1.0, -1.0]), eye, skew])
        stacks, orders = (x,), ([0.3, 0.5],)
        if check == "antinorm_monotonicity":
            orders = ([0.3], [0.5])
        elif check == "superadditivity":
            stacks = (x, np.array([eye] * 4))
        batched = getattr(spectra, f"check_{check}")
        want = _first_error(lambda: batched(*(s[3:4] for s in stacks), *orders))
        assert want[0] is NotHermitianError
        assert _first_error(lambda: batched(*stacks, *orders)) == want

    def test_non_square_anti_norm_order(self):
        x = _ginibre_stack(3, 202, 4)[:, :2, :]
        want = _first_error(self._loop(oracles.check_prop1, [(m,) for m in x], [(0.5,)]))
        assert want[0] is NonSquareError
        assert _first_error(lambda: spectra.check_prop1(x, [0.5, 2.0])) == want


class TestSpectrumRoutes:
    """A stack read at any anti-norm order takes one eigenvalue decomposition for all of its orders."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(matcore, name)
        monkeypatch.setattr(matcore, name, lambda x: calls.append(len(x)) or original(x))
        return calls

    @pytest.mark.parametrize("orders", [(2.0, 0.5, 3.0, 1.0), (0.5, 1.5, 2.0), (1.0, 3.0, -0.5)])
    def test_prop1_takes_no_svd_of_a_psd_stack(self, monkeypatch, orders):
        x = _psd_stack(3, 201, 40)
        svd = self._count(monkeypatch, "singular_values")
        eig = self._count(monkeypatch, "hermitian_eigenvalues")
        batch = spectra.check_prop1(x, orders)
        assert svd == [] and eig == [len(x)]
        monkeypatch.undo()  # the oracle takes the SVD at norm orders
        _assert_matches(batch, [[oracles.check_prop1(m, q) for q in orders] for m in x])

    def test_npqr_takes_no_svd_of_a_psd_stack(self, monkeypatch):
        x = _psd_stack(2, 203, 40)
        pairs = ((0.5, 1.0), (0.2, 0.8), (0.5, 2.0))
        svd = self._count(monkeypatch, "singular_values")
        eig = self._count(monkeypatch, "hermitian_eigenvalues")
        batch = spectra.check_antinorm_monotonicity(x, *zip(*pairs))
        assert svd == [] and eig == [len(x)]
        monkeypatch.undo()
        _assert_matches(batch, [[oracles.check_antinorm_monotonicity(m, p, q) for p, q in pairs] for m in x])

    @pytest.mark.parametrize("check", [
        lambda x: spectra.check_prop1(x, (2.0, 0.5, 3.0, 1.0)),
        lambda x: spectra.check_antinorm_monotonicity(x, (0.5, 0.2), (1.0, 2.0)),
    ], ids=["prop1", "npqr"])
    def test_norm_and_antinorm_orders_read_one_spectrum(self, monkeypatch, check):
        # every power sum of a check reads the one clamped spectrum of its
        # stack, never a second |eigenvalue| spectrum beside it
        read = []
        original = spectra._log_power_mean_root
        monkeypatch.setattr(spectra, "_log_power_mean_root", lambda v, q: read.append(v) or original(v, q))
        check(_psd_stack(3, 201, 40))
        assert len(read) > 1 and all(v is read[0] for v in read)

    def test_norm_orders_alone_take_the_svd(self, monkeypatch):
        # singular values need neither a square nor a Hermitian matrix
        svd = self._count(monkeypatch, "singular_values")
        eig = self._count(monkeypatch, "hermitian_eigenvalues")
        rect = _ginibre_stack(3, 202, 4)[:, :2, :]
        assert spectra.check_prop1(rect, [2.0, 3.0]).passed.all()
        assert spectra.check_prop1(_ginibre_stack(3, 202, 5), [1.5]).passed.all()
        assert svd == [4, 5] and eig == []


class TestFirstFailure:
    def test_first_failing_input_is_named(self):
        passed = np.ones((10, 3), dtype=bool)
        passed[7, 0] = passed[3, 2] = False
        batch = spectra.InequalityBatch(np.zeros((10, 3)), passed)
        assert batch.first_failure() == (3, 2)
        passed[:] = True
        assert batch.first_failure() is None

    def test_non_finite_slack_fails(self):
        # a NaN log ratio (both sides infinite, say) gives a NaN slack, and
        # the entry fails whatever the tolerance
        batch = spectra._batch(np.array([[math.nan, 0.0]]), (">=", ">="), math.inf)
        assert np.isnan(batch.slack[0, 0]) and batch.slack[0, 1] == 0.0
        assert batch.passed.tolist() == [[False, True]] and batch.first_failure() == (0, 0)

    @pytest.mark.parametrize("direction", ["<=", ">="])
    def test_slack_from_the_log_ratio(self, direction):
        # (rhs - lhs)/max(lhs, rhs) for sides (lhs, rhs) = (1, 4), (4, 1), (1, 1),
        # (0, 1) and (1, 0), negated for >=
        lhs, rhs = np.array([[1.0, 4.0, 1.0, 0.0, 1.0], [4.0, 1.0, 1.0, 1.0, 0.0]])
        with np.errstate(divide="ignore"):
            log_ratio = (np.log(rhs) - np.log(lhs))[:, None]
        batch = spectra._batch(log_ratio, (direction,), 0.5)
        want = np.array([0.75, -0.75, 0.0, 1.0, -1.0]) * (1.0 if direction == "<=" else -1.0)
        assert np.abs(batch.slack[:, 0] - want).max() <= 1e-16
        assert batch.passed[:, 0].tolist() == (want >= -0.5).tolist()
