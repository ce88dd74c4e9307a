import math

import numpy as np
import oracles
import pytest
from helpers import complex_gaussian, random_psd, random_unitary

from chanent import channel as chmod
from chanent import cli, sampler, spectra
from chanent.errors import (
    DimensionMismatchError,
    InvalidOrderError,
    InvalidSpectrumError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)
from chanent.sampler import population


class TestNormOrder:
    def test_regimes(self):
        # an order's regime picks the norm (q >= 1) or the anti-norm (q < 1)
        x = np.diag([1.0, 4.0])
        assert spectra.schatten(x, 1.0) == spectra.schatten_norm(x, 1.0)
        assert spectra.schatten(x, math.inf) == spectra.schatten_norm(x, math.inf)
        assert spectra.schatten(x, 0.5) == spectra.schatten_antinorm(x, 0.5)
        assert spectra.schatten(x, -1.0) == spectra.schatten_antinorm(x, -1.0)

    def test_zero_rejected(self):
        with pytest.raises(InvalidOrderError):
            spectra.schatten(np.eye(2), 0.0)


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
    @pytest.mark.parametrize("q", [math.inf, -math.inf])
    def test_checks_reject_infinite_orders(self, check, q):
        with pytest.raises(InvalidOrderError):
            check(self.X, q)

    def test_antinorm_rejects_minus_inf(self):
        for fn in (spectra.schatten_antinorm, spectra.schatten):
            with pytest.raises(InvalidOrderError):
                fn(self.X, -math.inf)
        with pytest.raises(InvalidOrderError):
            spectra.schatten_norm(self.X, -math.inf)

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
            assert abs(spectra.schatten_norm(dyn.matrix, 1.0) - d) <= 1e-10 * d

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
            scaled = spectra.schatten(c * p, q)
            base = spectra.schatten(p, q)
            assert abs(scaled - c * base) <= 1e-10 * max(1.0, c * base)

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
        for q in (0.3, 1.5, 2.0, 4.0):
            rep = spectra.check_prop1(np.eye(5), q)
            assert rep.passed and abs(rep.slack) <= 1e-10

    def test_rank_one_saturates(self):
        rep = spectra.check_prop1(np.diag([1.0, 0.0, 0.0]), 3.0)
        assert rep.passed and abs(rep.slack) <= 1e-10
        assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)

    def test_direction_flips_at_two(self):
        rng = np.random.default_rng(73)
        x = random_psd(rng, 8)
        low = spectra.check_prop1(x, 1.5)
        high = spectra.check_prop1(x, 3.0)
        anti = spectra.check_prop1(x, 0.5)
        assert low.direction == "<=" and low.passed
        assert high.direction == ">=" and high.passed
        assert anti.direction == ">=" and anti.passed

    @pytest.mark.parametrize("q", [0.3, 0.7, 1.2, 1.8, 2.0, 2.5, 4.0])
    def test_random_psd_passes(self, q):
        rng = np.random.default_rng(79)
        for n in (2, 5, 11):
            for _ in range(10):
                rep = spectra.check_prop1(random_psd(rng, n), q)
                assert rep.passed, (q, n, rep)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            spectra.check_prop1(np.zeros((2, 2)), 1.5)


class TestCheckTwoInfOne:
    def test_identity_saturates(self):
        rep = spectra.check_two_inf_one(np.eye(6))
        assert rep.passed and abs(rep.slack) <= 1e-12

    def test_rank_one_projector_saturates(self):
        p = np.zeros((4, 4))
        p[0, 0] = 1.0
        rep = spectra.check_two_inf_one(p)
        assert rep.passed and abs(rep.slack) <= 1e-12

    def test_random_matrix_strict(self):
        rng = np.random.default_rng(83)
        rep = spectra.check_two_inf_one(complex_gaussian(rng, (16, 16)))
        assert rep.passed and rep.slack > 1e-3


class TestCheckSuperopNormBound:
    def test_identity_channel_saturates_unital_bound(self):
        rep = spectra.check_superop_norm_bound(sampler.named_channel("identity", 2))
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_completely_depolarizing_saturates(self):
        rep = spectra.check_superop_norm_bound(sampler.named_channel("completely-depolarizing", 2))
        assert rep.passed and abs(rep.slack) <= 1e-10

    def test_random_nonunital_holds_with_slack(self):
        cfg = sampler.SamplerConfig(3, 9, sampler.derive_seed(909, 0, 3, 0), "cptp")
        ch = sampler.sample_channel(cfg)
        assert not chmod.is_unital(ch)
        rep = spectra.check_superop_norm_bound(ch)
        assert rep.passed and rep.slack > 0


class TestCheckAntinormMonotonicity:
    def test_flat_spectrum(self):
        rep = spectra.check_antinorm_monotonicity(np.eye(2), 1.0 / 3.0, 0.5)
        assert rep.passed
        assert rep.lhs == pytest.approx(4.0) and rep.rhs == pytest.approx(8.0)

    def test_worked_example(self):
        rep = spectra.check_antinorm_monotonicity(np.diag([1.0, 4.0]), 0.5, 1.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(5.0) and rep.rhs == pytest.approx(9.0)

    def test_random_psd(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            rep = spectra.check_antinorm_monotonicity(random_psd(rng, 6), 0.2, 0.8)
            assert rep.passed

    def test_order_validation(self):
        with pytest.raises(InvalidOrderError):
            spectra.check_antinorm_monotonicity(np.eye(2), 0.8, 0.2)


class TestCheckSuperadditivity:
    def test_equal_flat_operands_saturate(self):
        rep = spectra.check_superadditivity(np.eye(3), np.eye(3), 0.5)
        assert rep.passed and abs(rep.slack) <= 1e-12
        assert rep.lhs == pytest.approx(18.0)  # |2 I|_{1/2} = (3 sqrt(2))**2

    def test_commuting_rank_deficient(self):
        rep = spectra.check_superadditivity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
        assert rep.passed
        assert rep.lhs == pytest.approx(4.0) and rep.rhs == pytest.approx(2.0)

    def test_random_pairs(self):
        rng = np.random.default_rng(97)
        for q in (0.7, -0.5):
            x = random_psd(rng, 6) + 0.05 * np.eye(6)
            y = random_psd(rng, 6) + 0.05 * np.eye(6)
            assert spectra.check_superadditivity(x, y, q).passed

    def test_rejects_norm_orders(self):
        with pytest.raises(InvalidOrderError):
            spectra.check_superadditivity(np.eye(2), np.eye(2), 1.5)


class TestCheckNormProductChain:
    def test_bound_per_family(self):
        pop = population(910, (2, 3), ("cptp", "unitary-mixture", "unistochastic"), 4)
        for family, d, _, ch in pop:
            rep = spectra.check_norm_product_chain(ch)
            assert rep.passed, (family, d, rep)
            if family in ("unitary-mixture", "unistochastic"):
                assert rep.lhs >= d - 1e-9
            else:
                assert rep.lhs >= math.sqrt(d) - 1e-9


# The suite's own population: the CLI's default seed and sample count.
SUITE = cli.SweepConfig()
MONOTONICITY_PAIRS = ((0.2, 0.8), (1.0 / 3.0, 0.5), (0.5, 1.0))


def _ginibre_stack(d, stream, count=SUITE.samples_per_family):
    pop = sampler.ginibre_population(SUITE.seed, (d,), count, stream)
    return np.stack([g for _, _, g in pop])


def _psd_stack(d, stream, count=SUITE.samples_per_family):
    g = _ginibre_stack(d, stream, count)
    return g @ g.conj().swapaxes(-2, -1)


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
    """Slack within 1e-12 relative (floored at 1) and equal verdicts, entry by entry."""
    assert batch.slack.shape == (len(oracle), len(oracle[0]))
    for i, row in enumerate(oracle):
        for j, rep in enumerate(row):
            got = batch.report(i, j)
            assert abs(got.slack - rep.slack) <= 1e-12 * max(abs(got.slack), abs(rep.slack), 1.0), (i, j)
            assert got.passed == rep.passed and got.direction == rep.direction, (i, j)


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
        stack = spectra.stack_channels(chs)
        _assert_matches(
            spectra.check_superop_norm_bound(stack), [[oracles.check_superop_norm_bound(ch)] for ch in chs]
        )
        _assert_matches(
            spectra.check_norm_product_chain(stack), [[oracles.check_norm_product_chain(ch)] for ch in chs]
        )

    def test_one_input_at_one_order_is_a_report(self):
        x = np.diag([1.0, 4.0])
        assert isinstance(spectra.check_prop1(x, 1.5), spectra.InequalityReport)
        assert isinstance(spectra.check_prop1(x[None], 1.5), spectra.InequalityBatch)
        assert spectra.check_prop1(x, [1.5, 3.0]).slack.shape == (1, 2)
        ch = sampler.named_channel("identity", 2)
        assert isinstance(spectra.check_norm_product_chain(ch), spectra.InequalityReport)
        assert spectra.check_norm_product_chain([ch, ch]).slack.shape == (2, 1)

    def test_stack_channels_needs_one_dimension(self):
        with pytest.raises(DimensionMismatchError):
            spectra.stack_channels([sampler.named_channel("identity", d) for d in (2, 3)])


def _first_error(fn):
    """``(class, message)`` of the error ``fn()`` raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestBatchErrorsMatchTheLoop:
    """A stack with one input a check cannot take raises what the per-input loop raised first."""

    @staticmethod
    def _loop(check, inputs, orders):
        def run():
            for args in inputs:
                for order in orders:
                    check(*args, *order)
        return run

    @pytest.mark.parametrize(
        "bad, error",
        [(np.array([[1.0, 1.0], [0.0, 1.0]]), NotHermitianError), (-np.eye(2), NotPositiveError)],
        ids=["non-hermitian", "negative-definite"],
    )
    def test_matrix_checks(self, bad, error):
        x = _psd_stack(2, 201, 6)
        x[2] = bad
        cases = [
            (spectra.check_prop1, oracles.check_prop1, (x,), (SUITE.q_grid,), [(q,) for q in SUITE.q_grid]),
            (spectra.check_antinorm_monotonicity, oracles.check_antinorm_monotonicity, (x,),
             tuple(zip(*MONOTONICITY_PAIRS)), MONOTONICITY_PAIRS),
            (spectra.check_superadditivity, oracles.check_superadditivity, (x, x[::-1] + 0.0),
             ((0.3, 0.5),), [(0.3,), (0.5,)]),
        ]
        for batched, oracle, stacks, batch_orders, loop_orders in cases:
            want = _first_error(self._loop(oracle, list(zip(*stacks)), loop_orders))
            got = _first_error(lambda: batched(*stacks, *batch_orders))
            assert want[0] is error and got == want, batched.__name__

    def test_strictly_positive_order(self):
        x = _psd_stack(2, 201, 6)
        x[3] = np.diag([1.0, 0.0])
        want = _first_error(self._loop(oracles.check_prop1, [(m,) for m in x], [(-0.5,)]))
        assert want[0] is NotPositiveError
        assert _first_error(lambda: spectra.check_prop1(x, [-0.5])) == want

    def test_non_square_anti_norm_order(self):
        x = _ginibre_stack(3, 202, 4)[:, :2, :]
        want = _first_error(self._loop(oracles.check_prop1, [(m,) for m in x], [(0.5,)]))
        assert want[0] is NonSquareError
        assert _first_error(lambda: spectra.check_prop1(x, [0.5, 2.0])) == want


class TestFirstFailure:
    def test_first_failing_input_is_named(self):
        passed = np.ones((10, 3), dtype=bool)
        passed[7, 0] = passed[3, 2] = False
        zeros = np.zeros((10, 3))
        batch = spectra.InequalityBatch(zeros, zeros, zeros, passed, ("<=",) * 3)
        assert batch.first_failure() == (3, 2)
        passed[:] = True
        assert batch.first_failure() is None
