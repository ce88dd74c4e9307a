import math

import mpmath
import numpy as np
import oracles
import pytest
from helpers import evaluate_cell, noisy_depolarizing, population
from oracles import EntropyParams

from chanent import channel as chmod
from chanent import sampler, tradeoff
from chanent.errors import DimensionMismatchError, DomainError

# the default sweep grid
Q_GRID = (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


class TestGammaKappa:
    def test_small_q_positive_s(self):
        assert tradeoff.gamma_kappa(0.5, 1.0) == (2, 1.0)

    def test_large_q(self):
        gamma, kappa = tradeoff.gamma_kappa(3.0, 1.0)
        assert gamma == 1 and kappa == pytest.approx(0.75)

    def test_branch_agreement_at_two(self):
        gamma, kappa = tradeoff.gamma_kappa(2.0, -1.0)
        assert gamma == 2 and kappa == 1.0

    def test_elementwise_on_arrays(self):
        gamma, kappa = tradeoff.gamma_kappa(np.array([[0.5], [1.0], [3.0]]), np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(gamma, [[1, 2, 2], [2, 2, 2], [2, 2, 1]])
        np.testing.assert_array_equal(kappa, [[1.0], [1.0], [0.75]])
        with pytest.raises(DomainError):
            tradeoff.gamma_kappa(np.array([0.5, 0.0]), 1.0)

    def test_huge_orders_do_not_overflow(self):
        # kappa -> 1/2 as q -> inf, and only the sign of (1 - q) s is read
        assert tradeoff.gamma_kappa(1.7e308, 1e300) == (1, 0.5)
        # an exponent beyond a double: the bound is its limit, +inf or 0
        assert oracles.lower_bound(2, EntropyParams(1e10, -1e300), unital=False) == math.inf
        assert oracles.lower_bound(2, EntropyParams(1e10, 1e300), unital=False) == 0.0


class TestLowerBound:
    def test_renyi_unital(self):
        got = oracles.lower_bound(2, EntropyParams(1.5, 0.0), unital=True)
        assert got == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_renyi_all_channels_large_q(self):
        got = oracles.lower_bound(2, EntropyParams(3.0, 0.0), unital=False)
        assert got == pytest.approx(0.75 * math.log(2), abs=1e-15)

    def test_unified_small_q(self):
        # gamma = 2, kappa = 1: (2/1) * q_log_{1/2}(2**(1/2)) = 4 (2**(1/4) - 1)
        got = oracles.lower_bound(2, EntropyParams(0.5, 1.0), unital=False)
        assert got == pytest.approx(4.0 * (2.0**0.25 - 1.0), abs=1e-14)

    def test_von_neumann_row(self):
        assert oracles.lower_bound(3, EntropyParams(1.0, 1.0), unital=False) == pytest.approx(
            math.log(3)
        )
        assert oracles.lower_bound(3, EntropyParams(1.0, -2.0), unital=True) == pytest.approx(
            2 * math.log(3)
        )

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            oracles.lower_bound(1, EntropyParams(2.0, 1.0), unital=False)

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("unital", [False, True])
    def test_tsallis_specialization(self, q, unital):
        gamma, kappa = tradeoff.gamma_kappa(q, 1.0)
        factor = 2.0 if unital else 1.0
        direct = gamma * oracles.q_log(3.0 ** (factor * kappa / gamma), q)
        got = oracles.lower_bound(3, EntropyParams(q, 1.0), unital=unital)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_matches_paper_formula_next_to_the_limit_rows(self, d):
        # (gamma/s) q_log(d**(f s kappa/gamma)) in 60 digits, where the
        # cancellation next to q = 1 and s = 0 costs no double digits
        qs = (1.0 - 1e-12, 1.0 + 1e-9, 1.0 - 1e-7, 1.0 + 1e-4, 0.5, 2.0, 3.0, 5.0)
        ss = (1e-12, -1e-12, 1e-9, -1e-7, 1e-4, 0.5, -1.0, 2.0)
        for q in qs:
            for s in ss:
                gamma = 1 if (1.0 - q) * s < 0.0 else 2
                kappa = 1.0 if q <= 2.0 else q / (2.0 * (q - 1.0))
                for unital, factor in ((False, 1), (True, 2)):
                    with mpmath.workdps(60):
                        mq, ms = mpmath.mpf(q), mpmath.mpf(s)
                        x = mpmath.mpf(d) ** (factor * ms * kappa / gamma)
                        want = float(gamma / ms * (x ** (1 - mq) - 1) / (1 - mq))
                    got = oracles.lower_bound(d, EntropyParams(q, s), unital)
                    assert got == pytest.approx(want, rel=1e-14), (q, s, unital)

    @pytest.mark.parametrize("q", [0.3, 2.0, 5.0])
    def test_renyi_specialization_is_the_s_limit(self, q):
        at_zero = oracles.lower_bound(4, EntropyParams(q, 0.0), unital=False)
        kappa = 1.0 if q <= 2 else q / (2 * (q - 1))
        assert at_zero == pytest.approx(kappa * math.log(4), abs=1e-15)
        near = oracles.lower_bound(4, EntropyParams(q, 1e-7), unital=False)
        assert abs(near - at_zero) <= 1e-6


def _fake_profile(dim=2, unital=True):
    # Not realizable by any channel: both representations rank one, so the
    # entropic sum is 0 and every bound fails.  Exercises the error path.
    choi = np.array([[float(dim)] + [0.0] * (dim * dim - 1)])
    sup = np.array([[1.0] + [0.0] * (dim * dim - 1)])
    return chmod.ChannelProfile(("fake",), dim, np.array([unital]), choi, sup, np.eye(dim)[None])


class TestEvaluate:
    def test_identity_saturates_unital_renyi_bound(self):
        ch = sampler.named_channel("identity", 2)
        rep = evaluate_cell(ch, EntropyParams(2.0, 0.0), "identity")
        assert rep["map_entropy"] == pytest.approx(0.0, abs=1e-12)
        assert rep["receiver_entropy"] == pytest.approx(2 * math.log(2), abs=1e-12)
        assert rep["bound_unital"] == pytest.approx(2 * math.log(2), abs=1e-15)
        assert abs(rep["gap"]) <= 1e-12 and rep["saturated"]

    def test_completely_depolarizing_mirrors_identity(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        rep = evaluate_cell(ch, EntropyParams(2.0, 0.0), "cdepol")
        assert rep["map_entropy"] == pytest.approx(2 * math.log(2), abs=1e-12)
        assert rep["receiver_entropy"] == pytest.approx(0.0, abs=1e-12)
        assert abs(rep["gap"]) <= 1e-12 and rep["saturated"]

    def test_random_nonunital_has_positive_gap(self):
        ch = sampler._sample_stack("cptp", 3, [oracles.derive_seed(916, 0, 3, 0)])[0]
        rep = evaluate_cell(ch, EntropyParams(0.5, -1.0))
        assert rep["bound_unital"] is None
        assert rep["gap"] > 0 and not rep["saturated"]

    def test_violation_is_read_off_the_grid(self):
        # every cell fails; the first one, on the q = 1 row, is the violation
        bounds = tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
        grid = tradeoff.evaluate_profile(_fake_profile(), bounds)
        assert grid.violation == (0, 0, 0)
        cell = grid.cell(*grid.violation)
        assert cell["gap"] < -1e-9 and (cell["q"], cell["s"]) == (1.0, 0.0)
        assert grid.gap[0, 0, 0] == cell["gap"]

    def test_cell_is_the_counterexample_record(self):
        # plain JSON values: the channel id, floats, and None for the unital
        # bound of a non-unital channel
        bounds = tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
        for profile, unital in ((_fake_profile(unital=False), False), (_fake_profile(), True)):
            cell = tradeoff.evaluate_profile(profile, bounds).cell(0, 1, 1)
            assert cell == {
                "channel_id": "fake", "q": 2.0, "s": 1.0,
                "map_entropy": 0.0, "receiver_entropy": 0.0,
                "bound_all": float(bounds.all_channels[1, 1]),
                "bound_unital": float(bounds.unital[1, 1]) if unital else None,
                "gap": -float((bounds.unital if unital else bounds.all_channels)[1, 1]),
            }
            assert all(type(v) in (str, float, type(None)) for v in cell.values())

    def test_tp_noisy_channel_is_held_to_the_unital_bound(self):
        # unital defect 9.0e-9, inside TP_TOL: the sharper bound applies
        bounds = tradeoff.bound_table(3, Q_GRID, S_GRID)
        profile = chmod.profile_channel(noisy_depolarizing()[None], ["noisy"])
        assert profile.unital[0]
        grid = tradeoff.evaluate_profile(profile, bounds)
        np.testing.assert_array_equal(grid.gap, grid.map_values + grid.receiver_values - bounds.unital)
        assert grid.cell(0, 6, 5)["bound_unital"] is not None  # (q, s) = (2, 1)
        assert grid.gap[0].min() == pytest.approx(0.119, abs=5e-4)

    @pytest.mark.parametrize("q", [1.0, 1.0 - 5e-9, 1.0 + 5e-9])
    def test_q_1_row_is_asserted(self, q):
        # the von Neumann row, and the rows next to it, are theorem rows too
        grid = tradeoff.evaluate_profile(_fake_profile(), tradeoff.bound_table(2, (q,), (0.0,)))
        assert grid.violation == (0, 0, 0) and grid.cell(0, 0, 0)["gap"] < -1e-9

    @pytest.mark.parametrize("q, s", [((2.0,), ()), ((), (1.0,)), ((), ())])
    def test_empty_grid_is_a_domain_error(self, q, s):
        with pytest.raises(DomainError, match="nonempty order grids"):
            tradeoff.bound_table(2, q, s)


def _stacked_profile(*rows):
    """One profile from profiles of one channel each, ids "a", "b", ... in order."""
    return chmod.ChannelProfile(
        tuple("abcdefgh"[: len(rows)]),
        rows[0].dim,
        np.concatenate([p.unital for p in rows]),
        np.concatenate([p.choi_spectrum for p in rows]),
        np.concatenate([p.superop_spectrum for p in rows]),
        np.concatenate([p.tr2 for p in rows]),
    )


def _good():
    return chmod.profile_channel(sampler.named_channel("depolarizing", 2, 0.5)[None])


def _broken():
    """A profile whose Choi spectrum has an infinite entry: every cell of its grid is non-finite."""
    good = _good()
    return chmod.ChannelProfile(
        ("x",), 2, np.array([False]), np.array([[np.inf, 0.0, 0.0, 0.0]]), good.superop_spectrum, good.tr2,
    )


class TestStackedEvaluate:
    def test_stack_equals_channel_by_channel(self):
        bounds = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        for family in sampler.FAMILY_CODES:
            for d in (2, 3):
                pop = list(population(923, (d,), (family,), 6))
                ids = [cid for _, _, cid, _ in pop]
                stack = chmod.profile_channel(np.stack([ch for *_, ch in pop]), ids)
                assert stack.channel_id == tuple(ids)
                grid = tradeoff.evaluate_profile(stack, bounds[d])
                assert grid.gap.shape == (len(pop), len(Q_GRID), len(S_GRID))
                for k, (_, _, cid, ch) in enumerate(pop):
                    one = chmod.profile_channel(ch[None], [cid])
                    assert one.channel_id == (cid,) and one.unital.tolist() == [stack.unital[k]]
                    np.testing.assert_array_equal(stack.choi_spectrum[k], one.choi_spectrum[0])
                    np.testing.assert_array_equal(stack.superop_spectrum[k], one.superop_spectrum[0])
                    np.testing.assert_array_equal(stack.tr2[k], one.tr2[0])
                    single = tradeoff.evaluate_profile(one, bounds[d])
                    for name in ("map_values", "receiver_values", "gap", "saturated"):
                        np.testing.assert_array_equal(getattr(grid, name)[k], getattr(single, name)[0])

    def test_violation_names_the_first_failing_channel(self):
        stack = _stacked_profile(_good(), _fake_profile(), _fake_profile())
        bounds = tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
        grid = tradeoff.evaluate_profile(stack, bounds)
        assert grid.violation == (1, 0, 0) and grid.cell(*grid.violation)["channel_id"] == "b"
        assert grid.gap.shape == (3, 2, 2)
        assert grid.gap[1, 0, 0] == grid.cell(1, 0, 0)["gap"] < -1e-9

    def test_non_finite_channel_before_a_violating_one(self):
        with pytest.raises(DomainError, match="channel 'b'"):
            tradeoff.evaluate_profile(
                _stacked_profile(_good(), _broken(), _fake_profile()), tradeoff.bound_table(2, Q_GRID, S_GRID)
            )

    def test_violating_channel_before_a_non_finite_one(self):
        # a non-finite cell anywhere in the stack raises, before any violation
        with pytest.raises(DomainError, match=r"q=1\.0, s=0\.0 on channel 'c'"):
            tradeoff.evaluate_profile(
                _stacked_profile(_fake_profile(), _good(), _broken()), tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
            )

    def test_non_finite_cell_outranks_an_earlier_violation_of_its_channel(self):
        # cell (0, 0) violates; cell (1, 1) has an infinite bound
        bounds = tradeoff.bound_table(2, (2.0, 0.3), (0.0, 1e6))
        assert np.isinf(bounds.unital[1, 1])
        with pytest.raises(DomainError, match=r"q=0\.3, s=1000000\.0 on channel 'a'"):
            tradeoff.evaluate_profile(_stacked_profile(_fake_profile(), _fake_profile()), bounds)

    def test_mixed_dimensions_rejected(self):
        # a stack is of one dimension, and its bound table must be of the same
        profile = chmod.profile_channel(sampler.named_channel("identity", 2)[None])
        with pytest.raises(DimensionMismatchError):
            tradeoff.evaluate_profile(profile, tradeoff.bound_table(3, Q_GRID, S_GRID))


class TestSuites:
    def test_all_channel_bound_on_cptp_samples(self):
        min_gap = math.inf
        tables = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        for _, d, _, ch in population(917, (2, 3), ("cptp",), 20):
            grid = tradeoff.evaluate_profile(chmod.profile_channel(ch[None]), tables[d])
            min_gap = min(min_gap, float(grid.gap.min()))
        assert min_gap >= -1e-9

    def test_unital_bound_on_unital_samples(self):
        tables = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        pop = population(918, (2, 3), ("unitary-mixture", "unistochastic"), 10)
        for _, d, _, ch in pop:
            profile = chmod.profile_channel(ch[None])
            assert profile.unital[0]
            grid = tradeoff.evaluate_profile(profile, tables[d])
            assert grid.gap.min() >= -1e-9

    def test_proof_domain_preconditions(self):
        for _, _, _, ch in population(919, (2, 3), ("cptp", "unitary-mixture"), 5):
            profile = chmod.profile_channel(ch[None])
            for q in Q_GRID:
                for s in S_GRID:
                    if abs(q - 1.0) <= 1e-8 or s == 0.0:
                        continue
                    point = oracles.proof_domain_point(profile, 0, EntropyParams(q, s))
                    assert point.in_domain, (q, s, point)


class TestDomainMinima:
    def test_closed_forms(self):
        assert oracles.domain_min_low(0.25) == pytest.approx(0.75)
        assert oracles.domain_min_high(4.0) == pytest.approx(2.0)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                oracles.domain_min_low(bad)
        for bad in (1.0, 0.5):
            with pytest.raises(DomainError):
                oracles.domain_min_high(bad)

    def test_grid_oracle_low(self):
        assert abs(oracles.grid_domain_min_low(0.37) - 0.63) <= 2e-3

    def test_grid_oracle_random(self):
        rng = np.random.default_rng(920)
        for _ in range(5):
            a = float(rng.uniform(0.05, 0.95))
            assert abs(oracles.grid_domain_min_low(a) - (1 - a)) <= 2e-3
            b = float(rng.uniform(1.05, 4.0))
            points = max(1000, int(math.ceil((b - 1.0) / 1e-3)))
            got = oracles.grid_domain_min_high(b, points=points)
            assert abs(got - 2 * (math.sqrt(b) - 1)) <= 2e-3
