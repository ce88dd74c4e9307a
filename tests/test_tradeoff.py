import math

import numpy as np
import oracles
import pytest

from chanent import sampler, tradeoff
from chanent.entropy import EntropyParams, q_log
from chanent.errors import BoundViolation, DimensionMismatchError, DomainError
from chanent.matcore import Spectrum
from chanent.sampler import population

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

    def test_limit_rows_rejected(self):
        with pytest.raises(DomainError):
            tradeoff.gamma_kappa(1.0, 1.0)
        with pytest.raises(DomainError):
            tradeoff.gamma_kappa(2.0, 0.0)


class TestLowerBound:
    def test_renyi_unital(self):
        got = tradeoff.lower_bound(2, EntropyParams(1.5, 0.0), unital=True)
        assert got == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_renyi_all_channels_large_q(self):
        got = tradeoff.lower_bound(2, EntropyParams(3.0, 0.0), unital=False)
        assert got == pytest.approx(0.75 * math.log(2), abs=1e-15)

    def test_unified_small_q(self):
        # gamma = 2, kappa = 1: (2/1) * q_log_{1/2}(2**(1/2)) = 4 (2**(1/4) - 1)
        got = tradeoff.lower_bound(2, EntropyParams(0.5, 1.0), unital=False)
        assert got == pytest.approx(4.0 * (2.0**0.25 - 1.0), abs=1e-14)

    def test_von_neumann_row(self):
        assert tradeoff.lower_bound(3, EntropyParams(1.0, 1.0), unital=False) == pytest.approx(
            math.log(3)
        )
        assert tradeoff.lower_bound(3, EntropyParams(1.0, -2.0), unital=True) == pytest.approx(
            2 * math.log(3)
        )

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            tradeoff.lower_bound(1, EntropyParams(2.0, 1.0), unital=False)

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("unital", [False, True])
    def test_tsallis_specialization(self, q, unital):
        gamma, kappa = tradeoff.gamma_kappa(q, 1.0)
        factor = 2.0 if unital else 1.0
        direct = gamma * q_log(3.0 ** (factor * kappa / gamma), q)
        got = tradeoff.lower_bound(3, EntropyParams(q, 1.0), unital=unital)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("q", [0.3, 2.0, 5.0])
    def test_renyi_specialization_is_the_s_limit(self, q):
        at_zero = tradeoff.lower_bound(4, EntropyParams(q, 0.0), unital=False)
        kappa = 1.0 if q <= 2 else q / (2 * (q - 1))
        assert at_zero == pytest.approx(kappa * math.log(4), abs=1e-15)
        near = tradeoff.lower_bound(4, EntropyParams(q, 1e-7), unital=False)
        assert abs(near - at_zero) <= 1e-6


def _fake_profile(dim=2, unital=True):
    # Not realizable by any channel: both representations rank one, so the
    # entropic sum is 0 and every bound fails.  Exercises the error path.
    choi = Spectrum(np.array([float(dim)] + [0.0] * (dim * dim - 1)), "eigenvalues-hermitian")
    sup = Spectrum(np.array([1.0] + [0.0] * (dim * dim - 1)), "singular-values")
    return tradeoff.ChannelProfile("fake", dim, unital, choi, sup)


class TestEvaluate:
    def test_identity_saturates_unital_renyi_bound(self):
        ch = sampler.named_channel("identity", 2)
        rep = tradeoff.evaluate_tradeoff(ch, EntropyParams(2.0, 0.0), "identity")
        assert rep.map_value == pytest.approx(0.0, abs=1e-12)
        assert rep.receiver_value == pytest.approx(2 * math.log(2), abs=1e-12)
        assert rep.bound_unital == pytest.approx(2 * math.log(2), abs=1e-15)
        assert abs(rep.gap) <= 1e-12 and rep.saturated

    def test_completely_depolarizing_mirrors_identity(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        rep = tradeoff.evaluate_tradeoff(ch, EntropyParams(2.0, 0.0), "cdepol")
        assert rep.map_value == pytest.approx(2 * math.log(2), abs=1e-12)
        assert rep.receiver_value == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.gap) <= 1e-12 and rep.saturated

    def test_random_nonunital_has_positive_gap(self):
        cfg = sampler.SamplerConfig(3, 9, sampler.derive_seed(916, 0, 3, 0), "cptp")
        rep = tradeoff.evaluate_tradeoff(sampler.sample_channel(cfg), EntropyParams(0.5, -1.0))
        assert rep.bound_unital is None
        assert rep.gap > 0 and not rep.saturated

    def test_violation_raises_with_report(self):
        # every cell fails; the first one off the q = 1 row is reported
        bounds = tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
        with pytest.raises(BoundViolation) as err:
            tradeoff.evaluate_profile(_fake_profile(), bounds)
        assert err.value.report.gap < -1e-9
        assert err.value.cell == (1, 0) and err.value.report.params == EntropyParams(2.0, 0.0)
        assert err.value.grid.gap[1, 0] == err.value.report.gap

    def test_limit_row_records_instead_of_raising(self):
        grid = tradeoff.evaluate_profile(_fake_profile(), tradeoff.bound_table(2, (1.0,), (0.0,)))
        assert grid.report(0, 0).gap < -1e-9  # recorded, not asserted, on the q = 1 row


def _stacked_profile(*rows):
    """A stack profile from one-channel profiles, ids "a", "b", ... in order."""
    return tradeoff.ChannelProfile(
        tuple("abcdefgh"[: len(rows)]),
        rows[0].dim,
        np.array([p.unital for p in rows]),
        Spectrum(np.stack([p.choi_spectrum.values for p in rows]), rows[0].choi_spectrum.kind),
        Spectrum(np.stack([p.superop_spectrum.values for p in rows]), rows[0].superop_spectrum.kind),
    )


class TestStackedEvaluate:
    def test_stack_equals_channel_by_channel(self):
        bounds = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        for family in sampler.FAMILY_CODES:
            for d in (2, 3):
                pop = list(population(923, (d,), (family,), 6))
                ids = [cid for _, _, cid, _ in pop]
                stack = tradeoff.profile_channel([ch for *_, ch in pop], ids)
                assert stack.stacked and stack.channel_id == tuple(ids)
                grid = tradeoff.evaluate_profile(stack, bounds[d])
                assert grid.gap.shape == (len(pop), len(Q_GRID), len(S_GRID))
                for k, (_, _, cid, ch) in enumerate(pop):
                    one = tradeoff.profile_channel(ch, cid)
                    assert not one.stacked and one.unital == stack.unital[k]
                    np.testing.assert_array_equal(stack.choi_spectrum.values[k], one.choi_spectrum.values)
                    np.testing.assert_array_equal(stack.superop_spectrum.values[k], one.superop_spectrum.values)
                    single = tradeoff.evaluate_profile(one, bounds[d])
                    for name in ("map_values", "receiver_values", "gap", "saturated"):
                        np.testing.assert_array_equal(getattr(grid.channel(k), name), getattr(single, name))

    def test_violation_names_the_first_failing_channel(self):
        good = tradeoff.profile_channel(sampler.named_channel("depolarizing", 2, 0.5))
        stack = _stacked_profile(good, _fake_profile(), _fake_profile())
        bounds = tradeoff.bound_table(2, (1.0, 2.0), (0.0, 1.0))
        with pytest.raises(BoundViolation) as err:
            tradeoff.evaluate_profile(stack, bounds)
        assert err.value.cell == (1, 1, 0) and err.value.report.channel_id == "b"
        assert err.value.grid.gap.shape == (3, 2, 2)
        assert err.value.grid.gap[1, 1, 0] == err.value.report.gap

    def test_non_finite_channel_before_a_violating_one(self):
        good = tradeoff.profile_channel(sampler.named_channel("depolarizing", 2, 0.5))
        broken = tradeoff.ChannelProfile(
            "x", 2, False, Spectrum(np.array([np.inf, 0.0, 0.0, 0.0])), good.superop_spectrum
        )
        with pytest.raises(DomainError, match="channel 'b'"):
            tradeoff.evaluate_profile(
                _stacked_profile(good, broken, _fake_profile()), tradeoff.bound_table(2, Q_GRID, S_GRID)
            )

    def test_non_finite_cell_outranks_an_earlier_violation_of_its_channel(self):
        # cell (0, 0) violates; cell (1, 1) has an infinite bound
        bounds = tradeoff.bound_table(2, (2.0, 0.3), (0.0, 1e6))
        assert np.isinf(bounds.unital[1, 1])
        with pytest.raises(DomainError, match=r"q=0\.3, s=1000000\.0 on channel 'a'"):
            tradeoff.evaluate_profile(_stacked_profile(_fake_profile(), _fake_profile()), bounds)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            tradeoff.profile_channel([sampler.named_channel("identity", 2), sampler.named_channel("identity", 3)])


class TestSuites:
    def test_all_channel_bound_on_cptp_samples(self):
        min_gap = math.inf
        tables = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        for _, d, _, ch in population(917, (2, 3), ("cptp",), 20):
            grid = tradeoff.evaluate_profile(tradeoff.profile_channel(ch), tables[d])
            min_gap = min(min_gap, float(grid.gap.min()))
        assert min_gap >= -1e-9

    def test_unital_bound_on_unital_samples(self):
        tables = {d: tradeoff.bound_table(d, Q_GRID, S_GRID) for d in (2, 3)}
        pop = population(918, (2, 3), ("unitary-mixture", "unistochastic"), 10)
        for _, d, _, ch in pop:
            profile = tradeoff.profile_channel(ch)
            assert profile.unital
            grid = tradeoff.evaluate_profile(profile, tables[d])
            assert grid.gap.min() >= -1e-9

    def test_proof_domain_preconditions(self):
        for _, _, _, ch in population(919, (2, 3), ("cptp", "unitary-mixture"), 5):
            profile = tradeoff.profile_channel(ch)
            for q in Q_GRID:
                for s in S_GRID:
                    if abs(q - 1.0) <= 1e-8 or s == 0.0:
                        continue
                    point = oracles.proof_domain_point(profile, EntropyParams(q, s))
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
