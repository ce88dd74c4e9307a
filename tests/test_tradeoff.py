import math

import numpy as np
import oracles
import pytest

from chanent import sampler, tradeoff
from chanent.entropy import EntropyParams, q_log
from chanent.errors import BoundViolation, DomainError
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
        with pytest.raises(BoundViolation) as err:
            tradeoff.evaluate_profile(_fake_profile(), EntropyParams(2.0, 0.0))
        assert err.value.report.gap < -1e-9

    def test_limit_row_records_instead_of_raising(self):
        rep = tradeoff.evaluate_profile(_fake_profile(), EntropyParams(1.0, 0.0))
        assert rep.gap < -1e-9  # recorded, not asserted, on the q = 1 row


class TestSuites:
    def test_all_channel_bound_on_cptp_samples(self):
        min_gap = math.inf
        for _, _, _, ch in population(917, (2, 3), ("cptp",), 20):
            profile = tradeoff.profile_channel(ch)
            for q in Q_GRID:
                for s in S_GRID:
                    rep = tradeoff.evaluate_profile(profile, EntropyParams(q, s))
                    min_gap = min(min_gap, rep.gap)
        assert min_gap >= -1e-9

    def test_unital_bound_on_unital_samples(self):
        pop = population(918, (2, 3), ("unitary-mixture", "unistochastic"), 10)
        for _, _, _, ch in pop:
            profile = tradeoff.profile_channel(ch)
            assert profile.unital
            for q in Q_GRID:
                for s in S_GRID:
                    rep = tradeoff.evaluate_profile(profile, EntropyParams(q, s))
                    assert rep.gap >= -1e-9

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
