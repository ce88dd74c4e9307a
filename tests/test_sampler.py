import numpy as np
import oracles
import pytest
from helpers import random_density

from chanent import channel as chmod
from chanent import sampler
from chanent.entropy import EntropyParams, map_entropy
from chanent.errors import ParamOutOfRangeError, UnknownChannelError


class TestSampleCptp:
    def test_trace_preservation_at_rounding_level(self):
        for d in (2, 3, 4):
            cfg = sampler.SamplerConfig(d, d * d, sampler.derive_seed(1, 0, d, 0), "cptp")
            ch = sampler.sample_cptp(cfg)
            assert ch.tp_defect() <= 1e-12

    def test_single_kraus_is_unitary(self):
        cfg = sampler.SamplerConfig(3, 1, 77, "cptp")
        ch = sampler.sample_cptp(cfg)
        a = ch.kraus_ops[0]
        assert np.abs(a.conj().T @ a - np.eye(3)).max() <= 1e-12
        spec = chmod.dynamical_spectrum(chmod.dynamical_from_kraus(ch))
        assert np.count_nonzero(spec.values) == 1

    def test_deterministic(self):
        cfg = sampler.SamplerConfig(3, 4, 12345, "cptp")
        a = sampler.sample_cptp(cfg)
        b = sampler.sample_cptp(cfg)
        for x, y in zip(a.kraus_ops, b.kraus_ops):
            np.testing.assert_array_equal(x, y)

    def test_distinct_seeds_differ(self):
        a = sampler.sample_cptp(sampler.SamplerConfig(2, 4, sampler.derive_seed(9, 0, 2, 0), "cptp"))
        b = sampler.sample_cptp(sampler.SamplerConfig(2, 4, sampler.derive_seed(9, 0, 2, 1), "cptp"))
        assert np.abs(a.kraus_ops[0] - b.kraus_ops[0]).max() > 1e-3

    def test_generic_samples_are_not_unital(self):
        fails = 0
        for i in range(100):
            cfg = sampler.SamplerConfig(2, 4, sampler.derive_seed(2, 0, 2, i), "cptp")
            fails += int(not chmod.is_unital(sampler.sample_cptp(cfg)))
        assert fails >= 95


class TestSampleUnitaryMixture:
    def test_unital_and_tp(self):
        for k in (1, 3, 6):
            cfg = sampler.SamplerConfig(3, k, sampler.derive_seed(3, 1, 3, k), "unitary-mixture")
            ch = sampler.sample_unitary_mixture(cfg)
            assert ch.unital_defect() <= 1e-10
            assert ch.tp_defect() <= 1e-10

    def test_single_unitary_has_zero_map_entropy(self):
        cfg = sampler.SamplerConfig(2, 1, 55, "unitary-mixture")
        ch = sampler.sample_unitary_mixture(cfg)
        dyn = chmod.dynamical_from_kraus(ch)
        assert abs(map_entropy(dyn, EntropyParams(2.0, 1.0))) <= 1e-12

    def test_deterministic(self):
        cfg = sampler.SamplerConfig(2, 3, 999, "unitary-mixture")
        a = sampler.sample_unitary_mixture(cfg)
        b = sampler.sample_unitary_mixture(cfg)
        for x, y in zip(a.kraus_ops, b.kraus_ops):
            np.testing.assert_array_equal(x, y)


class TestSampleUnistochastic:
    def test_tp_and_unital(self):
        for d in (2, 3):
            cfg = sampler.SamplerConfig(d, 1, sampler.derive_seed(4, 2, d, 0), "unistochastic")
            ch = sampler.sample_unistochastic(cfg)
            assert len(ch.kraus_ops) == d * d
            assert ch.tp_defect() <= 1e-10
            assert ch.unital_defect() <= 1e-10

    def test_trivial_coupling_is_identity_channel(self):
        rng = np.random.default_rng(5)
        d = 3
        ch = sampler.unistochastic_from_unitary(np.eye(d * d, dtype=complex), d)
        rho = random_density(rng, d)
        np.testing.assert_allclose(chmod.apply_channel(ch, rho), rho, atol=1e-14)

    def test_swap_coupling_depolarizes_completely(self):
        rng = np.random.default_rng(6)
        d = 3
        swap = np.zeros((d * d, d * d), dtype=complex)
        for mu in range(d):
            for e in range(d):
                swap[e * d + mu, mu * d + e] = 1.0
        ch = sampler.unistochastic_from_unitary(swap, d)
        rho = random_density(rng, d)
        np.testing.assert_allclose(chmod.apply_channel(ch, rho), np.eye(d) / d, atol=1e-14)


class TestNamedChannels:
    def test_identity(self):
        ch = sampler.named_channel("identity", 3)
        spec = chmod.dynamical_spectrum(chmod.dynamical_from_kraus(ch))
        np.testing.assert_allclose(spec.values, [3.0] + [0.0] * 8, atol=1e-12)
        sup = chmod.superoperator_from_kraus(ch)
        np.testing.assert_array_equal(sup.matrix, np.eye(9))

    def test_completely_depolarizing(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        dyn = chmod.dynamical_from_kraus(ch)
        np.testing.assert_allclose(dyn.matrix, np.eye(4) / 2, atol=1e-15)
        sup_spec = chmod.superoperator_spectrum(chmod.superoperator_from_kraus(ch))
        assert np.count_nonzero(sup_spec.values) == 1

    def test_depolarizing_action(self):
        rng = np.random.default_rng(7)
        for d, p in ((2, 0.3), (3, 0.8)):
            ch = sampler.named_channel("depolarizing", d, p)
            rho = random_density(rng, d)
            want = (1 - p) * rho + p * np.eye(d) / d
            np.testing.assert_allclose(chmod.apply_channel(ch, rho), want, atol=1e-13)

    def test_dephasing_action(self):
        rng = np.random.default_rng(8)
        ch = sampler.named_channel("dephasing", 3, 0.6)
        rho = random_density(rng, 3)
        want = 0.4 * rho + 0.6 * np.diag(np.diag(rho))
        np.testing.assert_allclose(chmod.apply_channel(ch, rho), want, atol=1e-13)
        assert chmod.is_unital(ch)

    def test_amplitude_damping_gram_oracle(self):
        g = 0.5
        ch = sampler.named_channel("amplitude-damping", 2, g)
        assert not chmod.is_unital(ch)
        # Gram matrix is diag(2 - g, g), so the Choi spectrum is {2-g, g, 0, 0}
        gram = oracles.kraus_gram(ch)
        np.testing.assert_allclose(gram, np.diag([2 - g, g]), atol=1e-14)
        spec = chmod.dynamical_spectrum(chmod.dynamical_from_kraus(ch))
        np.testing.assert_allclose(spec.values, [2 - g, g, 0.0, 0.0], atol=1e-12)

    def test_unitary_rotation(self):
        ch = sampler.named_channel("unitary", 3, 0.7)
        u = ch.kraus_ops[0]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-14
        spec = chmod.superoperator_spectrum(chmod.superoperator_from_kraus(ch))
        np.testing.assert_allclose(spec.values, np.ones(9), atol=1e-12)

    def test_errors(self):
        with pytest.raises(UnknownChannelError):
            sampler.named_channel("no-such-channel", 2)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("depolarizing", 2, 1.5)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("depolarizing", 2, None)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("amplitude-damping", 3, 0.5)


class TestDispatchAndSeeds:
    def test_named_family_dispatch(self):
        cfg = sampler.SamplerConfig(2, 1, 0, "named:amplitude-damping:0.5")
        ch = sampler.sample_channel(cfg)
        assert len(ch.kraus_ops) == 2

    def test_unknown_family(self):
        with pytest.raises(UnknownChannelError):
            sampler.sample_channel(sampler.SamplerConfig(2, 1, 0, "bogus"))

    def test_kraus_count_validated(self):
        with pytest.raises(ParamOutOfRangeError):
            sampler.SamplerConfig(2, 0, 0, "cptp")

    def test_derive_seed_is_stable_and_injective_enough(self):
        a = sampler.derive_seed(42, 0, 2, 7)
        b = sampler.derive_seed(42, 0, 2, 7)
        c = sampler.derive_seed(42, 0, 2, 8)
        assert a == b and a != c


class TestPopulation:
    def test_order_ids_and_seeds(self):
        pop = list(sampler.population(5, (3, 2), ("unistochastic", "cptp"), 2, stream=100))
        assert [cid for _, _, cid, _ in pop] == [
            "unistochastic-d3-0000",
            "unistochastic-d3-0001",
            "cptp-d3-0000",
            "cptp-d3-0001",
            "unistochastic-d2-0000",
            "unistochastic-d2-0001",
            "cptp-d2-0000",
            "cptp-d2-0001",
        ]
        family, d, _, ch = pop[3]
        cfg = sampler.SamplerConfig(3, 9, sampler.derive_seed(5, 100 + 0, 3, 1), "cptp")
        for a, b in zip(ch.kraus_ops, sampler.sample_channel(cfg).kraus_ops):
            np.testing.assert_array_equal(a, b)
        assert (family, d, len(ch.kraus_ops)) == ("cptp", 3, 9)

    def test_named_family(self):
        (family, d, cid, ch), = sampler.population(1, (2,), ("named:identity",), 1)
        assert (family, d, cid) == ("named:identity", 2, "named:identity-d2-0000")
        np.testing.assert_array_equal(ch.kraus_ops[0], np.eye(2))

    def test_ginibre_population(self):
        pop = list(sampler.ginibre_population(5, (2, 3), 2, stream=201))
        assert [(d, i, g.shape) for d, i, g in pop] == [
            (2, 0, (2, 2)), (2, 1, (2, 2)), (3, 0, (3, 3)), (3, 1, (3, 3))
        ]
        rng = np.random.default_rng(sampler.derive_seed(5, 201, 3, 1))
        np.testing.assert_array_equal(pop[3][2], sampler.ginibre(3, rng))
