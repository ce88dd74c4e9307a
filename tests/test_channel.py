import numpy as np
import oracles
import pytest
from helpers import random_density, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import channel as chmod
from chanent import matcore, sampler
from chanent.errors import DimensionMismatchError, NotTracePreservingError
from chanent.sampler import population

ROUTE_DIMS = (2, 3, 4, 8, 16)
FAMILIES = tuple(sampler.FAMILY_CODES)


def identity_channel(d=2):
    return sampler.named_channel("identity", d)


def depolarizing_channel(d=2):
    return sampler.named_channel("completely-depolarizing", d)


class TestKrausChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            chmod.KrausChannel(2, (np.eye(2) / 2,))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            chmod.KrausChannel(1, (np.eye(1),))
        with pytest.raises(DimensionMismatchError):
            chmod.KrausChannel(17, (np.eye(17),))
        with pytest.raises(DimensionMismatchError):
            chmod.KrausChannel(2, (np.eye(3),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chmod.KrausChannel(2, ())


class TestMaximallyEntangledState:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_definition(self, d):
        phi = oracles.maximally_entangled_state(d)
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14
        expected = np.zeros(d * d, dtype=complex)
        for nu in range(d):
            expected[nu * d + nu] = 1.0 / np.sqrt(d)
        np.testing.assert_allclose(phi, expected)


class TestDynamicalMatrix:
    def test_identity_channel(self):
        dyn = chmod.dynamical_from_kraus(identity_channel())
        # D = sum_{mu,nu} |mu mu><nu nu|: rank one with eigenvalue d
        spec = chmod.dynamical_spectrum(dyn)
        np.testing.assert_allclose(spec.values, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
        v = np.eye(2, dtype=complex).reshape(-1)
        np.testing.assert_allclose(dyn.matrix, np.outer(v, v.conj()), atol=1e-15)

    def test_completely_depolarizing(self):
        dyn = chmod.dynamical_from_kraus(depolarizing_channel())
        np.testing.assert_allclose(dyn.matrix, np.eye(4) / 2, atol=1e-15)
        np.testing.assert_allclose(chmod.dynamical_spectrum(dyn).values, [0.5] * 4)

    def test_unitary_channel_rank_one(self):
        rng = np.random.default_rng(23)
        u = random_unitary(rng, 3)
        dyn = chmod.dynamical_from_kraus(chmod.KrausChannel(3, (u,)))
        spec = chmod.dynamical_spectrum(dyn)
        np.testing.assert_allclose(spec.values[0], 3.0, atol=1e-12)
        np.testing.assert_allclose(spec.values[1:], 0.0, atol=1e-12)

    def test_matches_entangled_state_route(self):
        for _, _, _, ch in population(901, (2, 3), ("cptp", "unitary-mixture"), 4):
            closed = chmod.dynamical_from_kraus(ch)
            literal = oracles.dynamical_via_entangled_input(ch)
            np.testing.assert_allclose(closed.matrix, literal, atol=1e-12)

    def test_invariants_hold_for_samples(self):
        for _, _, _, ch in population(902, (2, 3), FAMILIES, 4):
            oracles.check_dynamical_invariants(chmod.dynamical_from_kraus(ch))


class TestSuperoperatorMatrix:
    def test_identity_channel(self):
        sup = chmod.superoperator_from_kraus(identity_channel())
        np.testing.assert_array_equal(sup.matrix, np.eye(4))

    def test_completely_depolarizing(self):
        sup = chmod.superoperator_from_kraus(depolarizing_channel())
        v = np.eye(2, dtype=complex).reshape(-1)
        np.testing.assert_allclose(sup.matrix, np.outer(v, v.conj()) / 2, atol=1e-15)
        spec = chmod.superoperator_spectrum(sup)
        np.testing.assert_allclose(spec.values, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_unitary_channel(self):
        rng = np.random.default_rng(29)
        u = random_unitary(rng, 3)
        sup = chmod.superoperator_from_kraus(chmod.KrausChannel(3, (u,)))
        np.testing.assert_allclose(sup.matrix, np.kron(u, u.conj()), atol=1e-15)
        np.testing.assert_allclose(chmod.superoperator_spectrum(sup).values, np.ones(9), atol=1e-12)

    def test_action_on_vectorized_operators(self):
        rng = np.random.default_rng(31)
        for _, _, _, ch in population(903, (2, 3), ("cptp",), 2):
            sup = chmod.superoperator_from_kraus(ch)
            for _ in range(100):
                x = rng.normal(size=(ch.dim, ch.dim)) + 1j * rng.normal(size=(ch.dim, ch.dim))
                lhs = matcore.vec(chmod.apply_channel(ch, x))
                rhs = sup.matrix @ matcore.vec(x)
                assert np.abs(lhs - rhs).max() <= 1e-10


class TestReshuffle:
    def test_identity_channel_gives_identity(self):
        dyn = chmod.dynamical_from_kraus(identity_channel())
        np.testing.assert_allclose(chmod.reshuffle(dyn.matrix, 2), np.eye(4), atol=1e-15)

    def test_involution_and_entry_preservation(self):
        rng = np.random.default_rng(37)
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        once = chmod.reshuffle(m, 3)
        np.testing.assert_array_equal(chmod.reshuffle(once, 3), m)
        np.testing.assert_allclose(
            np.sort(np.abs(once).reshape(-1)), np.sort(np.abs(m).reshape(-1))
        )

    def test_frobenius_norm_preserved(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        assert abs(np.linalg.norm(chmod.reshuffle(m, 4)) - np.linalg.norm(m)) <= 1e-12

    def test_connects_the_representations(self):
        # the paper's identity K = reshuffle(D), between the two oracle routes
        for _, _, _, ch in population(904, (2, 3), ("cptp", "unistochastic"), 3):
            dyn = oracles.dynamical_via_entangled_input(ch)
            sup = oracles.superoperator_via_kron(ch)
            assert np.abs(chmod.reshuffle(dyn, ch.dim) - sup).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            chmod.reshuffle(np.eye(4), 3)


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(chmod.apply_channel(identity_channel(), x), x, atol=1e-15)

    def test_completely_depolarizing(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            chmod.apply_channel(depolarizing_channel(), rho), np.eye(2) / 2, atol=1e-14
        )

    def test_output_trace_one_on_maximally_mixed(self):
        for _, d, _, ch in population(905, (2, 3), ("cptp",), 5):
            out = chmod.apply_channel(ch, np.eye(d) / d)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_matches_dynamical_route(self):
        rng = np.random.default_rng(53)
        for _, d, _, ch in population(906, (2, 3), ("cptp", "unitary-mixture"), 2):
            dyn = chmod.dynamical_from_kraus(ch)
            for _ in range(25):
                rho = random_density(rng, d)
                direct = chmod.apply_channel(ch, rho)
                via_dyn = oracles.apply_channel_via_dynamical(dyn, rho)
                assert np.abs(direct - via_dyn).max() <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            chmod.apply_channel(identity_channel(), np.eye(3))


class TestIsUnital:
    def test_unitary_is_unital(self):
        rng = np.random.default_rng(59)
        ch = chmod.KrausChannel(2, (random_unitary(rng, 2),))
        assert chmod.is_unital(ch)

    def test_completely_depolarizing_is_unital(self):
        assert chmod.is_unital(depolarizing_channel())

    def test_amplitude_damping_is_not(self):
        ch = sampler.named_channel("amplitude-damping", 2, 0.5)
        assert not chmod.is_unital(ch)
        # sum A A^dag = diag(1 + g, 1 - g)
        assert abs(ch.unital_defect() - 0.5) <= 1e-12


class TestKrausGram:
    def test_matches_choi_spectrum(self):
        pop = list(population(907, (2, 3), FAMILIES, 4))
        pop.append(("named", 2, "amplitude-damping", sampler.named_channel("amplitude-damping", 2, 0.3)))
        for _, d, _, ch in pop:
            choi = matcore.hermitian_eigenvalues(chmod.dynamical_from_kraus(ch).matrix).values
            gram = matcore.hermitian_eigenvalues(oracles.kraus_gram(ch)).values
            width = max(choi.size, gram.size)
            lhs = np.sort(np.pad(choi, (0, width - choi.size)))
            rhs = np.sort(np.pad(gram, (0, width - gram.size)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestOracleRoutes:
    """D and K against their independent routes, up to d = 16 with k = 256."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", ROUTE_DIMS)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_d_and_k_match_oracles(self, d, family, seed):
        (_, _, _, ch), = population(seed, (d,), (family,), 1)
        assert len(ch.kraus_ops) == sampler.default_kraus_count(family, d)
        dyn = chmod.dynamical_from_kraus(ch)
        sup = chmod.superoperator_from_kraus(ch)
        assert np.abs(dyn.matrix - oracles.dynamical_via_entangled_input(ch)).max() <= 1e-12
        assert np.abs(sup.matrix - oracles.superoperator_via_kron(ch)).max() <= 1e-12


class TestChannelJson:
    def test_roundtrip(self, tmp_path):
        ch = sampler.named_channel("amplitude-damping", 2, 0.25)
        path = tmp_path / "ch.json"
        chmod.save_channel(ch, path)
        loaded = chmod.load_channel(path)
        assert loaded.dim == 2 and len(loaded.kraus_ops) == 2
        for a, b in zip(ch.kraus_ops, loaded.kraus_ops):
            np.testing.assert_array_equal(a, b)

    def test_rejects_non_tp_file(self):
        obj = {"dim": 2, "kraus": [matcore.matrix_to_json(np.eye(2) * 0.5)]}
        with pytest.raises(NotTracePreservingError):
            chmod.channel_from_json(obj)
