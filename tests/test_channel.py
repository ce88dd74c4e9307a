import json

import mpmath
import numpy as np
import oracles
import pytest
from helpers import (
    complex_gaussian,
    noisy_depolarizing,
    population,
    profile,
    random_density,
    random_unitary,
    save_channel,
    stack_channels,
    unital_defects,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import channel as chmod
from chanent import matcore, sampler, tradeoff
from chanent.errors import DimensionMismatchError, NotHermitianError, NotTracePreservingError

ROUTE_DIMS = (2, 3, 4, 8, 16)
FAMILIES = tuple(sampler.FAMILY_CODES)


def identity_channel(d=2):
    return sampler.named_channel("identity", d)


def depolarizing_channel(d=2):
    return sampler.named_channel("completely-depolarizing", d)


class TestKrausChannel:
    """One channel's ``(k, d, d)`` Kraus array, validated by ``check_kraus_stack`` as a stack of one."""

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            chmod.check_kraus_stack(np.eye(2)[None, None] / 2)
        with pytest.raises(NotTracePreservingError):
            chmod.channel_from_json({"dim": 2, "kraus": [matcore.matrix_to_json(np.eye(2) / 2)]})

    @pytest.mark.parametrize("entry, defect", [(np.nan, "nan"), (1e155, "inf")])
    def test_rejects_non_finite_defects(self, entry, defect):
        # a NaN defect is not above TP_TOL either, so it must not pass as TP;
        # entries whose products overflow give an inf defect, and no warning
        ops = np.full((1, 1, 2, 2), entry, dtype=complex)
        with pytest.raises(NotTracePreservingError, match=f"defect {defect}"):
            chmod.check_kraus_stack(ops)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            chmod.check_kraus_stack(np.eye(1)[None, None])
        with pytest.raises(DimensionMismatchError):
            sampler.named_channel("identity", 17)
        with pytest.raises(DimensionMismatchError):
            chmod.channel_from_json({"dim": 2, "kraus": [matcore.matrix_to_json(np.eye(3))]})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chmod.check_kraus_stack(np.ones((1, 0, 2, 2)))
        with pytest.raises(ValueError):
            chmod.channel_from_json({"dim": 2, "kraus": []})


class TestKrausStack:
    """Kraus arrays of channel stacks, validated with one check for the whole stack."""

    def test_rows_are_the_channels(self):
        chs = [ch for *_, ch in oracles.population(951, (3,), ("cptp",), 4)]
        ops = stack_channels(chs)
        assert ops.shape == (4, 9, 3, 3)
        assert chmod.check_kraus_stack(ops) is ops
        for row, ch in zip(ops, chs):
            np.testing.assert_array_equal(row, ch)
            assert oracles.tp_defect(row) == oracles.tp_defect(ch)

    def test_every_channel_is_checked(self):
        ops = np.stack([np.eye(2)[None] for _ in range(5)]).astype(complex)
        ops[3] *= 1 + 1e-6
        with pytest.raises(NotTracePreservingError) as got:
            chmod.check_kraus_stack(ops)
        with pytest.raises(NotTracePreservingError) as want:
            chmod.check_kraus_stack(ops[3:4])
        assert str(got.value) == str(want.value)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            chmod.check_kraus_stack(np.ones((2, 2, 2)))
        with pytest.raises(DimensionMismatchError):
            chmod.check_kraus_stack(np.ones((2, 1, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            chmod.check_kraus_stack(np.ones((2, 1, 1, 1)))
        with pytest.raises(ValueError):
            chmod.check_kraus_stack(np.ones((2, 0, 2, 2)))
        with pytest.raises(ValueError, match="2 channels but 1 channel ids"):
            chmod.profile_channel(np.stack([np.eye(2, dtype=complex)[None]] * 2), ["only-one"])


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
        ch = identity_channel()
        dyn = chmod.dynamical_from_kraus(ch)
        # D = sum_{mu,nu} |mu mu><nu nu|: rank one with eigenvalue d
        spec = chmod.dynamical_spectrum(ch)
        np.testing.assert_allclose(spec, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
        v = np.eye(2, dtype=complex).reshape(-1)
        np.testing.assert_allclose(dyn, np.outer(v, v.conj()), atol=1e-15)

    def test_completely_depolarizing(self):
        ch = depolarizing_channel()
        dyn = chmod.dynamical_from_kraus(ch)
        np.testing.assert_allclose(dyn, np.eye(4) / 2, atol=1e-15)
        np.testing.assert_allclose(chmod.dynamical_spectrum(ch), [0.5] * 4)

    def test_unitary_channel_rank_one(self):
        rng = np.random.default_rng(23)
        u = random_unitary(rng, 3)
        spec = chmod.dynamical_spectrum(u[None])
        np.testing.assert_allclose(spec[0], 3.0, atol=1e-12)
        np.testing.assert_allclose(spec[1:], 0.0, atol=1e-12)

    def test_matches_entangled_state_route(self):
        for _, _, _, ch in population(901, (2, 3), ("cptp", "unitary-mixture"), 4):
            closed = chmod.dynamical_from_kraus(ch)
            literal = oracles.dynamical_via_entangled_input(ch)
            np.testing.assert_allclose(closed, literal, atol=1e-12)

    def test_invariants_hold_for_samples(self):
        for _, _, _, ch in population(902, (2, 3), FAMILIES, 4):
            oracles.check_dynamical_invariants(chmod.dynamical_from_kraus(ch))


class TestSuperoperatorMatrix:
    def test_identity_channel(self):
        sup = chmod.reshuffle(chmod.dynamical_from_kraus(identity_channel()), 2)
        np.testing.assert_array_equal(sup, np.eye(4))

    def test_completely_depolarizing(self):
        sup = chmod.reshuffle(chmod.dynamical_from_kraus(depolarizing_channel()), 2)
        v = np.eye(2, dtype=complex).reshape(-1)
        np.testing.assert_allclose(sup, np.outer(v, v.conj()) / 2, atol=1e-15)
        spec = chmod.superoperator_spectrum(sup, 2)
        np.testing.assert_allclose(spec, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_unitary_channel(self):
        rng = np.random.default_rng(29)
        u = random_unitary(rng, 3)
        sup = chmod.reshuffle(chmod.dynamical_from_kraus(u[None]), 3)
        np.testing.assert_allclose(sup, np.kron(u, u.conj()), atol=1e-15)
        np.testing.assert_allclose(chmod.superoperator_spectrum(sup, 3), np.ones(9), atol=1e-12)

    def test_action_on_vectorized_operators(self):
        rng = np.random.default_rng(31)
        for _, d, _, ch in population(903, (2, 3), ("cptp",), 2):
            sup = chmod.reshuffle(chmod.dynamical_from_kraus(ch), d)
            for _ in range(100):
                x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                lhs = oracles.vec(oracles.apply_channel(ch, x))
                rhs = sup @ oracles.vec(x)
                assert np.abs(lhs - rhs).max() <= 1e-10


class TestReshuffle:
    def test_identity_channel_gives_identity(self):
        dyn = chmod.dynamical_from_kraus(identity_channel())
        np.testing.assert_allclose(chmod.reshuffle(dyn, 2), np.eye(4), atol=1e-15)

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
        for _, d, _, ch in population(904, (2, 3), ("cptp", "unistochastic"), 3):
            dyn = oracles.dynamical_via_entangled_input(ch)
            sup = oracles.superoperator_via_kron(ch)
            assert np.abs(chmod.reshuffle(dyn, d) - sup).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            chmod.reshuffle(np.eye(4), 3)


class TestApplyChannel:
    """The Kraus-side channel action of ``tests/oracles.py``, against closed forms and the ``D`` route."""

    def test_identity(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(oracles.apply_channel(identity_channel(), x), x, atol=1e-15)

    def test_completely_depolarizing(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            oracles.apply_channel(depolarizing_channel(), rho), np.eye(2) / 2, atol=1e-14
        )

    def test_output_trace_one_on_maximally_mixed(self):
        for _, d, _, ch in population(905, (2, 3), ("cptp",), 5):
            out = oracles.apply_channel(ch, np.eye(d) / d)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_matches_dynamical_route(self):
        rng = np.random.default_rng(53)
        for _, d, _, ch in population(906, (2, 3), ("cptp", "unitary-mixture"), 2):
            dyn = chmod.dynamical_from_kraus(ch)
            for _ in range(25):
                rho = random_density(rng, d)
                direct = oracles.apply_channel(ch, rho)
                via_dyn = oracles.apply_channel_via_dynamical(dyn, rho)
                assert np.abs(direct - via_dyn).max() <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            oracles.apply_channel(identity_channel(), np.eye(3))


class TestIsUnital:
    """The unital flags and ``Tr_2 D`` of :func:`~chanent.channel.profile_channel`, where unitality is decided."""

    def test_unitary_is_unital(self):
        rng = np.random.default_rng(59)
        assert profile(random_unitary(rng, 2)[None]).unital[0]

    def test_completely_depolarizing_is_unital(self):
        assert profile(depolarizing_channel()).unital[0]

    def test_amplitude_damping_is_not(self):
        prof = profile(sampler.named_channel("amplitude-damping", 2, 0.5))
        assert not prof.unital[0]
        # sum A A^dag = diag(1 + g, 1 - g)
        np.testing.assert_allclose(prof.tr2[0], np.diag([1.5, 0.5]), atol=1e-15)
        assert abs(unital_defects(prof)[0] - 0.5) <= 1e-12

    def test_tp_noisy_channel_is_unital(self):
        # unital within TP_TOL, the tolerance the channel was admitted at
        prof = profile(noisy_depolarizing())
        assert 5e-9 < unital_defects(prof)[0] <= chmod.TP_TOL
        assert prof.unital[0]

    @pytest.mark.parametrize("g, unital", [(5e-9, True), (2e-8, False)])
    def test_unital_tolerance_is_tp_tol(self, g, unital):
        # amplitude damping has unital defect g and is exactly TP
        ch = sampler.named_channel("amplitude-damping", 2, g)
        assert oracles.tp_defect(ch) <= 1e-15
        assert bool(profile(ch).unital[0]) is unital

    @pytest.mark.parametrize("d", ROUTE_DIMS)
    def test_stacked_defects_match_single_and_kraus_side(self, d):
        # Tr_2 D = sum_i A_i A_i^dag: one reduction on the D stack
        for family in FAMILIES:
            chs = [ch for *_, ch in population(961, (d,), (family,), 3)]
            stacked = profile(*chs)
            singles = [profile(ch) for ch in chs]
            assert stacked.tr2.shape == (3, d, d)
            for defect, one, ch in zip(unital_defects(stacked), singles, chs):
                assert abs(defect - unital_defects(one)[0]) <= 1e-15
                assert abs(defect - oracles.unital_defect_via_kraus(ch)) <= 1e-15
            flags = stacked.unital.tolist()
            assert flags == [bool(one.unital[0]) for one in singles] == [family != "cptp"] * 3


class TestKrausGram:
    """The map spectrum as sigma(V)**2 of the Kraus matrix V, whose Gram matrix conj(V) V^T has it too."""

    def test_matches_choi_spectrum(self):
        pop = list(population(907, (2, 3), FAMILIES, 4))
        pop.append(("named", 2, "amplitude-damping", sampler.named_channel("amplitude-damping", 2, 0.3)))
        pop += [("named", d, "depolarizing", sampler.named_channel("depolarizing", d, 0.3)) for d in (2, 3)]
        # k < d**2 (unitary mixtures, amplitude damping), k = d**2 (cptp,
        # unistochastic) and k = d**2 + 1 (depolarizing) take the one route
        assert {int(np.sign(len(ch) - d * d)) for _, d, _, ch in pop} == {-1, 0, 1}
        for _, d, _, ch in pop:
            # the library takes sigma(V)**2, the oracle a dense eigvalsh of D
            dyn = chmod.dynamical_from_kraus(ch)
            _assert_spectra_close(chmod.dynamical_spectrum(ch), oracles.dynamical_eigenvalues(dyn))

    def test_structural_zeros_are_exact(self):
        # dephasing at d = 4 has k = 5 operators of rank 4: one sigma(V) is a
        # structural zero, about 7.8e-34 as sigma**2 before the SVD's floor
        ch = sampler.named_channel("dephasing", 4, 0.5)
        assert len(ch) == 5
        v = ch.reshape(5, 16)
        sigma = np.linalg.svd(v, compute_uv=False)
        assert 0.0 < sigma[-1] ** 2 < (np.finfo(float).eps * 16) ** 2 * sigma[0] ** 2
        spec = chmod.dynamical_spectrum(ch)
        assert np.count_nonzero(spec) == 4 and (spec[4:] == 0.0).all()
        np.testing.assert_allclose(spec[:4], oracles.dynamical_eigenvalues(chmod.dynamical_from_kraus(ch))[:4])

    def test_profile_takes_the_map_spectrum_once_on_first_read(self, monkeypatch):
        ops = stack_channels([ch for _, _, _, ch in population(908, (3,), FAMILIES, 2)])
        calls = []
        original = chmod.dynamical_spectrum
        monkeypatch.setattr(chmod, "dynamical_spectrum", lambda *a: calls.append(len(a[0])) or original(*a))
        prof = chmod.profile_channel(ops)
        assert calls == []
        first = prof.choi_spectrum
        assert prof.choi_spectrum is first and calls == [len(ops)]
        np.testing.assert_array_equal(first, original(ops))


class TestSmallMapEigenvalues:
    """Map eigenvalues far below 1e-12 of the largest keep their digits, and so does the entropy at q < 1."""

    @pytest.mark.parametrize("eps", [1e-13, 1e-15])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_unitary_mixture_with_tiny_weights_against_mpmath(self, d, eps):
        # d Haar unitaries with weights 1, 2 eps, ..., d eps: d - 1 map
        # eigenvalues of order eps, each of which a clamp at 1e-12 would zero
        rng = np.random.default_rng(1400 + d)
        weights = np.array([1.0] + [(i + 1) * eps for i in range(1, d)])
        unitaries = np.stack([oracles.haar_unitary(d, rng) for _ in range(d)])
        ops = chmod.check_kraus_stack((np.sqrt(weights / weights.sum())[:, None, None] * unitaries)[None])
        profile = chmod.profile_channel(ops)
        got = profile.choi_spectrum[0]
        want = oracles.dynamical_eigenvalues_mp(ops[0])
        assert got.shape == (d * d,) and not got[d:].any()
        for g, w in zip(got[:d], want[:d]):
            assert abs(g - w) <= 1e-12 * w, (float(g), float(w))
        grid = tradeoff.evaluate_profile(profile, tradeoff.bound_table(d, (0.3,), (0.0,)))
        with mpmath.workdps(50):
            total = mpmath.fsum(want)
            renyi = mpmath.log(mpmath.fsum((w / total) ** mpmath.mpf(0.3) for w in want[:d])) / mpmath.mpf(0.7)
        assert abs(grid.map_values[0, 0, 0] - float(renyi)) <= 1e-12


def _assert_spectra_close(got, want):
    """Within 1e-13 of the largest entry of each spectrum."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert (np.abs(got - want) <= 1e-13 * scale).all(), float((np.abs(got - want) / scale).max())


def _spectra(ops, d):
    """Both library spectra of a Kraus array: ``eig(D)``, given the Kraus operators, and ``svd(K)``."""
    dyn = chmod.dynamical_from_kraus(ops)
    return chmod.dynamical_spectrum(ops), chmod.superoperator_spectrum(chmod.reshuffle(dyn, d), d)


def _assert_routes_match_oracles(ops, d):
    """The map spectrum against a dense eigvalsh of D, the receiver spectrum against a complex svd of K."""
    dyn = chmod.dynamical_from_kraus(ops)
    choi, sup = _spectra(ops, d)
    _assert_spectra_close(choi, oracles.dynamical_eigenvalues(dyn))
    _assert_spectra_close(sup, oracles.superoperator_singular_values(chmod.reshuffle(dyn, d)))


class TestSpectrumRoutes:
    """The sigma(V)**2 route to eig(D) and the real-form route to svd(K), against the dense complex routes."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", ROUTE_DIMS)
    def test_families(self, d, family):
        chs = [ch for *_, ch in population(971, (d,), (family,), 3)]
        ops = stack_channels(chs)
        # one route for both k: unitary mixtures (k = d) and the other families (k = d**2)
        assert (ops.shape[1] < d * d) == (family == "unitary-mixture")
        _assert_routes_match_oracles(ops, d)
        # the stack's rows are the single channels' spectra
        stacked = _spectra(ops, d)
        for k, ch in enumerate(chs):
            one = _spectra(ch, d)
            _assert_spectra_close(stacked[0][k], one[0])
            _assert_spectra_close(stacked[1][k], one[1])

    @pytest.mark.parametrize(
        "name, d, param",
        [
            ("identity", 2, None),  # k = 1: V is one row
            ("identity", 3, None),
            ("unitary", 3, 0.7),
            ("amplitude-damping", 2, 0.3),
            ("dephasing", 3, 0.6),
            ("depolarizing", 3, 0.3),  # k = d**2 + 1: more rows than columns
            ("completely-depolarizing", 3, None),
        ],
    )
    def test_named_channels(self, name, d, param):
        _assert_routes_match_oracles(sampler.named_channel(name, d, param), d)

    def test_tp_noisy_channel(self):
        _assert_routes_match_oracles(noisy_depolarizing(), 3)

    def test_padded_mixed_kraus_stack(self):
        # k = 1, 4 and 3 at d = 3: the stack is padded to k = 4 < d**2 zero operators
        (*_, mixture), = population(973, (3,), ("unitary-mixture",), 1)
        chs = [sampler.named_channel("identity", 3), sampler.named_channel("dephasing", 3, 0.4), mixture]
        ops = stack_channels(chs)
        assert ops.shape == (3, 4, 3, 3)
        _assert_routes_match_oracles(ops, 3)
        stacked = _spectra(ops, 3)[0]
        for row, ch in zip(stacked, chs):
            _assert_spectra_close(row, _spectra(ch, 3)[0])

    def test_gram_spectrum_is_padded_with_exact_zeros(self):
        spec, _ = _spectra(sampler.named_channel("unitary", 3, 0.7), 3)
        assert spec.shape == (9,)
        assert spec[0] == pytest.approx(3.0, abs=1e-13)
        assert not spec[1:].any()

    def test_non_hermiticity_preserving_superoperator_is_rejected(self):
        rng = np.random.default_rng(977)
        not_hermitian = complex_gaussian(rng, (9, 9))
        with pytest.raises(NotHermitianError):
            chmod.superoperator_spectrum(chmod.reshuffle(not_hermitian, 3), 3)
        # checked matrix by matrix in a stack, with the error a single call raises
        good = chmod.dynamical_from_kraus(sampler.named_channel("dephasing", 3, 0.4))
        bad = good + 1e-6j * np.eye(9)  # Hermiticity deviation 2e-6 on the diagonal
        stack = chmod.reshuffle(np.stack([good, good, bad]), 3)
        with pytest.raises(NotHermitianError) as stacked:
            chmod.superoperator_spectrum(stack, 3)
        with pytest.raises(NotHermitianError) as single:
            chmod.superoperator_spectrum(stack[2], 3)
        assert str(stacked.value) == str(single.value)
        # a rounding-level deviation is accepted
        noisy = good + 1e-12j * np.eye(9)
        chmod.superoperator_spectrum(chmod.reshuffle(noisy, 3), 3)


class TestOracleRoutes:
    """D and K against their independent routes, up to d = 16 with k = 256."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", ROUTE_DIMS)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_d_and_k_match_oracles(self, d, family, seed):
        (_, _, _, ch), = population(seed, (d,), (family,), 1)
        assert len(ch) == sampler.default_kraus_count(family, d)
        dyn = chmod.dynamical_from_kraus(ch)
        sup = chmod.reshuffle(dyn, d)
        assert np.abs(dyn - oracles.dynamical_via_entangled_input(ch)).max() <= 1e-12
        assert np.abs(sup - oracles.superoperator_via_kron(ch)).max() <= 1e-12


class TestChannelJson:
    def test_roundtrip(self, tmp_path):
        ch = sampler.named_channel("amplitude-damping", 2, 0.25)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        loaded = chmod.channel_from_json(json.loads(path.read_text()))
        assert loaded.shape == (2, 2, 2)
        np.testing.assert_array_equal(loaded, ch)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, 0, "2"])
    def test_dim_is_an_integer_from_1(self, dim):
        obj = {**chmod.channel_to_json(sampler.named_channel("identity", 2)), "dim": dim}
        with pytest.raises(ValueError, match="'dim' must be an integer >= 1"):
            chmod.channel_from_json(obj)

    def test_rejects_non_tp_file(self):
        obj = {"dim": 2, "kraus": [matcore.matrix_to_json(np.eye(2) * 0.5)]}
        with pytest.raises(NotTracePreservingError):
            chmod.channel_from_json(obj)


def test_reshuffle_acts_on_each_matrix_of_a_stack():
    stack = np.arange(3 * 81, dtype=float).reshape(3, 9, 9)
    got = chmod.reshuffle(stack, 3)
    for i, m in enumerate(stack):
        np.testing.assert_array_equal(got[i], chmod.reshuffle(m, 3))
