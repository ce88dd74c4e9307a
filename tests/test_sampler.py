import math
import warnings

import numpy as np
import oracles
import pytest
from helpers import drawn_stacks, plant_zero_ginibre_set, profile, random_density, unital_defects
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import channel as chmod
from chanent import sampler
from chanent.entropy import entropy_grid
from chanent.errors import (
    DimensionMismatchError,
    NotTracePreservingError,
    ParamOutOfRangeError,
    UnknownChannelError,
)


def derive_seed(*address):
    """The library's seed for the sample at ``address``, that of ``SeedSequence(address)``."""
    *prefix, last = address
    return int(sampler._derive_seeds(prefix, [last])[0])


class TestSampleCptp:
    def test_trace_preservation_at_rounding_level(self):
        for d in (2, 3, 4):
            ch = sampler.sample_stack("cptp", d, [derive_seed(1, 0, d, 0)])[0]
            assert oracles.tp_defect(ch) <= 1e-12

    def test_single_kraus_is_unitary(self):
        ch = sampler._cptp_ops([77], 3, 1)[0]
        a = ch[0]
        assert np.abs(a.conj().T @ a - np.eye(3)).max() <= 1e-12
        spec = chmod.dynamical_spectrum(ch)
        assert np.count_nonzero(spec) == 1

    def test_deterministic(self):
        np.testing.assert_array_equal(sampler._cptp_ops([12345], 3, 4), sampler._cptp_ops([12345], 3, 4))

    def test_distinct_seeds_differ(self):
        a = sampler.sample_stack("cptp", 2, [derive_seed(9, 0, 2, 0)])[0]
        b = sampler.sample_stack("cptp", 2, [derive_seed(9, 0, 2, 1)])[0]
        assert np.abs(a[0] - b[0]).max() > 1e-3

    def test_generic_samples_are_not_unital(self):
        ops = sampler.sample_stack("cptp", 2, [derive_seed(2, 0, 2, i) for i in range(100)])
        assert np.count_nonzero(~chmod.profile_channel(ops).unital) >= 95

    def test_singular_normalizer_is_not_trace_preserving(self, monkeypatch):
        # a zero Ginibre set has the normalizer 0: its operators are NaN, which
        # the trace-preservation check refuses, with no floating-point warning
        plant_zero_ginibre_set(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotTracePreservingError, match="defect nan"):
                next(drawn_stacks(1, (2,), ("cptp",), 3))

    def test_normalizers_are_far_from_singular(self, monkeypatch):
        # the margin that lets each sample be drawn once: over these samples of
        # seed 1, stream 0, the normalizers' largest condition numbers are 15.6
        # at d = 2 and 5.56 at d = 3 (40.9 and 6.17 over 200,000 and 100,000)
        drawn = []
        ginibre = sampler._ginibre
        monkeypatch.setattr(sampler, "_ginibre", lambda streams, shape: drawn.append(ginibre(streams, shape)) or drawn[-1])
        for d, count in ((2, 20_000), (3, 5_000)):
            drawn.clear()
            for _ in drawn_stacks(1, (d,), ("cptp",), count):
                pass
            (g,) = drawn
            vals = np.linalg.eigvalsh((g.conj().swapaxes(-2, -1) @ g).sum(axis=1))
            assert len(vals) == count and (vals[:, -1] / vals[:, 0]).max() < 1e3, d


class TestSampleUnitaryMixture:
    def test_unital_and_tp(self):
        for k in (1, 3, 6):
            ch = sampler._unitary_mixture_ops([derive_seed(3, 1, 3, k)], 3, k)[0]
            assert unital_defects(profile(ch))[0] <= 1e-10
            assert oracles.tp_defect(ch) <= 1e-10

    def test_single_unitary_has_zero_map_entropy(self):
        ch = sampler._unitary_mixture_ops([55], 2, 1)[0]
        assert abs(entropy_grid(profile(ch).choi_spectrum, (2.0,), (1.0,))).max() <= 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sampler._unitary_mixture_ops([999], 2, 3), sampler._unitary_mixture_ops([999], 2, 3)
        )


class TestSampleUnistochastic:
    def test_tp_and_unital(self):
        for d in (2, 3):
            ch = sampler.sample_stack("unistochastic", d, [derive_seed(4, 2, d, 0)])[0]
            assert len(ch) == d * d
            assert oracles.tp_defect(ch) <= 1e-10
            assert unital_defects(profile(ch))[0] <= 1e-10

    def test_trivial_coupling_is_identity_channel(self):
        rng = np.random.default_rng(5)
        d = 3
        ch = oracles.unistochastic_from_unitary(np.eye(d * d, dtype=complex), d)
        rho = random_density(rng, d)
        np.testing.assert_allclose(oracles.apply_channel(ch, rho), rho, atol=1e-14)

    def test_swap_coupling_depolarizes_completely(self):
        rng = np.random.default_rng(6)
        d = 3
        swap = np.zeros((d * d, d * d), dtype=complex)
        for mu in range(d):
            for e in range(d):
                swap[e * d + mu, mu * d + e] = 1.0
        ch = oracles.unistochastic_from_unitary(swap, d)
        rho = random_density(rng, d)
        np.testing.assert_allclose(oracles.apply_channel(ch, rho), np.eye(d) / d, atol=1e-14)


class TestNamedChannels:
    def test_identity(self):
        ch = sampler.named_channel("identity", 3)
        spec = chmod.dynamical_spectrum(ch)
        np.testing.assert_allclose(spec, [3.0] + [0.0] * 8, atol=1e-12)
        sup = chmod.reshuffle(chmod.dynamical_from_kraus(ch), 3)
        np.testing.assert_array_equal(sup, np.eye(9))

    def test_completely_depolarizing(self):
        ch = sampler.named_channel("completely-depolarizing", 2)
        dyn = chmod.dynamical_from_kraus(ch)
        np.testing.assert_allclose(dyn, np.eye(4) / 2, atol=1e-15)
        sup_spec = chmod.superoperator_spectrum(ch)
        assert np.count_nonzero(sup_spec) == 1

    def test_depolarizing_action(self):
        rng = np.random.default_rng(7)
        for d, p in ((2, 0.3), (3, 0.8)):
            ch = sampler.named_channel("depolarizing", d, p)
            rho = random_density(rng, d)
            want = (1 - p) * rho + p * np.eye(d) / d
            np.testing.assert_allclose(oracles.apply_channel(ch, rho), want, atol=1e-13)

    def test_dephasing_action(self):
        rng = np.random.default_rng(8)
        ch = sampler.named_channel("dephasing", 3, 0.6)
        rho = random_density(rng, 3)
        want = 0.4 * rho + 0.6 * np.diag(np.diag(rho))
        np.testing.assert_allclose(oracles.apply_channel(ch, rho), want, atol=1e-13)
        assert profile(ch).unital[0]

    def test_amplitude_damping_gram_oracle(self):
        g = 0.5
        ch = sampler.named_channel("amplitude-damping", 2, g)
        assert not profile(ch).unital[0]
        # Gram matrix conj(V) V^T is diag(2 - g, g), so the Choi spectrum is {2-g, g, 0, 0}
        v = ch.reshape(2, 4)  # rows vec(A_i)
        np.testing.assert_allclose(v.conj() @ v.T, np.diag([2 - g, g]), atol=1e-14)
        spec = chmod.dynamical_spectrum(ch)
        np.testing.assert_allclose(spec, [2 - g, g, 0.0, 0.0], atol=1e-12)

    def test_unitary_rotation(self):
        ch = sampler.named_channel("unitary", 3, 0.7)
        u = ch[0]
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-14
        spec = chmod.superoperator_spectrum(ch)
        np.testing.assert_allclose(spec, np.ones(9), atol=1e-12)

    def test_errors(self):
        with pytest.raises(UnknownChannelError):
            sampler.named_channel("no-such-channel", 2)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("depolarizing", 2, 1.5)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("depolarizing", 2, None)
        with pytest.raises(ParamOutOfRangeError):
            sampler.named_channel("amplitude-damping", 3, 0.5)

    def test_unitary_errors_are_typed(self):
        # a rotation needs two basis directions and a finite angle
        with pytest.raises(DimensionMismatchError):
            sampler.named_channel("unitary", 1, 0.3)
        for angle in (math.inf, -math.inf, math.nan, None):
            with pytest.raises(ParamOutOfRangeError):
                sampler.named_channel("unitary", 2, angle)


class TestDispatchAndSeeds:
    def test_named_family_dispatch(self):
        (*_, ops), = drawn_stacks(1, (2,), ("named:amplitude-damping:0.5",), 1)
        np.testing.assert_array_equal(ops, [sampler.named_channel("amplitude-damping", 2, 0.5)])

    def test_unknown_family(self):
        with pytest.raises(UnknownChannelError):
            sampler.sample_stack("bogus", 2, [0])

    def test_derive_seed_is_stable_and_injective_enough(self):
        a = derive_seed(42, 0, 2, 7)
        b = derive_seed(42, 0, 2, 7)
        c = derive_seed(42, 0, 2, 8)
        assert a == b and a != c


class TestPopulation:
    def test_order_ids_and_seeds(self):
        pop = list(drawn_stacks(5, (3, 2), ("unistochastic", "cptp"), 2, stream=100))
        assert [(fam, d, ids) for fam, d, ids, _ in pop] == [
            ("unistochastic", 3, ["unistochastic-d3-0000", "unistochastic-d3-0001"]),
            ("cptp", 3, ["cptp-d3-0000", "cptp-d3-0001"]),
            ("unistochastic", 2, ["unistochastic-d2-0000", "unistochastic-d2-0001"]),
            ("cptp", 2, ["cptp-d2-0000", "cptp-d2-0001"]),
        ]
        ops = pop[1][3]
        assert ops.shape == (2, 9, 3, 3)
        np.testing.assert_array_equal(ops[1], sampler.sample_stack("cptp", 3, [derive_seed(5, 100 + 0, 3, 1)])[0])

    def test_stacks_are_cut_by_size(self):
        pop = sampler.population(5, (2, 3), ("cptp",), 5, size=lambda d: 4 if d == 2 else 5)
        assert [(d, len(ids), len(seeds)) for _, d, ids, seeds in pop] == [(2, 4, 4), (2, 1, 1), (3, 5, 5)]

    def test_named_family(self, monkeypatch):
        # one stack of one channel per dimension, whatever the count and the stack size; no seed is derived
        monkeypatch.setattr(sampler, "_derive_seeds", None)
        pop = sampler.population(1, (2, 3), ("named:identity",), 50, size=lambda d: 7)
        assert [(family, d, ids) for family, d, ids, _ in pop] == [
            ("named:identity", d, [f"named:identity-d{d}-0000"]) for d in (2, 3)
        ]
        (*_, ops), = drawn_stacks(1, (2,), ("named:identity",), 2)
        np.testing.assert_array_equal(ops, [[np.eye(2)]])

    def test_ginibre_population(self):
        # the matrix families share family code 0 and one stream: psd is G G^dag of mat's G
        pop = list(drawn_stacks(5, (2, 3), ("mat", "psd"), 2, stream=201))
        assert [(fam, d, ids, x.shape) for fam, d, ids, x in pop] == [
            (fam, d, [f"{fam}-d{d}-0000", f"{fam}-d{d}-0001"], (2, d, d)) for d in (2, 3) for fam in ("mat", "psd")
        ]
        g = oracles.ginibre(3, np.random.default_rng(derive_seed(5, 201, 3, 1)))
        np.testing.assert_array_equal(pop[2][3][1], g)
        np.testing.assert_array_equal(pop[3][3][1], g @ g.conj().T)

    def test_seeding_is_bounded_by_the_stack(self, monkeypatch):
        # each stack's seeds are derived for its own indices: no pass grows with the population
        derived, hashed = [], []
        derive, seed_states = sampler._derive_seeds, sampler._seed_states
        monkeypatch.setattr(sampler, "_derive_seeds", lambda *a: derived.append(len(a[-1])) or derive(*a))
        monkeypatch.setattr(sampler, "_seed_states", lambda e, n: hashed.append(len(e)) or seed_states(e, n))
        families = (*sampler.FAMILY_CODES, "psd")
        stacks = drawn_stacks(6, (2, 3), families, 5_000, size=lambda d: 64)
        assert sum(len(ops) for *_, ops in stacks) == 2 * len(families) * 5_000
        assert derived and max(derived) <= 64
        # a cptp stack at d = 3 has the most stream keys: one per Kraus operator
        assert max(hashed) <= 64 * sampler.default_kraus_count("cptp", 3)


# Seeds at the word boundaries of SeedSequence's integer coercion: one word,
# the largest one-word value, two words, three words, and five words (more
# than the pool holds, so no zero padding under a spawn key).
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7)
FAMILIES = tuple(sampler.FAMILY_CODES)
CUTS = (1, 7, 128)


def assert_same_channels(got, want):
    """Same ids and bit-identical Kraus arrays, channel by channel: ``got`` ends in
    a row of a Kraus stack, ``want`` in an oracle channel."""
    assert [g[:-1] for g in got] == [w[:-1] for w in want]
    for (*_, a), (*_, b) in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def stacked(seed, d, family, count, cut, stream=0):
    """The stacked population one Kraus array row at a time, and its stack sizes."""
    stacks = list(drawn_stacks(seed, (d,), (family,), count, stream=stream, size=lambda _: cut))
    flat = [(fam, dim, cid, row) for fam, dim, ids, ops in stacks for cid, row in zip(ids, ops)]
    return flat, [len(ops) for *_, ops in stacks]


class TestStreamContract:
    """Stacked sampling against numpy's SeedSequence / default_rng and the per-sample oracles, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9).flatmap(
            lambda row: st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=len(row), max_size=len(row)),
                                 min_size=1, max_size=5).map(lambda rows: [row, *rows])
        ),
        n_words=st.integers(1, 9),
    )
    def test_seed_states_match_seed_sequence(self, rows, n_words):
        got = sampler._seed_states(np.array(rows, dtype=np.uint32), n_words)
        for row, words in zip(rows, got):
            want = np.random.SeedSequence(np.array(row, dtype=np.uint32)).generate_state(n_words)
            np.testing.assert_array_equal(words, want)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        self.check_seed(seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**160))
    def test_drawn_seeds(self, seed):
        self.check_seed(seed)

    @staticmethod
    def check_seed(seed):
        # derived seeds: the seed first, then as an index; an index is one word
        for indices in ((), (0,), (3, 2, 7), (1, 2**32 - 1), (5, 2**32), (seed,)):
            address = (seed, *indices)
            if address[-1] >> 32:
                with pytest.raises(ValueError, match="below 2\\*\\*32"):
                    derive_seed(*address)
            else:
                assert derive_seed(*address) == oracles.derive_seed(*address)
        # many indices under one prefix in one call, as population() derives a stack's seeds
        indices = [0, 1, 2**32 - 1, 9]
        for prefix in ((seed, 1, 3), (seed, 205, 16), (seed,)):
            np.testing.assert_array_equal(
                sampler._derive_seeds(prefix, indices), [oracles.derive_seed(*prefix, i) for i in indices]
            )
        # stream seeding and draws, root and spawned, of uint64 seeds as derivation gives them:
        # one seed source hands each row of the words table, in order, to its own PCG64
        low = seed & (2**64 - 1)
        for keys in ([()], [(0,), (1,), (2,)], [(0, 0), (0, 5), (3, 1)]):
            streams = sampler._Streams(sampler._stream_states([low, 11], keys))
            for s in (low, 11):
                for key in keys:
                    rng = np.random.default_rng(np.random.SeedSequence(s, spawn_key=key))
                    gen = np.random.Generator(np.random.PCG64(streams))
                    assert gen.bit_generator.state == rng.bit_generator.state
                    np.testing.assert_array_equal(gen.standard_normal((2, 3, 3)), rng.normal(size=(2, 3, 3)))
            with pytest.raises(ValueError, match="fewer rows than draws"):
                np.random.PCG64(streams)
        if seed >> 64:
            with pytest.raises(ValueError, match="below 2\\*\\*64"):
                sampler._stream_states([seed], [()])

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_stream_words_are_four_contiguous_uint64(self, n_words, dtype):
        # PCG64 reads its four words from the buffer: the seed source hands each row of a
        # table of any layout, a Fortran-order one too, as adjacent words
        table = sampler._stream_states([5, 6], [(0,), (1,)])
        streams = sampler._Streams(np.asfortranarray(table))
        with pytest.raises(ValueError, match="a stream is 4 uint64 words"):
            streams.generate_state(n_words, dtype)
        # a refused request takes no row: the rows come in order, then the table runs out
        for row in table:
            words = streams.generate_state(4, np.uint64)
            assert words.flags.c_contiguous
            np.testing.assert_array_equal(words, row)
        with pytest.raises(ValueError, match="fewer rows than draws"):
            streams.generate_state(4, np.uint64)

    @pytest.mark.parametrize("method", ["standard_normal", "standard_exponential"])
    @pytest.mark.parametrize("keys", [[()], [(i,) for i in range(5)], [(3, i) for i in range(5)]],
                             ids=["root", "spawned", "two-word"])
    def test_draw_loop_matches_default_rng(self, keys, method):
        # every draw of a stack, the mixture weights' exponentials included, against numpy's own streams
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 12345]
        streams, fill = sampler._Streams(sampler._stream_states(seeds, keys)), getattr(np.random.Generator, method)
        got = sampler._draw(streams, fill, np.empty((len(seeds) * len(keys), 2, 3)))
        want = [getattr(np.random.default_rng(np.random.SeedSequence(s, spawn_key=key)), method)((2, 3))
                for s in seeds for key in keys]
        np.testing.assert_array_equal(got, want)
        # a table with fewer rows than draws says so, not as a StopIteration
        with pytest.raises(ValueError, match="fewer rows than draws"):
            sampler._draw(streams, fill, np.empty((1, 2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        key=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    )
    def test_seed_sequence_pads_to_the_pool_size(self, words, key):
        # the identity that lets every seeding pass use one table width, on numpy's own SeedSequence
        def state(entropy, spawn_key=()):
            return np.random.SeedSequence(np.array(entropy, dtype=np.uint32), spawn_key=spawn_key).generate_state(8)

        padded = words + [0] * (4 - len(words))
        np.testing.assert_array_equal(state(words), state(padded))
        np.testing.assert_array_equal(state(words, key), state(padded + key))
        assert not np.array_equal(state(padded + [0]), state(padded))

    def test_one_seeding_pass_per_call(self, monkeypatch):
        passes = []
        seed_states = sampler._seed_states
        monkeypatch.setattr(sampler, "_seed_states", lambda e, n: passes.append(e.shape) or seed_states(e, n))
        sampler._derive_seeds((2**100 + 5, 2, 16), range(150))
        assert passes == [(150, 4 + 2 + 1)]  # a four-word seed, code and dimension, then the index
        passes.clear()
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, *range(146)]
        for keys in ([()], [(i,) for i in range(9)], [(7, i) for i in range(9)]):
            sampler._stream_states(seeds, keys)
        assert passes == [(150, 4), (150 * 9, 5), (150 * 9, 6)]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_sample_matches_oracle(self, family, seed):
        seed = min(seed, 2**64 - 1)  # a stream seed is a derived uint64: the wider edges stand for the widest
        for d in (2, 3):
            got = sampler.sample_stack(family, d, [seed])[0]
            assert_same_channels([(got,)], [(oracles.sample_channel(family, d, seed),)])

    @pytest.mark.parametrize("d, count", [(2, 9), (3, 9), (4, 9), (8, 8), (16, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacks_match_oracle(self, family, d, count):
        seed = EDGE_SEEDS[(d + len(family)) % len(EDGE_SEEDS)]
        want = list(oracles.population(seed, (d,), (family,), count, stream=100))
        for cut in CUTS:
            got, sizes = stacked(seed, d, family, count, cut, stream=100)
            assert sizes == [min(cut, count - i) for i in range(0, count, cut)]
            assert_same_channels(got, want)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), cut=st.sampled_from(CUTS))
    def test_drawn_population_matches_oracle(self, seed, cut):
        for family in FAMILIES:
            got, _ = stacked(seed, 3, family, 8, cut)
            assert_same_channels(got, list(oracles.population(seed, (3,), (family,), 8)))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_mixture_weights_match_dirichlet(self, k, d):
        # the weights are standard exponentials over their sequential sum, the
        # numbers the oracle's default_rng(stream k).dirichlet(np.ones(k)) gives
        seeds = [*range(200), *(min(seed, 2**64 - 1) for seed in EDGE_SEEDS)]
        ops = sampler._unitary_mixture_ops(seeds, d, k)
        for seed, row in zip(seeds, ops):
            np.testing.assert_array_equal(row, oracles.sample_unitary_mixture(d, k, seed))

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_ginibre_stacks_match_oracle(self, d):
        # the inequality suite's streams; psd is the oracle's G times G^dag by the suite's product
        for seed in EDGE_SEEDS[:4]:
            for stream in range(201, 206):
                g = np.stack([m for *_, m in oracles.ginibre_population(seed, (d,), 9, stream)])
                wants = {"mat": g, "psd": g @ g.conj().swapaxes(-2, -1)}
                for cut in CUTS:
                    for family, want in wants.items():
                        stacks = list(drawn_stacks(seed, (d,), (family,), 9, stream, size=lambda _: cut))
                        ids = [f"{family}-d{d}-{i:04d}" for i in range(9)]
                        assert [len(x) for *_, x in stacks] == [min(cut, 9 - j) for j in range(0, 9, cut)]
                        assert [i for _, _, labels, _ in stacks for i in labels] == ids
                        np.testing.assert_array_equal(np.concatenate([x for *_, x in stacks]), want)

    @pytest.mark.parametrize("call", [
        lambda: derive_seed(-1),
        lambda: derive_seed(3, 0, -2),
        lambda: sampler.sample_stack("cptp", 2, [-5]),
        lambda: next(sampler.population(-1, (2,), ("cptp",), 1)),
    ])
    def test_negative_entropy_raises_as_seed_sequence(self, call):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            call()
