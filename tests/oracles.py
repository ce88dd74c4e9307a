"""Independent routes to the library's quantities, for the tests to compare against.

Each oracle computes a quantity a second way, by construction rather than by
the closed form the library uses: ``D`` by acting on the maximally entangled
state, ``K`` by the Kronecker loop, the channel action from the Kraus
operators and from ``D``, the row-major ``vec`` and the partial trace over the
leading factor, the TP defect one Kraus operator at a time, the Choi
spectrum by a dense ``eigvalsh`` of ``D``, the receiver spectrum by a complex
SVD of ``K``, the unital defect from the Kraus operators, the
``(q, s)``-entropy one cell at a
time from its definition in 60-digit arithmetic, and of a flat spectrum in
closed form, the deformed logarithm the bound is written in, the
norm-inequality checks
one input and one order at a time, the bound's auxiliary domain minima by
grid search, and the samplers one sample, one ``SeedSequence`` and one
``default_rng`` at a time.  None of them is used by ``src/chanent``.

Two one-cell helpers sit beside them: :class:`EntropyParams`, the order
pair ``(q, s)`` the tests name a cell by, and :func:`lower_bound`, the
library's bound at one cell, read off a one-cell
:func:`~chanent.tradeoff.bound_table` (not a second route).
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from chanent import channel as chmod
from chanent import matcore, sampler
from chanent.channel import TP_TOL
from chanent.entropy import exprel
from chanent.errors import (
    DimensionMismatchError,
    DomainError,
    InvalidOrderError,
    InvalidSpectrumError,
    NonSquareError,
    NotPositiveError,
    NotTracePreservingError,
    SingularNormalizerError,
    UnknownChannelError,
)
from chanent.spectra import STRICT_POS_TOL
from chanent.tradeoff import bound_table, gamma_kappa


@dataclass(frozen=True)
class EntropyParams:
    """The entropy order pair ``(q, s)``; ``s = 0`` is Renyi, ``q = 1`` Shannon."""

    q: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 0.0 and math.isfinite(self.s)):
            raise DomainError(
                f"entropy orders need finite q > 0 and finite s, got q={self.q}, s={self.s}"
            )


def lower_bound(d, params, unital):
    """The library's lower bound on the entropic sum at one cell: a one-cell bound table."""
    table = bound_table(d, (params.q,), (params.s,))
    return float((table.unital if unital else table.all_channels)[0, 0])


def maximally_entangled_state(d):
    """Unit vector ``(1/sqrt(d)) * sum_nu |nu> (x) |nu>`` of length ``d**2``."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def dynamical_via_entangled_input(ch):
    """``D = d * (channel (x) id)(|phi+><phi+|)``, acting on the entangled state.

    The input is pure, so each Kraus term is the projector onto
    ``(A_i (x) I)|phi+>``; summing those outer products is the same map
    applied to ``|phi+><phi+|`` without the ``d**2 x d**2`` conjugations.
    """
    d = ch.shape[-1]
    phi = maximally_entangled_state(d)
    ident = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch:
        psi = np.kron(a, ident) @ phi
        out += np.outer(psi, psi.conj())
    return d * out


def superoperator_via_kron(ch):
    """``K = sum_i A_i (x) conj(A_i)``, one Kronecker product per Kraus operator."""
    d = ch.shape[-1]
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch:
        out += np.kron(a, a.conj())
    return out


def apply_channel(ch, x):
    """Apply the channel: ``sum_i A_i X A_i^dag``."""
    m = matcore.as_matrix(x)
    if m.shape != ch.shape[1:]:
        raise DimensionMismatchError(f"input has shape {m.shape}, expected {ch.shape[1:]}")
    out = np.zeros_like(m)
    for a in ch:
        out += a @ m @ a.conj().T
    return out


def apply_channel_via_dynamical(dyn, x):
    """Channel action recovered from the dynamical matrix: ``Tr_2(D (I (x) X^T))``."""
    d = math.isqrt(dyn.shape[-1])
    prod = dyn @ np.kron(np.eye(d, dtype=complex), np.asarray(x, dtype=complex).T)
    return matcore.partial_trace(prod, d)


def vec(x):
    """Row-major ``vec(X)[mu*d + nu] = X[mu, nu]`` of a square matrix, the package's layout."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m.reshape(-1)


def partial_trace_first(x, d):
    """Trace out the leading factor (index ``mu`` of the composite ``mu*d + nu``) of a ``d**2 x d**2``
    matrix, or of each matrix of a stack."""
    m = np.asarray(x)
    if m.shape[-2:] != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape[-2:]}")
    return np.einsum("...ijik->...jk", m.reshape(*m.shape[:-2], d, d, d, d))


def dynamical_eigenvalues(dyn):
    """Eigenvalues of ``D``, or of each of a stack, descending: one dense ``eigvalsh`` of ``D``."""
    m = np.asarray(dyn)
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-2, -1)) / 2.0)[..., ::-1]


def dynamical_eigenvalues_mp(ops, dps=50):
    """Eigenvalues of one channel's ``D``, descending, as ``mpmath`` numbers of ``dps`` digits.

    Taken by ``mpmath.eighe`` of the ``k x k`` Kraus Gram matrix ``conj(V) V^T``,
    row ``i`` of ``V`` being ``vec(A_i)``, whose entries are exact in that
    precision; padded with zeros to ``d**2``.
    """
    v = np.asarray(ops).reshape(len(ops), -1)
    with mpmath.workdps(dps):
        rows = [[mpmath.mpc(complex(x)) for x in row] for row in v]
        gram = mpmath.matrix([[mpmath.fsum(mpmath.conj(a) * b for a, b in zip(r, c)) for c in rows]
                              for r in rows])
        vals = sorted(mpmath.eighe(gram, eigvals_only=True), reverse=True)
    return vals + [mpmath.mpf(0)] * (v.shape[1] - len(vals))


def superoperator_singular_values(sup):
    """Singular values of ``K``, or of each of a stack, descending: one complex SVD of ``K``."""
    return np.linalg.svd(np.asarray(sup, dtype=complex), compute_uv=False)


def unital_defect_via_kraus(ch):
    """Max-entry deviation of ``sum_i A_i A_i^dag`` from the identity, one product per Kraus operator."""
    total = sum(a @ a.conj().T for a in ch)
    return float(np.abs(total - np.eye(ch.shape[-1])).max())


def tp_defect(ch):
    """Max-entry deviation of ``sum_i A_i^dag A_i`` from the identity, one product per Kraus operator."""
    total = sum(a.conj().T @ a for a in ch)
    return float(np.abs(total - np.eye(ch.shape[-1])).max())


def check_dynamical_invariants(dyn):
    """Raise unless ``D`` is Hermitian, PSD, of trace ``d`` and TP.

    Trace preservation is read off ``D`` itself: the partial trace over the
    principal factor must be the identity.
    """
    d = math.isqrt(dyn.shape[-1])
    tol = matcore.eig_tol(d * d)
    matcore.clamp_spectrum(matcore.hermitian_eigenvalues(dyn))
    tr = float(np.trace(dyn).real)
    if abs(tr - d) > tol:
        raise ValueError(f"trace {tr!r} differs from dim {d} beyond {tol:.1e}")
    reduced = partial_trace_first(dyn, d)
    dev = float(np.abs(reduced - np.eye(d)).max())
    if dev > TP_TOL:
        raise NotTracePreservingError(
            f"partial trace over the principal system deviates from I by {dev:.3e}"
        )


def entropy_mp(values, q_grid, s_grid, dps=60):
    """Unified entropies of ``values`` over their sum on ``q_grid x s_grid``, from the definition.

    ``(A**s - 1)/((1-q) s)`` with ``A = sum p**q``, Renyi ``ln A/(1-q)`` at
    ``s = 0`` and Shannon at ``q = 1``, in ``dps``-digit arithmetic: the
    cancellation next to ``q = 1`` and ``s = 0`` costs digits the working
    precision has to spare, so each cell is exact to double precision
    relative to ``max(|value|, 1)``, and ``inf`` where it exceeds the double
    range.  A stack ``(n, m)`` gives one ``(len(q_grid), len(s_grid))`` grid
    per row.
    """
    rows = np.atleast_2d(values)
    out = np.empty((len(rows), len(q_grid), len(s_grid)))
    with mpmath.workdps(dps):
        for k, row in enumerate(rows):
            w = [mpmath.mpf(float(v)) for v in row if v > 0.0]
            if not w:
                raise InvalidSpectrumError("spectrum carries no weight")
            total = mpmath.fsum(w)
            p = [v / total for v in w]
            for i, q in enumerate(map(mpmath.mpf, q_grid)):
                if q == 1:
                    shannon = -mpmath.fsum(v * mpmath.log(v) for v in p)
                else:
                    log_a = mpmath.log(mpmath.fsum(v**q for v in p))
                for j, s in enumerate(map(mpmath.mpf, s_grid)):
                    if q == 1:
                        out[k, i, j] = float(shannon)
                    elif s == 0:
                        out[k, i, j] = float(log_a / (1 - q))
                    else:
                        out[k, i, j] = float(mpmath.expm1(s * log_a) / ((1 - q) * s))
    out += 0.0  # drops a -0.0 sign
    return out[0] if np.ndim(values) == 1 else out


def q_log(x, q):
    """Deformed logarithm ``(x**(1-q) - 1) / (1-q)``, plain ``ln`` at q = 1."""
    if not (x > 0.0):
        raise DomainError(f"q_log needs x > 0, got {x}")
    if not (q > 0.0):
        raise DomainError(f"q_log needs q > 0, got {q}")
    return math.log(x) * float(exprel((1.0 - q) * math.log(x)))


def uniform_entropy(n, params):
    """Entropy of the flat distribution on ``n`` outcomes, ``ln n exprel((1-q) s ln n)``.

    This is the maximum over all spectra of effective rank ``n``, hence the
    rank upper bound for both channel entropies; ``(1/s) q_log(n**s)``, and
    ``ln n`` on the ``q = 1`` and ``s = 0`` rows.
    """
    if n < 1:
        raise DomainError(f"need at least one outcome, got {n}")
    log_n = math.log(n)
    return log_n * float(exprel((1.0 - params.q) * params.s * log_n))


def domain_min_low(a):
    """Minimum of ``2 - x - y`` over ``0 <= x, y <= 1`` with ``x y <= a``: ``1 - a``.

    The minimum sits on the hyperbola ``x y = a`` between ``(a, 1)`` and
    ``(1, a)``.
    """
    if not (0.0 < a < 1.0):
        raise DomainError(f"low-domain minimum needs 0 < a < 1, got {a}")
    return 1.0 - a


def domain_min_high(b):
    """Minimum of ``x + y - 2`` over ``x, y >= 1`` with ``x y >= b``: ``2 (sqrt(b) - 1)``.

    By the arithmetic-geometric mean inequality along ``x y = b``.
    """
    if not (b > 1.0):
        raise DomainError(f"high-domain minimum needs b > 1, got {b}")
    return 2.0 * (math.sqrt(b) - 1.0)


def grid_domain_min_low(a, points=1000):
    """Grid search for :func:`domain_min_low` on a ``(points+1)**2`` grid of the unit square."""
    if not (0.0 < a < 1.0):
        raise DomainError(f"low-domain minimum needs 0 < a < 1, got {a}")
    xs = np.linspace(0.0, 1.0, points + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    feasible = gx * gy <= a
    return float(np.min((2.0 - gx - gy)[feasible]))


def grid_domain_min_high(b, points=1000):
    """Grid search for :func:`domain_min_high` over ``[1, b] x [1, b]``.

    The minimum lies on ``x y = b`` inside that square; resolution is
    ``(b - 1)/points``.
    """
    if not (b > 1.0):
        raise DomainError(f"high-domain minimum needs b > 1, got {b}")
    xs = np.linspace(1.0, b, points + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    feasible = gx * gy >= b
    return float(np.min((gx + gy - 2.0)[feasible]))


@dataclass(frozen=True)
class ProofDomainPoint:
    """Where one channel's norm-ratio pair lands relative to a bound domain.

    ``x`` and ``y`` are the q-norm to trace-norm ratio powers of the
    dynamical matrix and of ``|K|``; the bound's derivation confines them to
    the low region (``x, y <= 1``, ``x y <= bound_param``) or the high one
    (``x, y >= 1``, ``x y >= bound_param``) according to the sign of
    ``(1-q) s``.
    """

    x: float
    y: float
    domain: str
    bound_param: float
    in_domain: bool


# Half-width of the q = 1 and s = 0 rows, where the proof's planar domains degenerate.
DEGENERATE_EPS = 1e-8


def proof_domain_point(profile, k, params):
    """Check the norm-ratio preconditions behind the bound for channel ``k`` of a profile."""
    q, s = params.q, params.s
    if abs(q - 1.0) <= DEGENERATE_EPS or abs(s) <= DEGENERATE_EPS:
        raise DomainError(f"the bound's proof excludes the limit rows q=1 / s=0 (q={q}, s={s})")
    _, kappa = gamma_kappa(q, s)

    def ratio_power(values):
        pos = values[values > 0]
        norm_q = power_mean_root(pos, q)
        return math.exp(q * s * (math.log(norm_q) - math.log(float(np.sum(pos)))))

    x = ratio_power(profile.choi_spectrum[k])
    y = ratio_power(profile.superop_spectrum[k])
    factor = 2.0 if profile.unital[k] else 1.0
    param = float(profile.dim) ** (factor * s * kappa * (1.0 - q))
    tol = 1e-9
    if (1.0 - q) * s > 0.0:
        domain = "high"
        inside = x >= 1.0 - tol and y >= 1.0 - tol and x * y >= param * (1.0 - tol)
    else:
        domain = "low"
        inside = x <= 1.0 + tol and y <= 1.0 + tol and x * y <= param * (1.0 + tol)
    return ProofDomainPoint(x=x, y=y, domain=domain, bound_param=param, in_domain=inside)


# The norm-inequality checks one input and one order at a time, each input
# decomposed again for every order it is checked at.


@dataclass(frozen=True)
class Report:
    """One oracle check: ``slack`` is the margin in the passing ``direction``
    ("<=" or ">="), relative to ``max(|lhs|, |rhs|)`` and 0 where both sides
    are 0; the check passes iff it is at least ``-tol``."""

    lhs: float
    rhs: float
    slack: float
    passed: bool
    direction: str


def _report(lhs, rhs, direction, tol):
    scale = max(abs(lhs), abs(rhs))
    margin = rhs - lhs if direction == "<=" else lhs - rhs
    slack = margin / scale if scale else 0.0
    return Report(float(lhs), float(rhs), float(slack), bool(slack >= -tol), direction)


def power_mean_root(values, q):
    """``(sum v**q)**(1/q)`` over positive values, scaled so no power overflows."""
    if values.size == 0:
        return 0.0
    m = float(values.max() if q > 0 else values.min())
    total = float(np.sum((values / m) ** q))
    return m * total ** (1.0 / q)


def order_spectrum(x, q):
    """Singular values for ``q >= 1``; clamped eigenvalues for ``0 < q < 1``;
    eigenvalues above ``STRICT_POS_TOL`` times the largest for ``q < 0``."""
    if q != q or q == 0.0:
        raise InvalidOrderError(f"order q = {q} has no norm or anti-norm regime")
    if q >= 1.0:
        return matcore.singular_values(x)
    eig = matcore.hermitian_eigenvalues(x)
    if q < 0.0:
        lo, hi = float(eig.min()), float(eig.max())
        if not lo > STRICT_POS_TOL * hi:
            raise NotPositiveError(
                f"q < 0 anti-norm needs a strictly positive matrix; min eigenvalue "
                f"{lo:.3e} <= {STRICT_POS_TOL:.1e} times the largest, {hi:.3e}"
            )
        return eig
    return matcore.clamp_spectrum(eig)


def schatten(x, q):
    """Norm (``q >= 1``) or anti-norm (``q < 1``) of one matrix."""
    vals = order_spectrum(x, q)
    if q == math.inf:
        return float(vals[0]) if vals.size else 0.0
    if q == 1.0:
        return float(np.sum(vals))
    return power_mean_root(vals[vals > 0], q)


def check_prop1(x, q):
    vals = order_spectrum(x, q)
    pos = vals[vals > 0]
    if pos.size == 0:
        raise InvalidSpectrumError("matrix is zero; the interpolation is undefined")
    n1 = float(np.sum(pos))
    n2sq = float(np.sum(pos**2))
    lhs = float(np.sum(pos**q))
    rhs = n2sq ** (q - 1.0) * n1 ** (2.0 - q)
    return _report(lhs, rhs, "<=" if 1.0 <= q <= 2.0 else ">=", 1e-9)


def check_two_inf_one(x):
    sv = matcore.singular_values(x)
    lhs = float(np.sqrt(np.sum(sv**2)))
    rhs = float(np.sqrt(sv[0] * np.sum(sv))) if sv.size else 0.0
    return _report(lhs, rhs, "<=", 1e-10)


def check_superop_norm_bound(ch):
    """The bound with ``channel(I/d)`` from the Kraus operators and ``K`` built anew."""
    d = ch.shape[-1]
    k_inf = schatten(chmod.reshuffle(chmod.dynamical_from_kraus(ch), d), math.inf)
    out = apply_channel(ch, np.eye(d, dtype=complex) / d)
    bound = math.sqrt(d) * math.sqrt(schatten(out, math.inf))
    if unital_defect_via_kraus(ch) <= TP_TOL:
        bound = min(bound, 1.0)
    return _report(k_inf, bound, "<=", TP_TOL)


def check_antinorm_monotonicity(x, p, q):
    if not (0.0 < p < q):
        raise InvalidOrderError(f"monotonicity check needs 0 < p < q, got p={p}, q={q}")
    lhs = schatten(x, q)
    rhs = schatten(x, p)
    return _report(lhs, rhs, "<=", 1e-10)


def check_superadditivity(x, y, q):
    if q >= 1.0:
        raise InvalidOrderError(f"superadditivity is an anti-norm property, got q={q}")
    rhs = schatten(x, q) + schatten(y, q)  # the operands first, as the library checks them
    lhs = schatten(np.asarray(x) + np.asarray(y), q)
    return _report(lhs, rhs, ">=", 1e-10)


def check_norm_product_chain(ch):
    d = ch.shape[-1]
    dyn = chmod.dynamical_from_kraus(ch)
    sup = chmod.reshuffle(dyn, d)
    ratio = (
        schatten(dyn, 1.0)
        / schatten(dyn, 2.0)
        * schatten(sup, 1.0)
        / schatten(sup, 2.0)
    )
    bound = float(d) if unital_defect_via_kraus(ch) <= TP_TOL else math.sqrt(d)
    return _report(ratio, bound, ">=", 1e-9)


# The samplers one sample at a time: each seed a numpy SeedSequence, each
# stream its own default_rng, each matrix its own QR, eigh and products.


def derive_seed(base_seed, *indices):
    """``SeedSequence([base_seed, *indices])``, first 64-bit word."""
    ss = np.random.SeedSequence([int(base_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def ginibre(dim, rng):
    """Square matrix of i.i.d. standard complex Gaussian entries."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def haar_unitary(dim, rng):
    """Haar unitary: QR of a Ginibre matrix, R-diagonal phases pushed into Q."""
    q, r = np.linalg.qr(ginibre(dim, rng))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_cptp(d, k, seed):
    """Normalized Ginibre Kraus set, resampled from sibling streams while singular."""
    for attempt in range(sampler.RESAMPLE_ATTEMPTS):
        root = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
        gs = [ginibre(d, np.random.default_rng(s)) for s in root.spawn(k)]
        normalizer = sum(g.conj().T @ g for g in gs)
        vals, vecs = np.linalg.eigh(normalizer)
        if vals[0] <= 0.0 or vals[-1] / vals[0] > sampler.COND_LIMIT:
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        return np.array([g @ inv_sqrt for g in gs])
    raise SingularNormalizerError(
        f"normalizer stayed ill-conditioned after {sampler.RESAMPLE_ATTEMPTS} attempts (seed {seed})"
    )


def sample_unitary_mixture(d, k, seed):
    """Haar unitaries weighted by a flat Dirichlet draw from stream ``k``."""
    streams = np.random.SeedSequence(seed).spawn(k + 1)
    unitaries = [haar_unitary(d, np.random.default_rng(s)) for s in streams[:k]]
    weights = np.random.default_rng(streams[k]).dirichlet(np.ones(k))
    return np.array([math.sqrt(p) * u for p, u in zip(weights, unitaries)])


def unistochastic_from_unitary(u, d):
    """Environment contractions ``(I (x) <e|) u (I (x) |f>) / sqrt(d)``, one at a time."""
    t = np.asarray(u, dtype=complex).reshape(d, d, d, d)
    return np.array([t[:, e, :, f] / math.sqrt(d) for e in range(d) for f in range(d)])


def sample_unistochastic(d, seed):
    """Unistochastic channel of a Haar unitary on the composite."""
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    u = haar_unitary(d * d, np.random.default_rng(stream))
    return unistochastic_from_unitary(u, d)


def sample_channel(family, d, seed):
    """One channel of ``family`` at dimension ``d``, with the default Kraus count, as its Kraus array."""
    k = sampler.default_kraus_count(family, d)
    if family == "cptp":
        return sample_cptp(d, k, seed)
    if family == "unitary-mixture":
        return sample_unitary_mixture(d, k, seed)
    if family == "unistochastic":
        return sample_unistochastic(d, seed)
    if family.startswith("named:"):
        parts = family.split(":")
        param = float(parts[2]) if len(parts) > 2 else None
        return sampler.named_channel(parts[1], d, param)
    raise UnknownChannelError(f"unknown sampler family {family!r}")


def population(seed, dims, families, count, stream=0):
    """``(family, dim, channel_id, ops)`` one sample at a time, in population order."""
    for d in dims:
        for family in families:
            code = stream + sampler.FAMILY_CODES.get(family, 99)
            for index in range(count):
                ops = sample_channel(family, d, derive_seed(seed, code, d, index))
                yield family, d, f"{family}-d{d}-{index:04d}", ops


def ginibre_population(seed, dims, count, stream):
    """``(dim, index, G)`` one Ginibre matrix at a time, in population order."""
    for d in dims:
        for index in range(count):
            yield d, index, ginibre(d, np.random.default_rng(derive_seed(seed, stream, d, index)))
