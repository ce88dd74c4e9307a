"""Independent routes to the library's quantities, for the tests to compare against.

Each oracle computes a quantity a second way, by construction rather than by
the closed form the library uses: ``D`` by acting on the maximally entangled
state, ``K`` by the Kronecker loop, the channel action from ``D``, the Choi
spectrum from the Kraus Gram matrix, and the bound's auxiliary domain minima
by grid search.  None of them is used by ``src/chanent``.
"""

import math
from dataclasses import dataclass

import numpy as np

from chanent import matcore
from chanent.channel import TP_TOL
from chanent.errors import DomainError, NotTracePreservingError
from chanent.spectra import _power_mean_root
from chanent.tradeoff import gamma_kappa


def maximally_entangled_state(d):
    """Unit vector ``(1/sqrt(d)) * sum_nu |nu> (x) |nu>`` of length ``d**2``."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def dynamical_via_entangled_input(ch):
    """``D = d * (channel (x) id)(|phi+><phi+|)``, acting on the entangled state.

    The input is pure, so each Kraus term is the projector onto
    ``(A_i (x) I)|phi+>``; summing those outer products is the same map
    applied to ``|phi+><phi+|`` without the ``d**2 x d**2`` conjugations.
    """
    d = ch.dim
    phi = maximally_entangled_state(d)
    ident = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch.kraus_ops:
        psi = np.kron(a, ident) @ phi
        out += np.outer(psi, psi.conj())
    return d * out


def superoperator_via_kron(ch):
    """``K = sum_i A_i (x) conj(A_i)``, one Kronecker product per Kraus operator."""
    d = ch.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch.kraus_ops:
        out += np.kron(a, a.conj())
    return out


def apply_channel_via_dynamical(dyn, x):
    """Channel action recovered from the dynamical matrix: ``Tr_2(D (I (x) X^T))``."""
    d = dyn.dim
    prod = dyn.matrix @ np.kron(np.eye(d, dtype=complex), np.asarray(x, dtype=complex).T)
    return matcore.partial_trace(prod, d, "second")


def kraus_gram(ch):
    """Gram matrix ``G[i, j] = trace(A_i^dag A_j)`` of the Kraus set.

    Its nonzero eigenvalues coincide with those of the dynamical matrix.
    """
    k = len(ch.kraus_ops)
    g = np.empty((k, k), dtype=complex)
    for i, a in enumerate(ch.kraus_ops):
        for j, b in enumerate(ch.kraus_ops):
            g[i, j] = np.sum(a.conj() * b)
    return g


def check_dynamical_invariants(dyn):
    """Raise unless ``D`` is Hermitian, PSD, of trace ``d`` and TP.

    Trace preservation is read off ``D`` itself: the partial trace over the
    principal factor must be the identity.
    """
    d = dyn.dim
    tol = matcore.eig_tol(d * d)
    spec = matcore.hermitian_eigenvalues(dyn.matrix)
    matcore.clamp_spectrum(spec.values, neg_tol=tol)
    tr = float(np.trace(dyn.matrix).real)
    if abs(tr - d) > tol:
        raise ValueError(f"trace {tr!r} differs from dim {d} beyond {tol:.1e}")
    reduced = matcore.partial_trace(dyn.matrix, d, "first")
    dev = float(np.abs(reduced - np.eye(d)).max())
    if dev > TP_TOL:
        raise NotTracePreservingError(
            f"partial trace over the principal system deviates from I by {dev:.3e}"
        )


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


def proof_domain_point(profile, params):
    """Check the norm-ratio preconditions behind the bound for one profile."""
    q, s = params.q, params.s
    _, kappa = gamma_kappa(q, s)  # raises on the limit rows

    def ratio_power(values):
        pos = values[values > 0]
        norm_q = _power_mean_root(pos, q)
        return math.exp(q * s * (math.log(norm_q) - math.log(float(np.sum(pos)))))

    x = ratio_power(profile.choi_spectrum.values)
    y = ratio_power(profile.superop_spectrum.values)
    factor = 2.0 if profile.unital else 1.0
    param = float(profile.dim) ** (factor * s * kappa * (1.0 - q))
    tol = 1e-9
    if (1.0 - q) * s > 0.0:
        domain = "high"
        inside = x >= 1.0 - tol and y >= 1.0 - tol and x * y >= param * (1.0 - tol)
    else:
        domain = "low"
        inside = x <= 1.0 + tol and y <= 1.0 + tol and x * y <= param * (1.0 + tol)
    return ProofDomainPoint(x=x, y=y, domain=domain, bound_param=param, in_domain=inside)
