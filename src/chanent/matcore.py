"""Dense complex linear-algebra primitives shared by every other module.

Conventions
-----------
Operators are plain complex ``numpy`` arrays; a real input to the spectral
functions stays real, so its decomposition runs in real arithmetic.
Vectorization is ROW-major:
``vec(|mu><nu|) = |mu> (x) |nu>``, i.e. ``vec(X) = X.reshape(-1)``, which is
isometric for the Hilbert-Schmidt inner product.  Composite
indices on a two-factor space are laid out as ``(mu, nu) -> mu*d + nu`` with
the principal system first.  These two choices are canonical for the whole
package: the superoperator layout and the reshuffling permutation are only
correct relative to them.

Spectra are plain float arrays, returned with multiplicity, sorted
descending; ties keep the backend order (entropies are symmetric functions
of the spectrum, so the order is cosmetic).

The spectral functions (:func:`hermitian_eigenvalues`, :func:`singular_values`,
:func:`clamp_spectrum`) also take a stack of same-shape matrices ``(n, m, m)``
and return one result per matrix, with one LAPACK call for the whole stack.
Every check on a stack (Hermiticity, the PSD clamp) is made per matrix, and
the first matrix that fails it raises the error a single-matrix call on it
would raise.  A matrix with a non-finite
entry has no spectrum, nor has one whose spectrum is beyond the double
range: the spectral functions reject both with
:class:`~chanent.errors.InvalidSpectrumError`.

:func:`_one_blas_thread` pins each OpenBLAS loaded in the process to one
thread for the length of a ``with`` block and restores the caller's count
after it; a CLI run decomposes inside it (``cli.Run.evaluating``), and a
sweep's worker processes, forked inside it, inherit the pin.
:func:`_retire_blas_threads` retires the thread pool that a restore after
a fork starts.  Where no OpenBLAS is found both do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import decimal
import functools
import sys

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NonSquareError,
    NotHermitianError,
    NotPositiveError,
)

__all__ = [
    "HERM_TOL",
    "EIG_TOL_PER_DIM",
    "ZERO_REL_TOL",
    "eig_tol",
    "as_matrices",
    "hermitian_eigenvalues",
    "singular_values",
    "clamp_spectrum",
    "matrix_to_json",
    "matrix_from_json",
]

# Every tolerance is relative to the input's own scale, so that c X passes
# or fails a check as X does, for any c > 0.
# Max-entry Hermiticity deviation accepted before symmetrization, as a
# fraction of the matrix's largest entry.
HERM_TOL = 1e-8
# Spectral tolerance per matrix dimension; the PSD clamp's is times max |lam|.
EIG_TOL_PER_DIM = 1e-9
# Spectrum entries below this fraction of the largest entry collapse to 0,
# so rank-deficient spectra stay exactly rank-deficient under every power sum
# (x**q has infinite slope at 0 for q < 1; eigensolver noise must not leak
# in, nor break an equality case such as a rank-one input's). It serves the
# one spectrum per stack that the inequality checks read, eigvalsh or SVD, and
# the real SVD of K, which know each entry only to some m*u of the largest
# (m <= 256 entries, u machine epsilon).
# The map spectrum sigma(V)**2 (channel.dynamical_spectrum) knows each lam to
# 2*m*u*sqrt(lam*lam_max), m = max(k, d**2): its floor is (m*u)**2 lam_max.
ZERO_REL_TOL = 1e-12


def eig_tol(dim: int) -> float:
    """Spectral tolerance for a ``dim``-dimensional matrix, relative to its largest ``|eigenvalue|``."""
    return EIG_TOL_PER_DIM * dim


def as_matrices(x) -> np.ndarray:
    """Coerce input to a matrix (2-D) or a stack of matrices (3-D), real if it is real, else complex."""
    m = np.asarray(x)
    m = m.astype(float if np.isrealobj(m) else complex, copy=False)
    if m.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"expected a 2-D matrix or a 3-D stack of matrices, got ndim={m.ndim}"
        )
    return m


def _finite_matrices(x) -> np.ndarray:
    """:func:`as_matrices`, with a non-finite entry an :class:`InvalidSpectrumError`: it has no spectrum."""
    m = as_matrices(x)
    if not np.isfinite(m).all():
        raise InvalidSpectrumError("matrix entries must be finite")
    return m


def _require_square(x: np.ndarray) -> np.ndarray:
    if x.shape[-2] != x.shape[-1]:
        raise NonSquareError(f"expected a square matrix, got shape {x.shape[-2:]}")
    return x


def hermitian_eigenvalues(x) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix of a stack, descending.

    The input is symmetrized as ``X/2 + X^dag/2`` before decomposition;
    deviations above ``HERM_TOL`` times the largest entry (NaN among them)
    are rejected instead of silently averaged away.  Each matrix's largest
    entry is its scale, so ``c X`` passes iff ``X`` does, and a zero matrix
    passes; the error names the first matrix over its tolerance, with its
    max deviation and its scale.
    """
    m = _require_square(_finite_matrices(x))
    adj = m.conj().swapaxes(-2, -1)
    with np.errstate(over="ignore"):  # a deviation beyond a double is over the tolerance
        rows = np.abs(m - adj).max(axis=(-2, -1), initial=0.0).reshape(-1)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0).reshape(-1)
    bad = np.flatnonzero(~(rows <= HERM_TOL * scale))
    if bad.size:
        raise NotHermitianError(f"Hermiticity deviation {rows[bad[0]]:.3e} exceeds {HERM_TOL:.1e} "
                                f"times the largest entry, {scale[bad[0]]:.3e}")
    # halving a normal double is exact, and no sum of halves overflows
    return _finite_spectrum(np.linalg.eigvalsh(m / 2 + adj / 2)[..., ::-1])


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack, descending.

    A real input is decomposed in real arithmetic.
    """
    return _finite_spectrum(np.linalg.svd(_finite_matrices(x), compute_uv=False))


def _finite_spectrum(vals: np.ndarray) -> np.ndarray:
    """``vals``, unless an entry is beyond the double range: an :class:`InvalidSpectrumError`."""
    if not np.isfinite(vals).all():
        raise InvalidSpectrumError("the spectrum is beyond the double range")
    return vals


# OpenBLAS's (set, get) thread-count calls, in the order they are tried: numpy
# >= 2's wheels, numpy 1.2x's wheels, a system OpenBLAS.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_calls() -> tuple:
    """The ``(set, get, shutdown)`` thread calls of each OpenBLAS mapped into this process.

    ``shutdown`` retires the library's thread pool, or is None where the
    library does not export it.  The libraries are found in
    ``/proc/self/maps``; none is found without it.  Each is already loaded,
    so ``ctypes.CDLL`` loads nothing new.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            # a mapped file's path is the sixth field of its line
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library deleted since it was mapped
            continue
        for names in _OPENBLAS_THREAD_CALLS:
            if all(hasattr(lib, name) for name in names):
                set_threads, get_threads = (getattr(lib, name) for name in names)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                # one name in every build: the routine OpenBLAS's own pre-fork handler calls
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                calls.append((set_threads, get_threads, shutdown))
                break
    return tuple(calls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with each OpenBLAS at one thread, and restore each one's count after it.

    For the matrix sizes here (up to 256 x 256), OpenBLAS is never faster
    on more threads, and a decomposition's last digits depend on its count.
    Yields whether an OpenBLAS was found and pinned.  A process forked in
    the block inherits the pin, at one thread.
    """
    calls = _openblas_thread_calls()
    counts = [get() for _, get, _ in calls]
    try:
        for set_threads, _, _ in calls:
            set_threads(1)
        yield bool(calls)
    finally:
        for (set_threads, _, _), count in zip(calls, counts):
            set_threads(count)


def _retire_blas_threads() -> None:
    """Retire the thread pool of each OpenBLAS that exports the routine; its next threaded call starts a new one.

    OpenBLAS retires its pool before each fork, and restoring a count above
    one after that starts a new pool, whose idle threads spin for a while.
    """
    for _, _, shutdown in _openblas_thread_calls():
        if shutdown is not None:
            shutdown()


def clamp_spectrum(values) -> np.ndarray:
    """Clamp a PSD-intended spectrum, or each row of a stack of spectra.

    Entries below ``-eig_tol(m) max |lam|`` (``m`` entries: rounding scales
    with the largest magnitude) and NaN entries raise
    :class:`NotPositiveError`; remaining entries smaller than ``ZERO_REL_TOL``
    times the largest entry of their spectrum (noise from rank-deficient
    decompositions, negative or positive) become exactly 0.
    """
    vals = np.asarray(values, dtype=float)
    top = vals.max(axis=-1, keepdims=True, initial=0.0)
    neg_tol = eig_tol(vals.shape[-1]) * np.abs(vals).max(axis=-1, keepdims=True, initial=0.0)
    bad = np.flatnonzero(~(vals >= -neg_tol).all(axis=-1))
    if bad.size:
        lo, tol = vals.min(axis=-1).reshape(-1)[bad[0]], neg_tol.reshape(-1)[bad[0]]
        raise NotPositiveError(f"eigenvalue {lo:.6e} below -{tol:.1e}")
    return np.where(vals < ZERO_REL_TOL * top, 0.0, vals)


def matrix_to_json(x) -> dict:
    """Serialize a matrix to the shared JSON object format.

    ``{"rows": n, "cols": m, "re": [...], "im": [...]}`` with row-major
    arrays of length ``n*m``; input that is not 2-D is a
    :class:`DimensionMismatchError`.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


# JSON input types: true and false are no integer or number, and numpy's own
# number types are numbers (numpy alone would also read a numeric string, true
# or a nested list as an entry).
_NUMBER = (int, float, np.integer, np.floating)
_SIZE = (int, None, "an integer >= 1", None)
_ENTRIES = (list, _NUMBER, "a list of numbers", "a number")
# Each key of a matrix, channel or config file: its type, its entries' type if
# it is a list, and what the errors say it and an entry must be.  A size is >=
# 1; the ranges of a config's keys are cli.validate_config's, as for its flags.
_INPUT_KEYS = dict(rows=_SIZE, cols=_SIZE, dim=_SIZE, re=_ENTRIES, im=_ENTRIES,
                   kraus=(list, dict, "a list of matrix objects", "a matrix object"),
                   dims=(list, int, "a list of integers", "an integer"),
                   families=(list, str, "a list of strings", "a string"), q_grid=_ENTRIES, s_grid=_ENTRIES,
                   samples_per_family=(int, None, "an integer", None), seed=(int, None, "an integer", None))
# The JSON type of a parsed value, as the errors name it: "number" if none of these.
_JSON_NAMES = {dict: "object", list: "list", str: "string", bool: "boolean", type(None): "null"}


def _is(value, kind) -> bool:
    """Whether a parsed JSON value is of ``kind``.

    ``true`` is no count, size, seed or order, and an integer beyond the
    largest double is no number: it has no float to be read as.
    """
    if kind is _NUMBER and isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    return isinstance(value, kind) and not isinstance(value, bool)


def _json_int(text: str):
    """A JSON integer literal as an int, or as a ``Decimal``, which no key takes, if it is too long for one."""
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return decimal.Decimal(text)


def _shown(value) -> str:
    """A parsed JSON value as an error shows it: an integer of more than 20 digits by its first 12."""
    if not isinstance(value, (int, decimal.Decimal)) or len(str(value)) <= 20:
        return repr(value)
    return f"{str(value)[:12]}... ({len(str(value).lstrip('-'))} digits)"


def _json_fields(obj, what: str, *keys, **defaults) -> list:
    """The values of ``keys``, then of ``defaults``' keys, in the input object ``obj``.

    Each is of the type :data:`_INPUT_KEYS` gives it.  A key of ``defaults``
    may be missing, and is then its default; an object read with defaults
    holds no other key.  Another shape is a ``ValueError`` naming the key and
    what it must be; ``what`` names ``obj`` in it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a {what} must be a JSON object, got {_JSON_NAMES.get(type(obj), 'number')}")
    unknown = sorted(set(obj) - set(keys) - set(defaults)) if defaults else []
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    for key in (*keys, *(key for key in defaults if key in obj)):
        row = _INPUT_KEYS[key]
        kind, member, expected, entry = row
        if key not in obj:
            raise ValueError(f"a {what} object has no key {key!r}, which must be {expected}")
        value = obj[key]
        if not _is(value, kind) or (row is _SIZE and value < 1):
            got = _JSON_NAMES.get(type(value), "number") if kind is list else _shown(value)
            raise ValueError(f"{key!r} must be {expected}, got {got}")
        for i, v in enumerate(value if member else ()):
            if not _is(v, member):
                raise ValueError(f"{key!r} entry {i} must be {entry}, got {_shown(v)}")
    return [obj[key] for key in keys] + [obj.get(key, value) for key, value in defaults.items()]


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the shared JSON matrix object format; every entry must be a finite number.

    ``json`` reads ``NaN`` and ``Infinity``; a matrix holding them has no
    spectrum to check.  The sizes are JSON integers >= 1: an empty matrix has
    no spectrum either, and ``2.9`` or ``true`` is no size.  Another shape,
    such as a list, is a ``ValueError`` that names the key and its type.
    """
    rows, cols, re, im = _json_fields(obj, "matrix", "rows", "cols", "re", "im")
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionMismatchError(
            f"matrix object announces {rows}x{cols} but carries "
            f"{re.size} real / {im.size} imaginary entries"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return (re + 1j * im).reshape(rows, cols)
