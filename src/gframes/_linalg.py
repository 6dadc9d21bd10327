"""Shared dense linear-algebra helpers.

Everything in this package runs on small dense complex matrices, so these are
thin wrappers over ``numpy.linalg`` fixing the conventions once: Frobenius is
the default matrix norm, Hermitian spectra are taken after explicit
symmetrization, and every rank or flatness verdict compares the extremes of a
PSD spectrum (``sigma(A)^2`` for a matrix ``A``) by ``nonsingular`` or ``flat``.

Two calls that the sampling paths make once per attempt skip the
``numpy.linalg`` wrapper: ``qr_basis`` (the stacked QR of
``random_projective``) and ``hermitian_eigenvalues`` (the verdict of
``core._analysis_is_rs``).  On the small ``complex128`` matrices these paths
factor, the wrapper's type checks, copy, unused ``R`` factor and result tuple
are a large share of the call.  Both helpers call the gufuncs of
``numpy.linalg._umath_linalg`` that ``numpy.linalg.qr`` and
``numpy.linalg.eigvalsh`` dispatch to, so the same LAPACK routines return the
same bits.  They run inside the ``errstate`` that ``numpy.linalg`` sets, so a
LAPACK failure raises the same ``LinAlgError``.  The single ``qr_r_raw`` gufunc
appeared in numpy 2.0 (1.x has ``qr_r_raw_m`` and ``qr_r_raw_n``), hence the
``numpy>=2.0`` requirement.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import StructuralError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (so stacks of matrices work)."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(a, compute_uv=False)


def _qr_failed(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _eigenvalues_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def qr_basis(stack: np.ndarray) -> np.ndarray:
    """``Q`` of the reduced QR of a ``complex128`` matrix or ``... x n x k`` stack: the bits of
    ``np.linalg.qr(stack)[0]``.  ``stack`` is overwritten, so it must be the caller's own
    scratch buffer."""
    with np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = _umath_linalg.qr_r_raw(stack)  # leaves the Householder vectors in ``stack``
        return _umath_linalg.qr_reduced(stack, tau)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a ``complex128`` Hermitian matrix or stack, read from its lower
    triangle: the bits of ``np.linalg.eigvalsh(h)``."""
    with np.errstate(call=_eigenvalues_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.eigvalsh_lo(h)


def check_tolerance(value: float, name: str = "tolerance") -> None:
    """Raise ``StructuralError`` unless ``value`` is positive (not NaN) and finite; the message
    names the argument ``name``."""
    if not value > 0.0:
        raise StructuralError(f"{name} must be positive")
    if value == np.inf:
        raise StructuralError(f"{name} must be finite")


def nonsingular(lower, upper, tolerance: float):
    """``lower > tolerance * upper`` for the extremes of PSD spectra, elementwise."""
    check_tolerance(tolerance)
    return lower > tolerance * upper


def flat(lower, upper, tolerance: float):
    """``nonsingular`` and ``upper - lower <= tolerance * upper``: a function of ``lower / upper``
    alone, so unchanged under ``lambda -> c lambda`` and ``lambda -> 1 / lambda``."""
    return nonsingular(lower, upper, tolerance) & (upper - lower <= tolerance * upper)


def null_space(a: np.ndarray, tolerance: float) -> np.ndarray:
    """Orthonormal basis (as columns) of the kernel of ``a``; rank by ``nonsingular`` sigma^2."""
    _, s, vh = np.linalg.svd(a)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(nonsingular(s * s, top * top, tolerance)))
    return dagger(vh[rank:])


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...],
                     scale: float = 1.0) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries scaled by ``scale``."""
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * values / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
