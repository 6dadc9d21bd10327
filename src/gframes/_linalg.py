"""Shared dense linear-algebra helpers.

Everything in this package runs on small dense complex matrices, so these are
thin wrappers over ``numpy.linalg`` fixing the conventions once: Frobenius is
the default matrix norm, Hermitian spectra are taken after explicit
symmetrization, and every rank or flatness verdict compares the extremes of a
PSD spectrum (``sigma(A)^2`` for a matrix ``A``) by ``nonsingular`` or ``flat``.

The QR, eigenvalue and inverse helpers call the gufuncs of
``numpy.linalg._umath_linalg`` that ``numpy.linalg.qr``, ``eigvalsh`` and
``inv`` dispatch to, inside the ``errstate`` those set, so they return
numpy's bits and raise its ``LinAlgError`` without the wrapper's type checks,
copies and result tuples.  ``householder`` and ``householder_basis`` are the
two halves of a QR, so a caller can read ``R`` and form ``Q`` later from the
same reflectors.  The single ``qr_r_raw`` gufunc appeared in numpy 2.0, hence
the ``numpy>=2.0`` requirement.
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


def _lapack(message: str) -> np.errstate:
    """The ``errstate`` numpy's linalg wrappers set: a failed gufunc raises
    ``LinAlgError(message)``, with numpy's message for that routine."""
    def failed(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def qr_basis(stack: np.ndarray) -> np.ndarray:
    """``Q`` of the reduced QR of a ``complex128`` matrix or ``... x n x k`` stack: the bits of
    ``np.linalg.qr(stack)[0]``.  ``stack`` is overwritten, so it must be the caller's own
    scratch buffer."""
    with _lapack("Incorrect argument found while performing QR factorization"):
        tau = _umath_linalg.qr_r_raw(stack)  # leaves the Householder vectors in ``stack``
        return _umath_linalg.qr_reduced(stack, tau)


def householder(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R`` of the QR of the caller's own ``complex128`` scratch ``matrix`` (the bits of
    ``np.linalg.qr(matrix, "r")``) and the ``tau`` that, with the reflectors this leaves in
    ``matrix``, give ``Q`` through ``householder_basis``."""
    with _lapack("Incorrect argument found while performing QR factorization"):
        tau = _umath_linalg.qr_r_raw(matrix)
    return np.triu(matrix[..., :tau.shape[-1], :]), tau


def householder_basis(reflectors: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """``Q`` from ``householder``'s reflectors and ``tau``: the bits of ``np.linalg.qr(...)[0]``."""
    with _lapack("Incorrect argument found while performing QR factorization"):
        return _umath_linalg.qr_reduced(reflectors, tau)


def triangular_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular ``complex128`` matrix: up to order 32 the bits
    of ``np.linalg.inv(r)``, above it ``[[A^{-1}, -A^{-1} (B C^{-1})], [0, C^{-1}]]`` for
    ``r = [[A, B], [0, C]]``, recursively.  That is matrix products, exactly upper triangular,
    with residuals ``||RX - I||`` and ``||XR - I||`` of order ``kappa(R) n eps`` as for the LU
    inverse (Du Croz and Higham, IMA J. Numer. Anal. 12, 1992), and a quarter of its time at
    order 256."""
    n = r.shape[-1]
    if n <= 32:
        with _lapack("Singular matrix"):
            return _umath_linalg.inv(r)
    h = n // 2
    top, bottom = triangular_inverse(r[:h, :h]), triangular_inverse(r[h:, h:])
    inverse = np.zeros_like(r)
    inverse[:h, :h] = top
    inverse[h:, h:] = bottom
    inverse[:h, h:] = -(top @ (r[:h, h:] @ bottom))
    return inverse


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a ``complex128`` Hermitian matrix or stack, read from its lower
    triangle: the bits of ``np.linalg.eigvalsh(h)``."""
    with _lapack("Eigenvalues did not converge"):
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
