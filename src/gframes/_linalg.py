"""Shared dense linear-algebra helpers.

Everything in this package runs on small dense complex matrices, so these are
thin wrappers over ``numpy.linalg`` fixing the conventions once: Frobenius is
the default matrix norm, Hermitian spectra are taken after explicit
symmetrization, and every rank or flatness verdict compares the extremes of a
PSD spectrum (``sigma(A)^2`` for a matrix ``A``) by ``nonsingular`` or ``flat``.
"""

from __future__ import annotations

import numpy as np

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


def check_tolerance(tolerance: float) -> None:
    """Raise ``StructuralError`` unless ``tolerance`` is positive (not NaN) and finite."""
    if not tolerance > 0.0:
        raise StructuralError("tolerance must be positive")
    if tolerance == np.inf:
        raise StructuralError("tolerance must be finite")


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
