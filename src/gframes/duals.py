"""Dual systems: verification, the canonical dual, and the affine dual family.

``W`` is a dual of ``V`` when ``sum_i W_i^* V_i = I``, i.e. the synthesis
matrix of ``W`` is a left inverse of the analysis matrix of ``V``.  The
canonical dual has blocks ``V_i S^{-1}``; its synthesis matrix is the
Moore-Penrose pseudoinverse of the analysis matrix.  Every other dual is an
affine translate of the canonical one:

    synthesis(W) = synthesis(canonical) + Z (I - T S^{-1} T^*)

where ``T`` is the analysis matrix and ``Z`` ranges over all ``d x K``
matrices.  ``DualManifold`` exposes this chart, built from one checked QR
factor ``T = Q R`` (``core._analysis_factor``), so ``S`` is never formed.

Sampling duals means drawing ``Z`` with complex Gaussian entries and keeping
the duals whose own analysis matrix passes ``_linalg.nonsingular``.  Each
attempt is a dual of ``T``, so ``W^* T = I`` bounds its conditioning from
below: most attempts are accepted by that certificate, and only the ones it
cannot decide take the eigenvalues of ``W^* W`` (``core._analysis_is_rs``).
The certificate accepts only attempts that the eigenvalues would accept too
(derivation in ``dual_manifold_sample``), so the samples do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _exports
from ._linalg import check_tolerance, dagger, frobenius
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _analysis_factor,
    _analysis_is_rs,
    _canonical,
    _integer,
    _inverse_gram,
    _sampled_duals,
    system_from_synthesis,
)
from .errors import SamplingError, StructuralError

__all__ = _exports(__name__)

# Attempts drawn per batch in ``dual_manifold_sample``: enough to amortize
# per-call overhead on small systems, with at most _BATCH_ENTRIES chart
# entries per batch so that large systems stay at a few MB.
_SAMPLE_CHUNK = 64
_BATCH_ENTRIES = 1 << 18
# Squared norms within which ``dual_manifold_sample``'s certificate applies: rounding there
# is relative, with no overflow and no subnormals in ``W^* W``.
_NORMAL_RANGE = (2.0 ** -900, 2.0 ** 900)
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class DualCandidate:
    """A candidate dual with its reconstruction-identity residual."""

    system: ReconstructionSystem
    reference: ReconstructionSystem
    dual_residual: float
    tolerance: float

    @property
    def is_dual(self) -> bool:
        return self.dual_residual <= self.tolerance


def inverse_frame_operator(system: ReconstructionSystem,
                           tolerance: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Inverse of the block Gram sum, ``R^{-1} R^{-*}``; raises when it is numerically singular."""
    return _inverse_gram(system, tolerance)


def canonical_dual(system: ReconstructionSystem,
                   tolerance: float = DEFAULT_TOLERANCE) -> ReconstructionSystem:
    """Blocks ``V_i S^{-1}``, stacked as ``Q R^{-*}``; the minimal-norm dual."""
    return _canonical(system, tolerance)


def verify_dual(candidate: ReconstructionSystem, reference: ReconstructionSystem,
                tolerance: float = DEFAULT_TOLERANCE) -> DualCandidate:
    """Measure ``||sum_i W_i^* V_i - I||`` for equal-signature systems.

    The sum is one product of the stacked matrices, ``synthesis(W) analysis(V)``.
    """
    check_tolerance(tolerance)
    if candidate.signature != reference.signature:
        raise StructuralError(
            f"signature mismatch: {candidate.signature} vs {reference.signature}")
    total = dagger(candidate.analysis) @ reference.analysis
    residual = frobenius(total - np.eye(reference.d))
    return DualCandidate(candidate, reference, residual, tolerance)


@dataclass(frozen=True, eq=False)
class DualManifold:
    """Affine chart ``Z -> base + Z @ complement`` over all duals of a system.

    ``base_synthesis`` is the canonical dual's synthesis matrix (``d x K``)
    and ``range_complement`` the orthogonal projection of ``C^K`` onto the
    complement of the analysis range.  Distinct parameters can collide only
    in the direction the projector kills, so the chart is onto the dual set
    and the parameter ``Z = 0`` is the canonical dual.
    """

    reference: ReconstructionSystem
    base_synthesis: np.ndarray
    range_complement: np.ndarray

    def synthesis_at(self, parameter: np.ndarray) -> np.ndarray:
        z = np.asarray(parameter, dtype=np.complex128)
        if z.shape != self.base_synthesis.shape:
            raise StructuralError(
                f"parameter must have shape {self.base_synthesis.shape}, got {z.shape}")
        return self.base_synthesis + z @ self.range_complement

    def system_at(self, parameter: np.ndarray) -> ReconstructionSystem:
        return system_from_synthesis(self.synthesis_at(parameter), self.reference.k)


def dual_manifold(system: ReconstructionSystem,
                  tolerance: float = DEFAULT_TOLERANCE) -> DualManifold:
    q, r_inverse = _analysis_factor(system, tolerance)
    base = r_inverse @ dagger(q)
    complement = np.eye(system.tr_k) - q @ dagger(q)
    return DualManifold(system, base, complement)


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """``||X||^2`` of each matrix of a C-contiguous ``complex128`` stack, in one reduction."""
    flat = stack.reshape(stack.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _certifier(system: ReconstructionSystem, manifold: DualManifold, tolerance: float):
    """The acceptance certificate of ``dual_manifold_sample`` (see there) for attempts on
    ``manifold``: a function of a stack of parameters ``Z`` and the stack of their analysis
    matrices ``W`` that is true where ``_analysis_is_rs`` surely accepts the attempt."""
    d, tr_k = system.d, system.tr_k
    delta = (d * tr_k + d + tr_k) * _EPS
    eta = 16 * (d * d + tr_k) * _EPS
    base, complement = manifold.base_synthesis, manifold.range_complement
    t = frobenius(system.analysis)
    residual = frobenius(base @ system.analysis - np.eye(d)) + delta * frobenius(base) * t
    leak = frobenius(complement @ system.analysis) + 2 * delta * frobenius(complement) * t
    low, high = _NORMAL_RANGE
    floor = tolerance * (1 + 3 * eta) + eta if low < t * t < high else np.inf

    def certified(parameters: np.ndarray, analyses: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            w2 = _squared_norms(analyses)
            rho = (1 + delta) ** 2 * (residual + np.sqrt(_squared_norms(parameters)) * leak
                                      + delta * t * np.sqrt(w2))
            bound = (1 - rho) ** 2 / (t * t) / w2
            return (rho < 0.5) & (low < w2) & (w2 < high) & (bound * (1 - 4 * delta) > floor)

    return certified


def dual_manifold_sample(system: ReconstructionSystem, seed: int, count: int,
                         scale: float = 1.0,
                         tolerance: float = DEFAULT_TOLERANCE,
                         max_redraws: int = 100) -> list[ReconstructionSystem]:
    """Draw ``count`` duals with Gaussian chart parameters, deterministically in ``seed``.

    Parameters have entries of standard deviation ``scale / sigma_max(T)``, so
    the samples of ``c V`` are those of ``V`` divided by ``c``.  A draw whose
    analysis matrix fails ``_linalg.nonsingular`` at ``tolerance`` is redrawn (such duals
    exist but are useless downstream); each slot gets at most ``max_redraws``
    attempts before ``SamplingError``.

    Attempts are drawn and tested in batches, but each one takes the next
    ``complex_gaussian`` parameter from the generator, as drawing one attempt
    at a time would, and no batch reaches past the last slot or the redraw
    limit.  So the samples, and the generator's state afterwards, are those
    of the one-at-a-time loop.

    The verdict on an attempt is ``core._analysis_is_rs``: the eigenvalues of
    ``fl(W^* W)`` for its ``K x d`` analysis matrix ``W``.  An attempt is first
    judged by a certificate, and only the attempts it leaves undecided take
    those eigenvalues.  The certificate accepts an attempt only when the
    eigenvalues would surely accept it, so the accepted attempts, and with
    them the samples, the generator's state and the ``SamplingError``, are
    those of the eigenvalue verdict alone.  With ``B = base_synthesis``,
    ``C = range_complement``, ``u = eps / 2`` and all norms Frobenius:

    - The stored attempt is ``W^* = B + Z C + F``, where ``F`` is the rounding
      of the product and the sum, ``||F|| <= delta (||Z|| ||C|| + ||W||)`` with
      ``delta = (d K + d + K) eps``, which exceeds twice the ``gamma_{K+2}`` of
      a complex inner product of length ``K``.  So
      ``W^* T - I = (B T - I) + Z (C T) + F T`` and ``||W^* T - I||_2 <= rho``,
      where ``rho = (1 + delta)^2 (||BT - I|| + ||Z|| ||CT|| + delta ||T||
      (||B|| + 2 ||Z|| ||C|| + ||W||))``, all norms as computed.  The norms of
      ``BT - I`` and ``CT`` are system constants, computed once per call; the
      slack ``delta ||T|| ||B||`` and half of ``2 delta ||T|| ||Z|| ||C||``
      cover the rounding of those two products, and the rest covers ``F T``.
      The factor ``(1 + delta)^2`` covers the rounding of the norms, each a
      sum of at most ``2 d K`` squares.  ``||Z||`` and ``||W||`` are one
      reduction per batch.
    - ``T^* W = I + E`` with ``||E||_2 <= rho < 1`` gives
      ``(1 - rho) ||x|| <= ||T^* W x|| <= ||T|| ||W x||``, so
      ``lambda_min(W^* W) >= (1 - rho)^2 / ||T||^2`` (the Frobenius norm in
      place of ``sigma_max(T)``, whose computed value has no stated error); and
      ``lambda_max(W^* W) <= ||W||^2``.  So the ratio ``r`` of the extremes is
      at least ``(1 - rho)^2 / (||T||^2 ||W||^2)``, which, evaluated in
      floating point, is at most ``3 delta`` relatively above a true lower
      bound.
    - The eigenvalue verdict sees ``fl(W^* W)``, within ``sqrt(2) gamma_{K+2}
      ||W||^2`` of ``W^* W`` in the spectral norm, and the eigensolver's
      backward error, ``p(d) u ||W||^2`` for a modest ``p`` (LAPACK Users'
      Guide, section 4.7).  With ``eta = 16 (d^2 + K) eps`` taken to bound
      their sum, its extremes are within ``eta ||W||^2`` of the true ones, and
      ``lambda_min > fl(tolerance lambda_max)`` holds once
      ``r > tolerance (1 + 2 eta) + eta``.

    So an attempt is accepted without eigenvalues when ``rho < 1/2`` and the
    computed bound, times ``1 - 4 delta``, exceeds ``tolerance (1 + 3 eta) +
    eta``; the additive ``eta`` keeps this sound for tolerances near ``eps``.
    The rounding model needs no overflow and no subnormals, so the
    certificate applies only while ``||T||^2`` and ``||W||^2`` lie in
    ``[2^-900, 2^900]``, and a batch's arithmetic ignores floating-point
    warnings: an overflow or NaN leaves the attempt undecided.  At the
    default tolerance and moderate ``scale`` the bound clears the tolerance
    by orders of magnitude, so attempts rarely take eigenvalues.

    Each batch's accepted duals are scored against ``system`` in one pass
    (``core._sampled_duals``), so ``error_report(system, sample)`` reads the
    sample's scores in place of computing the same bits.
    """
    if _integer(count, "count must be an integer") < 1:
        raise StructuralError("count must be at least 1")
    max_redraws = _integer(max_redraws, "max_redraws must be an integer")
    check_tolerance(scale, "scale")
    manifold = dual_manifold(system, tolerance)
    certified = _certifier(system, manifold, tolerance)
    deviation = scale / np.sqrt(system._spectrum[0])  # dual_manifold cached the spectrum
    rng = np.random.default_rng(seed)
    batch = max(1, min(_SAMPLE_CHUNK, _BATCH_ENTRIES // (system.d * system.tr_k)))
    samples: list[ReconstructionSystem] = []
    misses = 0  # consecutive rejected attempts for the current slot
    while len(samples) < count:
        if misses >= max_redraws:
            raise SamplingError(f"no usable dual after {max_redraws} redraws")
        size = min(batch, count - len(samples), max_redraws - misses)
        # per attempt: the real parts, then the imaginary parts, as complex_gaussian draws them
        draws = rng.standard_normal((size, 2, system.d, system.tr_k))
        parameters = deviation * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
        syntheses = manifold.base_synthesis + parameters @ manifold.range_complement
        analyses = np.ascontiguousarray(dagger(syntheses))
        usable = certified(parameters, analyses)
        undecided = np.flatnonzero(~usable)
        if undecided.size:
            usable[undecided] = _analysis_is_rs(analyses[undecided], tolerance)
        accepted = np.flatnonzero(usable)
        misses = size - 1 - int(accepted[-1]) if accepted.size else misses + size
        samples += _sampled_duals(system, analyses[accepted])
    return samples
