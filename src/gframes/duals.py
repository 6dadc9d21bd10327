"""Dual systems: verification, the canonical dual, and the affine dual family.

``W`` is a dual of ``V`` when ``sum_i W_i^* V_i = I``, i.e. the synthesis
matrix of ``W`` is a left inverse of the analysis matrix of ``V``.  The
canonical dual has blocks ``V_i S^{-1}``; its synthesis matrix is the
Moore-Penrose pseudoinverse of the analysis matrix.  Every other dual is an
affine translate of the canonical one:

    synthesis(W) = synthesis(canonical) + Z (I - T S^{-1} T^*)

where ``T`` is the analysis matrix and ``Z`` ranges over all ``d x K``
matrices.  ``DualManifold`` exposes this chart; sampling duals means drawing
``Z`` with complex Gaussian entries.

The canonical dual ``Q R^{-*}``, ``S^{-1} = R^{-1} R^{-*}`` and the chart's
projector ``I - Q Q^*`` come from one checked QR factor ``T = Q R`` of the
analysis matrix (``core._analysis_factor``, the one routine that factors
``T``), which raises ``NotReconstructionSystemError`` exactly when
``classify`` reads ``is_rs`` false and otherwise returns ``Q`` and ``R^{-1}``;
``core`` caches what the factor yields (see ``ReconstructionSystem``).  ``S``
is never formed, so accuracy follows ``kappa(T)``, not ``kappa(T)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

__all__ = [
    "DualCandidate",
    "DualManifold",
    "canonical_dual",
    "dual_manifold",
    "dual_manifold_sample",
    "inverse_frame_operator",
    "verify_dual",
]

# Attempts drawn per batch in ``dual_manifold_sample``: enough to amortize
# per-call overhead on small systems, with at most _BATCH_ENTRIES chart
# entries per batch so that large systems stay at a few MB.
_SAMPLE_CHUNK = 64
_BATCH_ENTRIES = 1 << 18


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

    Each batch's accepted duals are scored against ``system`` in one pass
    (``core._sampled_duals``), so ``error_report(system, sample)`` reads the
    sample's scores in place of computing the same bits.
    """
    if _integer(count, "count must be an integer") < 1:
        raise StructuralError("count must be at least 1")
    max_redraws = _integer(max_redraws, "max_redraws must be an integer")
    check_tolerance(scale, "scale")
    manifold = dual_manifold(system, tolerance)
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
        accepted = np.flatnonzero(_analysis_is_rs(analyses, tolerance))
        misses = size - 1 - int(accepted[-1]) if accepted.size else misses + size
        samples += _sampled_duals(system, analyses[accepted])
    return samples
