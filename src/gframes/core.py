"""Data model for finite-dimensional reconstruction systems.

A reconstruction system is an ordered family of complex blocks
``V_i : C^d -> C^{k_i}``, stored as ``k_i x d`` matrices.  The block Gram sum

    S = sum_i V_i^* V_i

plays the role of the frame operator: the family admits stable linear
reconstruction exactly when ``S`` is positive definite, and the extreme
eigenvalues of ``S`` are the frame bounds.  Stacking the blocks vertically
gives the ``K x d`` analysis matrix ``T`` (``K = sum_i k_i``); its adjoint is
the synthesis matrix, and ``S = T^* T`` is analysis followed by synthesis.

A system's shape is its ``RSSignature``, which carries the block layout: the
row slice of each block in ``T`` and the padding mask of its blocks.
``_layout`` keeps one signature per shape in a bounded cache, so the systems
built while a shape is cached share its signature object, and any other
system of that shape holds an equal one; signatures are compared with ``==``.
Blocks of mixed heights are batched one way only: zero-padded with rows to
the widest block, as the ``m x width x d`` stack of ``_block_stack``, with the
signature's mask marking the real rows.  Padding leaves each block's
QR factor and nonzero singular values unchanged, so every per-block
quantity (injectivity, projective weights, the dropped blocks' norms in
truncation, the erasure errors) reads one stacked factor.  Padding costs
``m width^2 d`` where grouping blocks by height would cost
``sum_i k_i^2 d``; the two differ only on systems with a few tall blocks
among many short ones.

Systems and signatures are values: ``copy``, ``deepcopy`` and ``pickle``
rebuild them through the checked constructor (their ``__reduce__``), so a copy
has read-only storage, the shared signature of its shape and no cached slot.
Systems are immutable, so each caches what ops derive from it (see
``ReconstructionSystem``).

All norms written ``||.||`` in this module's docstrings are Frobenius norms
unless said otherwise; spectral norms are always called out by name.  Block
indices are 0-based everywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import _exports
from ._linalg import (dagger, flat, frobenius, hermitian_eigenvalues, hermitian_part, householder,
                      householder_basis, nonsingular, triangular_inverse)
from .errors import NotReconstructionSystemError, StructuralError

DEFAULT_TOLERANCE = 1e-9

__all__ = _exports(__name__)


@dataclass(frozen=True)
class RSSignature:
    """Shape summary of a system: ``m`` blocks of sizes ``k`` over ``C^d``.

    It also carries the block layout, derived once on first use: ``_slices``, the
    rows of ``T`` that hold each block, and ``_rows``, the read-only ``m x width``
    padding mask, whose entry ``[i, j]`` says whether row ``j`` of the zero-padded
    block stack holds a row of block ``i`` (``j < k_i``).  Neither is a field, so
    ``==``, the hash and the repr read ``m``, ``k`` and ``d`` only.
    """

    m: int
    k: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        m = _integer(self.m, "signature m must be an integer")
        d = _integer(self.d, "signature d must be an integer")
        if m < 1 or d < 1:
            raise StructuralError("signature needs at least one block and d >= 1")
        sizes = tuple(_integer(ki, "signature block sizes k must be integers") for ki in self.k)
        if len(sizes) != m or any(ki < 1 for ki in sizes):
            raise StructuralError("signature block sizes must be %d positive ints" % m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", sizes)
        object.__setattr__(self, "d", d)

    @property
    def tr_k(self) -> int:
        """Total coefficient dimension ``K = sum_i k_i``."""
        return sum(self.k)

    def __reduce__(self):
        return _layout, (self.k, self.d)

    @cached_property
    def _slices(self) -> tuple[slice, ...]:
        return tuple(slice(end - ki, end) for ki, end in zip(self.k, accumulate(self.k)))

    @cached_property
    def _rows(self) -> np.ndarray:
        return _read_only(np.arange(max(self.k)) < np.asarray(self.k)[:, None])


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only, as every cached array is."""
    array.flags.writeable = False
    return array


def _as_block(entry, index: int) -> np.ndarray:
    arr = np.asarray(entry, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise StructuralError(f"block {index} must be a non-empty 2-d matrix, got shape {arr.shape}")
    return arr


@lru_cache(maxsize=256)
def _layout(sizes: tuple[int, ...], d: int) -> RSSignature:
    """The signature of systems with blocks of heights ``sizes`` over ``C^d``: one object per
    shape while the shape stays in this bounded cache, and a new, equal one for a shape
    evicted from it.  Copies and pickles of a signature are rebuilt here."""
    for i, ki in enumerate(sizes):
        if ki < 1 or d < 1:
            raise StructuralError(
                f"block {i} must be a non-empty 2-d matrix, got shape {(ki, d)}")
    return RSSignature(len(sizes), sizes, d)


@dataclass(frozen=True, eq=False)
class ReconstructionSystem:
    """Immutable ordered family of complex blocks over a common domain ``C^d``.

    The blocks are stored once, stacked in order as the read-only ``K x d``
    matrix ``analysis``, which is validated at construction; ``blocks`` holds
    read-only row-slice views into it.  ``k``, ``tr_k`` and ``signature`` are
    fixed at construction.  The signature carries the row slices and padding
    mask; systems built while their shape is in ``_layout``'s bounded cache
    share one signature object, and others hold an equal one.  ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a system from its blocks through this
    constructor, so a copy carries none of the slots below.

    A system also caches three read-only arrays on first use, valid for its
    lifetime whichever op computed them: the triangular factors ``R_i`` of
    ``V_i^* = Q_i R_i`` (``_block_factor``, one stacked QR), which every
    per-block value reads; the eigenvalues of ``S`` as the squared singular
    values of ``T`` (``_spectrum``, ``d`` floats), which every verdict reads;
    and ``R^{-1}`` of ``T = Q R`` (``_r_inverse``, ``d x d``), which every
    ``S^{-1} = R^{-1} R^{-*}`` and canonical dual reads.  ``_analysis_factor``,
    the one routine that factors ``T``, seeds ``_spectrum`` when no verdict
    has taken it yet and writes ``_r_inverse`` only once the system passes
    the ``is_rs`` rule; ``Q`` and ``R`` of ``T`` are not cached.  Truncation
    keeps one memo for the last drop set, ``_kept = (drop, spectrum,
    handed)``: the survivors' spectrum, and the factor of the kept rows that
    ``_survivor_factor`` took (``R_J``, Householder reflectors and ``tau``; one
    ``K_J x d`` array) until the next ``_survivor_dual`` takes it and leaves None.
    A dual made by ``_sampled_duals`` holds ``_scored = (system, scores,
    row)``, its erasure errors ``scores[row]`` against the system it was drawn
    from, which ``_dual_scores`` reads; any other system holds None there.
    Only this module's routines read or write these slots.

    Parameters
    ----------
    blocks
        Iterable of 2-d array-likes, each with the same number of columns.
        Entries are cast to ``complex128`` and must be finite.  They are
        copied, so later changes to the inputs do not reach the system.
    """

    blocks: tuple[np.ndarray, ...]
    analysis: np.ndarray = field(init=False, repr=False)
    k: tuple[int, ...] = field(init=False, repr=False)
    tr_k: int = field(init=False, repr=False)
    signature: RSSignature = field(init=False, repr=False)

    def __post_init__(self) -> None:
        converted = [_as_block(b, i) for i, b in enumerate(self.blocks)]
        if not converted:
            raise StructuralError("a system needs at least one block")
        d = converted[0].shape[1]
        for i, b in enumerate(converted):
            if b.shape[1] != d:
                raise StructuralError(
                    f"block {i} has {b.shape[1]} columns, expected {d} (common domain)")
        analysis = np.concatenate(converted)
        self._adopt(analysis, _frozen_layout(analysis, tuple(b.shape[0] for b in converted)))

    def _adopt(self, analysis: np.ndarray, signature: RSSignature) -> None:
        """Take the read-only ``analysis`` as storage and slice it into blocks.

        Every system sets the same attributes in the same order, the unset
        ``_scored`` memo included, so CPython keeps their shared-key layout.
        """
        object.__setattr__(self, "blocks", tuple(map(analysis.__getitem__, signature._slices)))
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "k", signature.k)
        object.__setattr__(self, "tr_k", analysis.shape[0])
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_scored", None)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.analysis.shape[1]

    @cached_property
    def _block_factor(self) -> np.ndarray:
        """Read-only ``m x min(d, width) x width`` stack of the ``R_i`` in ``V_i^* = Q_i R_i``.

        Zero padding to the widest block leaves each leading ``R_i`` unchanged
        and the padded columns zero; blocks with ``k_i > d`` or deficient
        rank need no special case.
        """
        return _read_only(np.linalg.qr(dagger(_block_stack(self)), mode="r"))

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Read-only eigenvalues ``sigma(T)^2`` of ``S = T^* T``, descending, zero-padded to ``d``.

        The first ``_analysis_factor`` call seeds it from the ``R`` it computes;
        a verdict asked for before any such call takes a values-only QR.
        """
        return _squared_spectrum(np.linalg.qr(self.analysis, mode="r"), self.d)

    def __reduce__(self):
        return ReconstructionSystem, (self.blocks,)

    def __repr__(self) -> str:
        return f"ReconstructionSystem(m={self.m}, k={self.k}, d={self.d})"


def _padded(analyses: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``... x K x d`` analysis matrices as zero-padded ``... x m x width x d`` block stacks
    (``rows`` a signature's ``_rows``); a view if no block is padded."""
    shape = analyses.shape[:-2] + rows.shape + analyses.shape[-1:]
    if rows.size == analyses.shape[-2]:
        return analyses.reshape(shape)
    stack = np.zeros(shape, dtype=np.complex128)
    stack[..., rows, :] = analyses
    return stack


def _block_stack(system: ReconstructionSystem) -> np.ndarray:
    """The blocks as a zero-padded ``m x width x d`` stack; a read-only view if none is padded."""
    return _padded(system.analysis, system.signature._rows)


def _scores(system: ReconstructionSystem, stacks: np.ndarray) -> np.ndarray:
    """The norms ``||W_j^* V_j||`` of each dual in ``stacks`` (``... x m x width x d``, as
    ``_padded`` gives them), as ``... x m`` floats.

    ``||W_j^* V_j|| = ||V_j^* W_j|| = ||R_j W_j||`` with ``V_j^* = Q_j R_j``, since
    ``Q_j`` has orthonormal columns; the reduction is that of
    ``np.linalg.norm(products, axis=(-2, -1))``, bit for bit.
    """
    products = system._block_factor @ stacks
    squares = np.conjugate(products)
    squares *= products
    return np.sqrt(np.add.reduce(squares.real, axis=(-2, -1)))


def _frozen_layout(analyses: np.ndarray, sizes: Sequence[int]) -> RSSignature:
    """The signature of systems with blocks of heights ``sizes`` over the ``... x K x d``
    ``analyses``, made read-only; raises ``StructuralError`` naming the block of the first
    non-finite entry."""
    sizes = tuple(map(int, sizes))
    if not sizes:
        raise StructuralError("a system needs at least one block")
    signature = _layout(sizes, analyses.shape[-1])
    if not np.isfinite(analyses).all():
        row = int(np.argmin(np.isfinite(analyses).all(axis=-1))) % analyses.shape[-2]
        raise StructuralError(
            f"block {np.nonzero(signature._rows)[0][row]} contains non-finite entries")
    analyses.flags.writeable = False
    return signature


def _from_analyses(analyses: np.ndarray, sizes: Sequence[int]) -> list[ReconstructionSystem]:
    """One system per ``K x d`` matrix of the C-contiguous ``n x K x d`` ``complex128`` stack
    ``analyses``, each with blocks of heights ``sizes``: views of the stack, which the
    caller must not use afterwards."""
    signature = _frozen_layout(analyses, sizes)
    systems = [object.__new__(ReconstructionSystem) for _ in range(analyses.shape[0])]
    for system, analysis in zip(systems, analyses):
        system._adopt(analysis, signature)
    return systems


def _from_analysis(analysis: np.ndarray, sizes: Sequence[int]) -> ReconstructionSystem:
    """The system of ``_from_analyses`` over one ``K x d`` matrix, which the system keeps
    (or a contiguous copy) as its storage."""
    analysis = np.ascontiguousarray(analysis, dtype=np.complex128)
    system = object.__new__(ReconstructionSystem)
    system._adopt(analysis, _frozen_layout(analysis, sizes))
    return system


def _integer(value, message: str) -> int:
    """``value`` as an integer (numpy's too), never a ``bool``; else raise ``StructuralError``
    with ``message``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise StructuralError(message)


def _index_subset(indices: Iterable[int], m: int, noun: str) -> tuple[int, ...]:
    """Sorted distinct indices in ``[0, m)``; error messages name the ``noun``."""
    try:
        indices = iter(indices)
    except TypeError:
        raise StructuralError(f"{noun} indices must be a collection of integers") from None
    message = f"{noun} indices must be integers"
    listed = [_integer(i, message) for i in indices]
    if len(listed) != len(set(listed)):
        raise StructuralError(f"{noun} indices must not repeat")
    if m < 1:
        raise StructuralError(f"{noun} needs m >= 1")
    if any(i < 0 or i >= m for i in listed):
        raise StructuralError(f"{noun} indices must lie in [0, {m})")
    return tuple(sorted(listed))


@dataclass(frozen=True)
class SystemClassification:
    """Structural flags of a system at a fixed tolerance.

    ``weights`` holds the per-block spectral norms, and is populated only
    when ``is_projective`` is true (the weights are meaningless otherwise).
    ``lower_bound``/``upper_bound`` are the extreme eigenvalues of the block
    Gram sum; both are reported even when ``is_rs`` fails.
    """

    is_rs: bool
    is_injective: bool
    is_projective: bool
    weights: tuple[float, ...] | None
    is_uniform: bool
    is_protocol: bool
    is_riesz: bool
    lower_bound: float
    upper_bound: float
    tolerance: float


def _squared_spectrum(r: np.ndarray, d: int) -> np.ndarray:
    """Read-only ``sigma(R)^2``, descending, zero-padded to ``d``: the eigenvalues of ``R^* R``."""
    sigma = np.linalg.svd(r, compute_uv=False)
    return _read_only(np.concatenate((sigma * sigma, np.zeros(d - sigma.size))))


def _analysis_is_rs(analysis: np.ndarray, tolerance: float) -> np.ndarray:
    """``nonsingular`` of ``sigma(T)^2`` for ``T`` or each in a ``... x K x d`` stack, read from
    one batched ``hermitian_eigenvalues`` of ``T^* T`` formed as one product; it seeds no
    ``_spectrum``."""
    spectra = hermitian_eigenvalues(dagger(analysis) @ analysis)
    return nonsingular(spectra[..., 0], spectra[..., -1], tolerance)


def _frame_bounds(system: ReconstructionSystem, tolerance: float) -> tuple[float, float]:
    """``(lambda_min, lambda_max)`` of ``S`` from the system's spectrum; raises
    ``NotReconstructionSystemError`` unless ``nonsingular`` at ``tolerance``."""
    spectrum = system._spectrum
    lower, upper = float(spectrum[-1]), float(spectrum[0])
    if not nonsingular(lower, upper, tolerance):
        raise NotReconstructionSystemError("block Gram sum is singular (lambda_min="
                                           f"{lower:.3e}, lambda_max={upper:.3e})")
    return lower, upper


def _analysis_factor(system: ReconstructionSystem, tolerance: float,
                     factor: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, R^{-1})`` of ``T = Q R``, from the QR of ``system.analysis`` or the ``(Q, R)``
    given as ``factor``; raises ``NotReconstructionSystemError`` unless the spectrum is
    ``nonsingular`` at ``tolerance``.

    It seeds the system's ``_spectrum`` if missing and, once the check passes, caches
    ``R^{-1}`` read-only, so no op factors ``T`` twice and a system that fails the check holds
    no ``R^{-1}``.
    """
    q, r = np.linalg.qr(system.analysis) if factor is None else factor
    cache = vars(system)  # where cached_property keeps its values
    if "_spectrum" not in cache:
        cache["_spectrum"] = _squared_spectrum(r, system.d)
    _frame_bounds(system, tolerance)
    if "_r_inverse" not in cache:
        cache["_r_inverse"] = _read_only(triangular_inverse(r))
    return q, cache["_r_inverse"]


def _canonical(system: ReconstructionSystem, tolerance: float,
               factor: tuple[np.ndarray, np.ndarray] | None = None) -> ReconstructionSystem:
    """The canonical dual, analysis matrix ``Q R^{-*} = T S^{-1}``, from ``_analysis_factor``."""
    q, r_inverse = _analysis_factor(system, tolerance, factor)
    return _from_analysis(q @ dagger(r_inverse), system.k)


def _inverse_gram(system: ReconstructionSystem, tolerance: float) -> np.ndarray:
    """``S^{-1} = R^{-1} R^{-*}`` from the cached ``R^{-1}`` (first taken by ``_analysis_factor``);
    raises ``NotReconstructionSystemError`` unless the spectrum is ``nonsingular``."""
    r_inverse = vars(system).get("_r_inverse")
    if r_inverse is None:
        _, r_inverse = _analysis_factor(system, tolerance)
    else:
        _frame_bounds(system, tolerance)
    return r_inverse @ dagger(r_inverse)


def _survivor_factor(system: ReconstructionSystem, drop: tuple[int, ...], rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(R_J, sigma(R_J)^2)`` for the kept rows ``rows`` (the caller's own copy) after dropping
    the blocks ``drop``; the spectrum is the memo's if it holds ``drop``.

    It leaves ``rows`` as Householder reflectors and hands them, with ``R_J`` and ``tau``, to
    the next ``_survivor_dual`` in the system's ``_kept`` memo.
    """
    r, tau = householder(rows)
    memo, spectrum, _ = vars(system).get("_kept", (None, None, None))
    if memo != drop:
        spectrum = _squared_spectrum(r, system.d)
    vars(system)["_kept"] = drop, spectrum, (r, rows, tau)
    return r, spectrum


def _survivor_dual(system: ReconstructionSystem, drop: tuple[int, ...],
                   survivors: ReconstructionSystem, tolerance: float) -> ReconstructionSystem:
    """``_canonical`` of the ``survivors`` of dropping ``drop``, seeded from the ``_kept`` memo.

    If the memo holds ``drop``, the survivors take its spectrum and, when ``_survivor_factor``
    left one, its factor, so ``Q_J`` comes from the reflectors with no second QR.  Whether or
    not the survivors pass the ``is_rs`` rule, the memo is left with their spectrum and no
    factor.
    """
    memo, spectrum, handed = vars(system).get("_kept", (None, None, None))
    factor = None
    if memo == drop:
        vars(survivors)["_spectrum"] = spectrum
        if handed is not None:
            r, reflectors, tau = handed
            factor = householder_basis(reflectors, tau), r
    try:
        return _canonical(survivors, tolerance, factor)
    finally:
        vars(system)["_kept"] = drop, survivors._spectrum, None


def _sampled_duals(system: ReconstructionSystem, analyses: np.ndarray
                   ) -> list[ReconstructionSystem]:
    """The systems of ``_from_analyses`` over ``analyses``, each holding ``_scored``: its
    row of the read-only ``_scores`` against ``system``, taken for all of them in one pass."""
    scores = _read_only(_scores(system, _padded(analyses, system.signature._rows)))
    duals = _from_analyses(analyses, system.k)
    for row, dual in enumerate(duals):
        object.__setattr__(dual, "_scored", (system, scores, row))
    return duals


def _dual_scores(system: ReconstructionSystem, dual: ReconstructionSystem) -> np.ndarray:
    """The erasure errors ``||W_j^* V_j||`` of ``dual`` against ``system``: those that
    ``_sampled_duals`` attached if it scored ``dual`` against this very system, else
    ``_scores``, with the same bits."""
    memo = dual._scored
    if memo is not None and memo[0] is system:
        return memo[1][memo[2]]
    return _scores(system, _block_stack(dual))


def frame_operator(system: ReconstructionSystem) -> np.ndarray:
    """Block Gram sum ``S = sum_i V_i^* V_i``: added over the blocks in order, then symmetrized."""
    total = np.zeros((system.d, system.d), dtype=np.complex128)
    for block in system.blocks:
        total += dagger(block) @ block
    return hermitian_part(total)


def analysis_apply(system: ReconstructionSystem, x) -> list[np.ndarray]:
    """Per-block coefficient packets ``[V_0 x, ..., V_{m-1} x]``."""
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1 or vec.shape[0] != system.d:
        raise StructuralError(f"expected a vector of length {system.d}")
    return [b @ vec for b in system.blocks]


def synthesis_apply(system: ReconstructionSystem, packets: Sequence) -> np.ndarray:
    """Adjoint-side sum ``sum_i V_i^* y_i`` for per-block packets ``y_i``."""
    if len(packets) != system.m:
        raise StructuralError(f"expected {system.m} packets, got {len(packets)}")
    out = np.zeros(system.d, dtype=np.complex128)
    for i, (b, y) in enumerate(zip(system.blocks, packets)):
        packet = np.asarray(y, dtype=np.complex128)
        if packet.ndim != 1 or packet.shape[0] != b.shape[0]:
            raise StructuralError(f"packet {i} must have length {b.shape[0]}")
        out += dagger(b) @ packet
    return out


def analysis_matrix(system: ReconstructionSystem) -> np.ndarray:
    """Writable copy of the stacked ``K x d`` analysis matrix (blocks vertically, in order)."""
    return system.analysis.copy()


def synthesis_matrix(system: ReconstructionSystem) -> np.ndarray:
    """Adjoint of the analysis matrix, ``d x K`` (a new array)."""
    return dagger(system.analysis)


def system_from_synthesis(synthesis: np.ndarray, k: Iterable[int]) -> ReconstructionSystem:
    """Rebuild a system from a ``d x K`` synthesis matrix and block sizes."""
    sizes = tuple(_integer(ki, "block sizes k must be integers") for ki in k)
    syn = np.asarray(synthesis, dtype=np.complex128)
    if syn.ndim != 2 or syn.shape[1] != sum(sizes):
        raise StructuralError(
            f"synthesis matrix must have {sum(sizes)} columns, got shape {syn.shape}")
    return _from_analysis(dagger(syn), sizes)


def blockwise_distance(a: ReconstructionSystem, b: ReconstructionSystem) -> float:
    """Largest per-block Frobenius distance between two equal-signature systems."""
    if a.signature != b.signature:
        raise StructuralError(f"signature mismatch: {a.signature} vs {b.signature}")
    return max(frobenius(x - y) for x, y in zip(a.blocks, b.blocks))


def _block_sigma(system: ReconstructionSystem, sigma: np.ndarray | None = None) -> np.ndarray:
    """``m x width`` table of each block's singular values, descending and zero-padded:
    ``sigma(R_i) = sigma(V_i)`` from one values-only SVD of the cached block factor, or
    the ``sigma`` of an SVD of that factor the caller has already taken."""
    factor = system._block_factor
    table = np.zeros((factor.shape[0], factor.shape[2]))
    table[:, :factor.shape[1]] = np.linalg.svd(factor, compute_uv=False) if sigma is None else sigma
    return table


def _block_spectra(system: ReconstructionSystem, tolerance: float,
                   sigma: np.ndarray | None = None) -> tuple[bool, tuple[float, ...] | None]:
    """Whether every block has full row rank, and the weights ``||V_i||_sp`` if every
    ``V_i V_i^*`` is a positive multiple of I (else None).

    Each block is judged on the extremes ``sigma_1^2`` and ``sigma_{k_i}^2`` of its
    ``_block_sigma`` row (``sigma_{k_i} = 0`` when ``k_i > d``): ``nonsingular`` for
    the rank, ``flat`` for the multiple; the squared weights must be ``nonsingular``.
    """
    sigma = _block_sigma(system, sigma)
    top, bottom = sigma[:, 0], sigma[np.arange(system.m), np.asarray(system.k) - 1]
    peak, low = top * top, bottom * bottom
    injective = bool(np.all(nonsingular(low, peak, tolerance)))
    projective = np.all(flat(low, peak, tolerance) & nonsingular(peak, peak.max(), tolerance))
    return injective, tuple(top.tolist()) if projective else None


def classify(system: ReconstructionSystem,
             tolerance: float = DEFAULT_TOLERANCE) -> SystemClassification:
    """Classify a system at the given tolerance.

    Rank and flatness flags read the extremes of a PSD spectrum ``lambda``:
    ``nonsingular`` is ``lambda_min > tolerance * lambda_max`` and ``flat`` adds
    ``lambda_max - lambda_min <= tolerance * lambda_max`` (no flag but
    ``is_protocol`` depends on units).

    - ``is_rs``: ``sigma(T)^2`` is nonsingular for the analysis matrix ``T``;
      ``canonical_dual`` returns exactly when it holds.
    - ``is_injective``: every ``sigma(V_i)^2`` is nonsingular (full row rank).
    - ``is_projective``: every ``sigma(V_i)^2`` is flat (``V_i V_i^*`` is a
      multiple of I) and the squared weights ``||V_i||_sp^2`` are nonsingular.
    - ``is_uniform``: projective with flat weights.
    - ``is_protocol``: the block Gram sum is the identity.
    - ``is_riesz``: total block dimension equals the domain dimension
      (purely combinatorial).

    The bounds, ``is_rs`` and ``is_protocol`` read the system's cached
    spectrum, so classifying a system that some op has factored takes no
    factor of ``T``.
    """
    injective, weights = _block_spectra(system, tolerance)
    lower, upper = float(system._spectrum[-1]), float(system._spectrum[0])
    uniform = weights is not None and flat(min(weights), max(weights), tolerance)
    # ||S - I|| from the eigenvalues of the Hermitian S; hypot squares no eigenvalue
    protocol = math.hypot(*(system._spectrum - 1.0).tolist()) <= tolerance * upper
    return SystemClassification(
        is_rs=nonsingular(lower, upper, tolerance),
        is_injective=injective,
        is_projective=weights is not None,
        weights=weights,
        is_uniform=uniform,
        is_protocol=protocol,
        is_riesz=system.tr_k == system.d,
        lower_bound=lower,
        upper_bound=upper,
        tolerance=tolerance,
    )
