"""Finite-dimensional reconstruction systems (g-frames).

Block families, their duals, robustness of blind reconstruction to single
erasures, stability under dropping blocks, nearest projective approximation,
and structured constructions (group orbits, commuting projections,
minimal-redundancy systems).

The namespace is lazy (PEP 562): ``import gframes`` loads no submodule, and
each public name is imported from its home module on first access, so a
one-shot command-line call loads only the modules it runs.  ``_HOME`` is the
only export list: each submodule's ``__all__`` is ``_exports`` of its name.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in ``__all__`` order.
_HOME = {
    "DEFAULT_TOLERANCE": "core",
    "DualCandidate": "duals",
    "DualManifold": "duals",
    "ErasureMask": "erasure",
    "ErrorReport": "erasure",
    "GFramesError": "errors",
    "GroupSystemReport": "constructions",
    "NotReconstructionSystemError": "errors",
    "PolarFactorization": "approx",
    "PreconditionError": "errors",
    "RSSignature": "core",
    "ReconstructionSystem": "core",
    "RieszDualCheck": "constructions",
    "RieszIndexCheck": "constructions",
    "SamplingError": "errors",
    "StructuralError": "errors",
    "SystemClassification": "core",
    "TruncationReport": "stability",
    "UnitaryRepresentation": "constructions",
    "WorstCaseSolution": "erasure",
    "analysis_apply": "core",
    "analysis_matrix": "core",
    "blind_reconstruct": "erasure",
    "blockwise_distance": "core",
    "canonical_dual": "duals",
    "ck_sufficient_condition": "stability",
    "classify": "core",
    "commuting_projective_dual": "constructions",
    "cyclic_shift_representation": "constructions",
    "direct_product": "constructions",
    "dual_manifold": "duals",
    "dual_manifold_sample": "duals",
    "dumps_canonical": "serialize",
    "error_report": "erasure",
    "fixtures": "constructions",
    "frame_operator": "core",
    "group_rs": "constructions",
    "group_rs_checks": "constructions",
    "inverse_frame_operator": "duals",
    "is_weighted_coisometry": "approx",
    "load_system": "serialize",
    "nearest_projective": "approx",
    "optimal_dual_two_error": "erasure",
    "polar_coisometry": "approx",
    "riesz_projective_dual_check": "constructions",
    "save_system": "serialize",
    "synthesis_apply": "core",
    "synthesis_matrix": "core",
    "system_from_dict": "serialize",
    "system_from_synthesis": "core",
    "system_to_dict": "serialize",
    "truncate": "stability",
    "truncated_canonical_dual": "stability",
    "unit_sum_coefficients": "constructions",
    "verify_dual": "duals",
    "wce_condition": "erasure",
    "wce_minimize": "erasure",
    "wce_solve": "erasure",
}

__all__ = list(_HOME)


def _exports(module: str) -> list[str]:
    """The public names homed in ``module`` (a submodule's ``__name__``), in ``_HOME`` order."""
    home = module.rpartition(".")[2]
    return [name for name, where in _HOME.items() if where == home]


def __getattr__(name: str):
    """Import a public name from its home module, or one of those modules, on first use."""
    if name in _HOME.values():
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
