"""Social power dynamics on influence networks.

Implements the single-timescale social power update x <- C^T (x - x^2) + x^2
on a constant row-stochastic, zero-diagonal relative interaction matrix C,
alongside the classical DeGroot-Friedkin update for comparison: network
structure classification (irreducible, reducible with a reachable set,
multi-sink), eigenvector centrality, trajectory simulation with per-sink
power tracking, equilibrium solvers and limit prediction, plus file
ingestion and a CLI.

The public names below load their module on first access, so importing
the package, or a command that needs only part of it, loads only that
part.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("defaults", (
            "EPS_CONV", "EPS_EQUILIBRIUM", "EPS_TIE", "DEFAULT_MAX_STEPS",
            "MODELS", "SINGLE_TIMESCALE", "ORIGINAL_DF",
        )),
        ("netcore", (
            "EPS_VALIDATION", "Condensation", "RelativeInteractionMatrix",
            "NetworkStructure", "Irreducible", "ReducibleReachable", "MultiSink",
            "validate_matrix", "strongly_connected_components", "star_center",
            "classify", "SingleSink", "single_sink",
        )),
        ("spectral", (
            "EPS_SPECTRAL", "CentralityProfile", "InfluenceMatrix",
            "dominant_left_eigenvector", "centrality_profile", "influence_matrix",
        )),
        ("dynamics", (
            "EPS_SIMPLEX", "Trajectory", "Converged", "MaxStepsReached",
            "VertexAbsorbed", "check_simplex", "vertex_index", "st_df_step",
            "fixed_point_residual", "df_step", "simulate", "sink_power",
        )),
        ("equilibria", (
            "EquilibriumPrediction", "ComparisonReport", "InteriorCheck",
            "check_interior", "solve_interior_equilibrium", "predict_limit",
            "assemble_multisink_equilibrium", "compare_models", "regime_name",
        )),
        ("io", (
            "load_network", "write_matrix", "build_star", "build_ring",
            "build_doubly_stochastic_random", "write_trajectory_csv",
        )),
    )
    for name in names
}

_SUBMODULES = ("defaults", "dynamics", "equilibria", "errors", "io", "netcore", "spectral")

__all__ = ["errors", *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
