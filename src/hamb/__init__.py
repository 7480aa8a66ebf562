"""Exact counting, unbiased randomized estimation, and upper bounds for
Hamiltonian cycles in directed, symmetric-directed, and undirected graphs.

The public names load on first use (PEP 562), so ``import hamb`` pulls in no
submodule and a command that needs no numpy code never imports numpy.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "BoundValue",
        "DominanceRecord",
        "bregman_bound",
        "digraph_bounds",
        "dominance_compare",
        "minc_bound",
        "symmetric_bound",
        "symmetric_product_value",
        "undirected_bounds",
    ),
    "errors": ("GraphSizeError", "HambError", "ParseError", "PolicyError"),
    "estimator": (
        "EstimateReport",
        "RowOrderPolicy",
        "TrialOutcome",
        "enumerate_branches",
        "estimate",
        "trial_stream",
        "trial_with_policy",
    ),
    "exact": ("estimator_expectation", "ham_bruteforce", "ham_dp", "ham_undirected", "permanent_ryser"),
    "graphs": (
        "ContractedMatrix",
        "CycleWitness",
        "DiGraph",
        "UndiGraph",
        "build_digraph",
        "build_undigraph",
        "contract",
        "degrees",
        "gen_family",
        "gen_gnp",
        "is_symmetric",
        "row_sums",
        "to_symmetric_digraph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
