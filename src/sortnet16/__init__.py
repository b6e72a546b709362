"""Comparator sorting networks: construction, verification, analysis.

The package rebuilds the two classic 16-input sorters (Green's, 60
comparators at depth 10, and van Voorhis's, 61 at depth 9) from their
structural blocks, machine-checks every ordering claim those structures
rely on, and extracts depth-9 monotone majority circuits for 15 and 16
variables from the depth-9 network.

Names are imported on first use (PEP 562), so importing the package, or
one command of its CLI, loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

# Public names by the module that defines them, in the order of __all__.
_EXPORTS = {
    "network": (
        "Comparator",
        "Network",
        "Phase",
        "asap_schedule",
        "depth",
    ),
    "verify": (
        "DegenerateOrderError",
        "Poset",
        "SortVerdict",
        "backend_name",
        "counterexample_permutation",
        "infer_poset",
        "verify_sorts_binary",
    ),
    "constructions": (
        "CUBE_LAYER1",
        "CUBE_LAYER3",
        "MIDDLE_LAYER",
        "M_WIRES",
        "UPPER_TETRAD",
        "LOWER_TETRAD",
        "batcher_sorter",
        "green16",
        "green16_naive_merge",
        "hypercube_phase",
        "sorter4",
        "strategy_sorter",
        "van_voorhis16",
    ),
    "analysis": (
        "ObservationReport",
        "check_cube_poset",
        "check_depth_regression",
        "check_green_m_poset",
        "check_observations",
        "check_strategy_completeness",
        "check_vv_m_poset",
    ),
    "circuits": (
        "Gate",
        "MonotoneCircuit",
        "cone_depth",
        "is_threshold",
        "majority_circuit",
        "network_to_circuit",
        "render_gate_list",
        "specialize",
    ),
    "render": (
        "TextFormatError",
        "parse_text",
        "render_diagram",
        "render_poset_dot",
        "render_text",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # bound as an eager import would: later lookups skip this
    return value


__all__ = [*_MODULE_OF, "__version__"]
