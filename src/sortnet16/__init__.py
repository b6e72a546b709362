"""Comparator sorting networks: construction, verification, analysis.

The package rebuilds the two classic 16-input sorters (Green's, 60
comparators at depth 10, and van Voorhis's, 61 at depth 9) from their
structural blocks, machine-checks every ordering claim those structures
rely on, and extracts depth-9 monotone majority circuits for 15 and 16
variables from the depth-9 network.
"""

from .network import (
    Comparator,
    LayeredSchedule,
    Network,
    Phase,
    asap_schedule,
    concat,
    concat_all,
    depth,
    embed,
)
from .verify import (
    DegenerateOrderError,
    Poset,
    SortVerdict,
    backend_name,
    counterexample_permutation,
    infer_poset,
    verify_sorts_binary,
)
from .constructions import (
    CUBE_LAYER1,
    CUBE_LAYER3,
    LOWER_TETRAD,
    MIDDLE_LAYER,
    M_WIRES,
    UPPER_TETRAD,
    batcher_sorter,
    cube_layer,
    green16,
    green16_naive_merge,
    hypercube_phase,
    sorter4,
    strategy_sorter,
    van_voorhis16,
)
from .analysis import (
    ObservationReport,
    check_cube_poset,
    check_depth_regression,
    check_green_m_poset,
    check_observations,
    check_strategy_completeness,
    check_vv_m_poset,
)
from .circuits import (
    Gate,
    MonotoneCircuit,
    cone_depth,
    is_threshold,
    majority_circuit,
    network_to_circuit,
    render_gate_list,
    specialize,
)
from .render import (
    TextFormatError,
    parse_text,
    render_diagram,
    render_poset_dot,
    render_text,
)

__version__ = "0.1.0"

__all__ = [
    "Comparator",
    "Network",
    "Phase",
    "LayeredSchedule",
    "asap_schedule",
    "concat",
    "concat_all",
    "depth",
    "embed",
    "DegenerateOrderError",
    "Poset",
    "SortVerdict",
    "backend_name",
    "counterexample_permutation",
    "infer_poset",
    "verify_sorts_binary",
    "CUBE_LAYER1",
    "CUBE_LAYER3",
    "MIDDLE_LAYER",
    "M_WIRES",
    "UPPER_TETRAD",
    "LOWER_TETRAD",
    "batcher_sorter",
    "cube_layer",
    "green16",
    "green16_naive_merge",
    "hypercube_phase",
    "sorter4",
    "strategy_sorter",
    "van_voorhis16",
    "ObservationReport",
    "check_cube_poset",
    "check_depth_regression",
    "check_green_m_poset",
    "check_observations",
    "check_strategy_completeness",
    "check_vv_m_poset",
    "Gate",
    "MonotoneCircuit",
    "cone_depth",
    "is_threshold",
    "majority_circuit",
    "network_to_circuit",
    "render_gate_list",
    "specialize",
    "TextFormatError",
    "parse_text",
    "render_diagram",
    "render_poset_dot",
    "render_text",
    "__version__",
]
