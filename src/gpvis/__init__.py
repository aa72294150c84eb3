"""gpvis: exact mutual-visibility and general-position computations on
double graphs and Mycielskian graphs.

The package builds the named graph families and the two operators,
verifies and maximizes the four set properties (mutual-visibility,
outer, total, general position), reproduces the recorded closed-form
values and witness constructions, and reports them as a pass/fail suite.
"""

from ._kernel import backend_name
from .catalog import FormulaId, formula_value
from .families import (
    FamilySpec,
    GraphSpecError,
    double_graph,
    generate,
    mycielskian,
    parse_graph_spec,
    wheel_graph,
)
from .graphs import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    Role,
    VertexSet,
    all_pairs_distances,
    apex_role,
    base_role,
    build_graph,
    copy_role,
    exists_avoiding_geodesic,
    graph_from_edge_list_text,
    graph_to_edge_list_text,
    lies_between,
    mask_of,
    read_edge_list_file,
    require_connected,
)
from .report import (
    DEFAULT_CORPUS_SEED,
    Check,
    Report,
    corpus_graphs,
    run_verification_suite,
)
from .solver import (
    ENUMERATION_CAP,
    SOLVER_CAPS,
    InvariantResult,
    enumerate_maximum_sets,
    greedy_lower_bound,
    invariant,
    max_property_set,
)
from .visibility import (
    PartitionWitness,
    PropertyKind,
    false_twin_swap,
    find_false_twins,
    find_true_twins,
    is_general_position_set,
    is_general_position_set_via_characterization,
    is_mutual_visibility_set,
    is_outer_mutual_visibility_set,
    is_property_set,
    is_total_mutual_visibility_set,
    true_twin_extend,
)
from .witnesses import (
    balloon_double_witness,
    fixed_witness,
    format_witness_set,
    load_witness_file,
    parse_witness_set,
    save_witness_file,
    witness_diam3,
    witness_double_from_total,
    witness_myc_cycle,
    witness_myc_path,
    witness_universal,
)

__version__ = "0.1.0"
