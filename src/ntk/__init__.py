"""Near transversals of group-based latin squares.

For any finite group the multiplication table, read as a latin square,
contains n-1 cells meeting every row, column and symbol at most once. This
package constructs such a cell set explicitly, verifies the graph structure
that guarantees it, and cross-checks everything against exhaustive oracles
at small orders.
"""

from .construction import (
    BRANCH_COMPLETE_MAPPING,
    BRANCH_CONSTRUCTION,
    ConstructionResult,
    Decomposition,
    Witness,
    build_witness,
    decompose,
    display_orders,
    extract_near_transversal,
    near_transversal,
    result_json,
)
from .graphs import (
    LabeledGraph,
    check_witness,
    induced_subgraph,
    max_independent_set,
)
from .groups import (
    CYCLIC_NONTRIVIAL,
    NON_CYCLIC,
    TRIVIAL,
    Group,
    SylowReport,
    commutator_subgroup,
    conjugation,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    element_order,
    element_orders,
    group_from_table,
    group_from_text,
    index2_subgroups,
    load_group,
    order_signature,
    save_group,
    semidirect,
    subgroup_closure,
    sylow2,
    symmetric,
)
from .groupspec import parse_group_spec
from .latin import (
    LatinSquare,
    Violation,
    apply_isotopy,
    brute_force_transversal,
    cayley_square,
    cells_from_json,
    cells_to_json,
    conjugate_cells,
    conjugate_square,
    count_transversals,
    is_extendable,
    is_partial_transversal,
    latin_square,
    load_square,
    map_cells,
    max_partial_transversal,
    save_square,
    triples,
)
from .mappings import (
    find_complete_mapping,
    harmonious_ordering,
    is_complete_mapping,
    verify_harmonious,
)

__version__ = "0.1.0"
