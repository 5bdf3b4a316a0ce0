"""3-rainbow edge colorings of graphs via strengthened connected dominating
sets, with independent exhaustive verification machinery."""

from types import ModuleType as _Module

from .bounds import BoundsReport, bounds_report
from .coloring import (
    ColoringInternalError,
    ColoringReport,
    Stage1State,
    inner_coloring,
    order_dangerous,
    read_coloring,
    spanning_tree_coloring,
    stage1_periodic,
    stage2_repair_step,
    three_dom_coloring,
    three_way_coloring,
    write_coloring,
)
from .domination import (
    CONNECTED,
    DominatingSet,
    DominationError,
    DominationKind,
    cds_heuristic,
    check_domination,
    dominating_set,
    k_dominating,
    k_way,
    min_connected_dominating_set,
    min_connected_k_dominating_set,
    min_dominating_set,
    three_way_dominating_set,
)
from .generators import (
    FamilyGraph,
    chain_example,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    french_windmill,
    gstar,
    path_graph,
    random_min_degree,
    star_graph,
    threshold_example,
)
from .graphs import (
    BfsTree,
    Graph,
    GraphError,
    LimitError,
    bfs_tree,
    build_graph,
    components_minus,
    diameter,
    edge_key,
    induced_subgraph,
    is_connected,
    read_edge_list,
    sdiam3,
    sdiam3_with_triple,
    steiner_distance3,
    vertex_set,
    write_edge_list,
)
from .verify import (
    CLASS_TABLE,
    EdgeColoring,
    SafetyCertificate,
    VerifyReport,
    certificate_colors,
    class_membership,
    exact_rx3,
    exact_rx3_coloring,
    is_3_rainbow,
    verify_certificate,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _Module)]
