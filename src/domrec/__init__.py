"""Exact toolkit for domination reconfiguration on small graphs.

Core objects: bitmask vertex sets on an immutable Graph, exact enumeration
of (minimal) dominating sets, the k-dominating graph D_k(G) with its
connectivity threshold d_0(G), and the separation of the minimal family,
computed both by definition and via a bottleneck spanning tree, and its
value alone (sep_value) by threshold questions.
"""

from .graph_core import (
    MAX_VERTICES,
    BudgetError,
    DomrecError,
    Graph,
    InputError,
    UnsupportedGraphError,
    VertexSet,
    bit,
    canonical_key,
    cartesian_product,
    is_connected,
    is_dominating,
    is_irredundant,
    is_minimal_dominating,
    iter_vertices,
    mask_of,
    popcount,
    private_neighbours,
    vertex_list,
)
from .domination import (
    Budget,
    DomFamily,
    InvariantReport,
    compute_ir,
    dominating_sets_upto,
    enumerate_minimal_dominating,
    invariant_report,
)
from .reconfig import (
    ConnectivityProfile,
    ProfileEntry,
    ReconfigGraph,
    build_dk,
    connectivity_profile,
    d0_direct,
    dk_diameter,
    reconfig_path,
)
from .separation import (
    BRUTE_FORCE_MAX_FAMILY,
    D0SepEvidence,
    SepReport,
    check_sep_equals_d0,
    sep_at_most,
    sep_bottleneck,
    sep_brute_force,
    sep_value,
)
from .families import (
    CheckResult,
    GkrLayout,
    QkrLayout,
    StructureReport,
    complete_graph,
    cycle_graph,
    family_w,
    family_x,
    generate_gkr,
    generate_qkr,
    path_graph,
    star,
    verify_gkr_structure,
    verify_qkr_structure,
)

__version__ = "0.1.0"
