"""Graph generators: the hub-and-leaf-clique constructions plus stock families.

The `gkr` construction takes a clique K_k per leaf of a star K_{1,r},
wires matching vertices across cliques, and hangs an apex u0 off the hub
clique. The `qkr` variant additionally adds one saturating vertex w_i per
leaf clique, adjacent to the whole hub-plus-apex and to its own leaf
clique. Vertex numbering is frozen here so exports and golden files stay
byte-stable:

    u0 -> 0
    u_j -> j                      (1 <= j <= k)
    v_{i,j} -> k + (i-1)*k + j    (1 <= i <= r, 1 <= j <= k)
    w_i -> k*(r+1) + i            (qkr only, 1 <= i <= r)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Optional

from .graph_core import (
    MAX_VERTICES,
    Graph,
    InputError,
    UnsupportedGraphError,
    VertexSet,
    bit,
    canonical_key,
    is_dominating,
    mask_of,
    popcount,
    vertex_list,
)
from .domination import Budget, DomFamily, enumerate_minimal_dominating


@dataclass(frozen=True)
class GkrLayout:
    """Frozen vertex numbering for the hub construction."""

    k: int
    r: int

    @property
    def u0(self) -> int:
        return 0

    def u(self, j: int) -> int:
        if not 1 <= j <= self.k:
            raise InputError(f"u index {j} outside 1..{self.k}")
        return j

    def v(self, i: int, j: int) -> int:
        if not (1 <= i <= self.r and 1 <= j <= self.k):
            raise InputError(f"v index ({i},{j}) outside range")
        return self.k + (i - 1) * self.k + j

    @property
    def order(self) -> int:
        return self.k * (self.r + 1) + 1

    def label(self, x: int) -> str:
        """The paper's name of vertex x: u0, u_j, v_{i,j} as "vi,j", or w_i (qkr only)."""
        if not 0 <= x < self.order:
            raise InputError(f"vertex {x} outside 0..{self.order - 1}")
        if x <= self.k:
            return f"u{x}"
        leaves_end = self.k * (self.r + 1)
        if x > leaves_end:
            return f"w{x - leaves_end}"
        i, j = divmod(x - self.k - 1, self.k)
        return f"v{i + 1},{j + 1}"

    @property
    def hub_mask(self) -> VertexSet:  # U
        return mask_of(range(1, self.k + 1))

    @property
    def hub_apex_mask(self) -> VertexSet:  # U0 = U + u0
        return self.hub_mask | 1

    def leaf_mask(self, i: int) -> VertexSet:  # V_i
        return mask_of(self.v(i, j) for j in range(1, self.k + 1))


@dataclass(frozen=True)
class QkrLayout(GkrLayout):
    def w(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise InputError(f"w index {i} outside 1..{self.r}")
        return self.k * (self.r + 1) + i

    @property
    def order(self) -> int:
        return self.k * (self.r + 1) + 1 + self.r

    @property
    def w_mask(self) -> VertexSet:
        return mask_of(self.w(i) for i in range(1, self.r + 1))

    def leaf_plus_w_mask(self, i: int) -> VertexSet:  # W_i = V_i + w_i
        return self.leaf_mask(i) | bit(self.w(i))


def _check_layout(layout: GkrLayout) -> None:
    k, r = layout.k, layout.r
    if k < 3:
        raise InputError(f"clique size k must be at least 3, got {k}")
    if not 1 <= r <= k - 1:
        raise InputError(f"leaf count r must satisfy 1 <= r <= k-1, got r={r}, k={k}")
    # Refused here, before the edge list (about k*k*r/2 pairs) is built.
    if layout.order > MAX_VERTICES:
        raise UnsupportedGraphError(
            f"k={k}, r={r} gives {layout.order} vertices; supported maximum is {MAX_VERTICES}"
        )


def _gkr_edges(layout: GkrLayout) -> list[tuple[int, int]]:
    k, r = layout.k, layout.r
    edges = []
    for j in range(1, k + 1):
        edges.append((layout.u0, layout.u(j)))
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            edges.append((layout.u(a), layout.u(b)))
    for i in range(1, r + 1):
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                edges.append((layout.v(i, a), layout.v(i, b)))
        for j in range(1, k + 1):
            edges.append((layout.u(j), layout.v(i, j)))
    return edges


def generate_gkr(k: int, r: int) -> tuple[Graph, GkrLayout]:
    layout = GkrLayout(k=k, r=r)
    _check_layout(layout)
    g = Graph.from_edges(layout.order, _gkr_edges(layout))
    return g, layout


def generate_qkr(k: int, r: int) -> tuple[Graph, QkrLayout]:
    layout = QkrLayout(k=k, r=r)
    _check_layout(layout)
    edges = _gkr_edges(layout)
    for i in range(1, r + 1):
        wi = layout.w(i)
        edges.append((layout.u0, wi))
        for j in range(1, k + 1):
            edges.append((layout.u(j), wi))
            edges.append((layout.v(i, j), wi))
    g = Graph.from_edges(layout.order, edges)
    return g, layout


def family_x(layout: GkrLayout) -> list[VertexSet]:
    """One vertex from the hub-plus-apex clique, one from each leaf clique."""
    hub_choices = [layout.u0] + [layout.u(j) for j in range(1, layout.k + 1)]
    leaf_choices = [
        [layout.v(i, j) for j in range(1, layout.k + 1)]
        for i in range(1, layout.r + 1)
    ]
    out = [
        mask_of((h, *vs))
        for h in hub_choices
        for vs in product(*leaf_choices)
    ]
    out.sort(key=canonical_key)
    return out


def family_w(layout: QkrLayout) -> list[VertexSet]:
    """One vertex per augmented leaf clique, at least one saturating vertex."""
    choices = [
        [layout.w(i)] + [layout.v(i, j) for j in range(1, layout.k + 1)]
        for i in range(1, layout.r + 1)
    ]
    w_all = layout.w_mask
    out = []
    for vs in product(*choices):
        m = mask_of(vs)
        if m & w_all:
            out.append(m)
    out.sort(key=canonical_key)
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    construction: str
    k: int
    r: int
    family_size: int
    gamma: int
    Gamma: int
    ok: bool  # every check passed
    checks: tuple[CheckResult, ...]

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _first_violation(
    layout: GkrLayout, sets: Iterable[VertexSet], bad: Callable[[VertexSet], object]
) -> tuple[bool, str]:
    """(True, "") when no set is bad, else (False, the first bad set in the paper's names)."""
    viol = next((d for d in sets if bad(d)), None)
    if viol is None:
        return True, ""
    return False, "{" + ",".join(map(layout.label, vertex_list(viol))) + "}"


def _forced_leaf_hits(
    g: Graph, layout: GkrLayout, leaf_masks: list[VertexSet], fmt: str
) -> tuple[bool, str]:
    """Check that every dominating set missing hub vertex u_j meets each leaf mask.

    Domination is upward closed, so a dominating set avoiding leaf mask i
    and u_j exists exactly when all other vertices dominate; such (leaf, hub)
    pairs are the violations, listed through `fmt`.
    """
    bad = [
        (i, j)
        for i, leaf in enumerate(leaf_masks, 1)
        for j in range(1, layout.k + 1)
        if is_dominating(g, g.full_mask & ~(leaf | bit(layout.u(j))))
    ]
    return not bad, fmt.format(bad) if bad else ""


def _structure_report(
    construction: str, layout: GkrLayout, fam: DomFamily, rows: list[tuple[str, tuple[bool, str]]]
) -> StructureReport:
    checks = tuple(CheckResult(name, passed, detail) for name, (passed, detail) in rows)
    return StructureReport(
        construction=construction,
        k=layout.k,
        r=layout.r,
        family_size=len(fam.sets),
        gamma=fam.gamma,
        Gamma=fam.Gamma,
        ok=all(c.passed for c in checks),
        checks=checks,
    )


def verify_gkr_structure(
    k: int, r: int, budget: Optional[Budget] = None
) -> StructureReport:
    """Mechanically check the structure of the minimal dominating sets of gkr."""
    g, layout = generate_gkr(k, r)
    fam = enumerate_minimal_dominating(g, budget)
    first = partial(_first_violation, layout, fam.sets)
    hub, hub_apex = layout.hub_mask, layout.hub_apex_mask
    leaves = [layout.leaf_mask(i) for i in range(1, r + 1)]
    expected = sorted(family_x(layout) + [hub], key=canonical_key)
    if r < k - 1:
        top = [d for d in fam.sets if popcount(d) == fam.Gamma]
        top_row = ("hub-is-unique-maximum-set", (top == [hub], f"{len(top)} maximum sets"))
    else:
        top_row = ("well-dominated-at-maximal-leaf-count",
                   (fam.gamma == fam.Gamma, f"gamma={fam.gamma}, Gamma={fam.Gamma}"))
    rows = [
        # Every dominating set meets the hub-plus-apex clique: equivalently
        # the vertices outside it do not dominate.
        ("dominating-sets-meet-hub-clique",
         (not is_dominating(g, g.full_mask & ~hub_apex), "")),
        ("missing-hub-vertex-forces-leaf-hits",
         _forced_leaf_hits(g, layout, leaves, "violations at (leaf,hub) pairs {}")),
        ("minimal-hits-each-leaf-clique-at-most-once",
         first(lambda d: any(popcount(d & lv) > 1 for lv in leaves))),
        ("apex-member-is-alone-in-hub-clique",
         first(lambda d: d & 1 and d & hub_apex != 1)),
        ("leaf-clique-missed-only-by-hub-set",
         first(lambda d: d != hub and any(d & lv == 0 for lv in leaves))),
        ("minimal-family-is-construction-family-plus-hub",
         (list(fam.sets) == expected,
          f"enumerated {len(fam.sets)} sets, expected {len(expected)}")),
        ("gamma-is-leaf-count-plus-one", (fam.gamma == r + 1, f"gamma={fam.gamma}")),
        ("Gamma-is-clique-size", (fam.Gamma == k, f"Gamma={fam.Gamma}")),
        top_row,
    ]
    return _structure_report("gkr", layout, fam, rows)


def verify_qkr_structure(
    k: int, r: int, budget: Optional[Budget] = None
) -> StructureReport:
    """Same style of checks for the saturated construction."""
    g, layout = generate_qkr(k, r)
    fam = enumerate_minimal_dominating(g, budget)
    first = partial(_first_violation, layout, fam.sets)
    hub, hub_apex, w_all = layout.hub_mask, layout.hub_apex_mask, layout.w_mask
    wleaves = [layout.leaf_plus_w_mask(i) for i in range(1, r + 1)]
    xs = family_x(layout)
    ws = family_w(layout)
    expected = sorted(xs + ws + [hub], key=canonical_key)
    min_sets = sorted((d for d in fam.sets if popcount(d) == fam.gamma), key=canonical_key)
    top = sorted((d for d in fam.sets if popcount(d) == fam.Gamma), key=canonical_key)
    if r < k - 1:
        top_row = ("hub-is-unique-maximum-set", (top == [hub], f"{len(top)} maximum sets"))
    else:
        expected_top = sorted(xs + [hub], key=canonical_key)
        top_row = ("maximum-sets-are-construction-family-plus-hub",
                   (top == expected_top, f"{len(top)} maximum sets, expected {len(expected_top)}"))
    # V_i + w_i + u_j = W_i + u_j: both forcing rows test the same sets.
    forced = _forced_leaf_hits(g, layout, wleaves, "violations at {}")
    rows = [
        ("dominating-sets-meet-hub-or-saturators",
         (not is_dominating(g, g.full_mask & ~(hub_apex | w_all)), "")),
        ("missing-hub-vertex-forces-augmented-leaf-hits", forced),
        ("missing-hub-and-saturator-forces-leaf-hits", forced),
        ("minimal-hits-each-augmented-leaf-at-most-once",
         first(lambda d: any(popcount(d & wl) > 1 for wl in wleaves))),
        ("apex-member-is-alone-in-hub-clique",
         first(lambda d: d & 1 and d & hub_apex != 1)),
        ("augmented-leaf-missed-only-by-hub-set",
         first(lambda d: d != hub and any(d & wl == 0 for wl in wleaves))),
        ("saturator-member-excludes-hub-clique",
         first(lambda d: d & w_all and d & hub_apex)),
        ("minimal-family-is-both-families-plus-hub",
         (list(fam.sets) == expected,
          f"enumerated {len(fam.sets)} sets, expected {len(expected)}")),
        ("gamma-is-leaf-count", (fam.gamma == r, f"gamma={fam.gamma}")),
        ("Gamma-is-clique-size", (fam.Gamma == k, f"Gamma={fam.Gamma}")),
        ("minimum-sets-are-saturator-family",
         (min_sets == ws, f"{len(min_sets)} minimum sets, expected {len(ws)}")),
        top_row,
    ]
    return _structure_report("qkr", layout, fam, rows)


# Stock families. `star(n)` is K_{1,n}: centre 0 plus n leaves. Edges are
# handed over lazily, so Graph.from_edges refuses an oversize n before any
# edge is built.


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star(n: int) -> Graph:
    if n < 1:
        raise InputError("star needs at least one leaf")
    return Graph.from_edges(n + 1, ((0, i) for i in range(1, n + 1)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
