"""k-dominating graphs: construction, connectivity thresholds, paths, diameters.

The vertex set of D_k(G) is every dominating set of G with at most k
elements; two sets are adjacent when one is the other plus a single vertex.
Edges therefore always join consecutive cardinality layers, which makes
D_k(G) bipartite by cardinality parity and lets connectivity be tracked
incrementally with a union-find as layers are added.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Optional

from .graph_core import (
    Graph,
    InputError,
    VertexSet,
    bit,
    is_dominating,
    iter_vertices,
    popcount,
)
from .domination import Budget, dominating_sets_upto, enumerate_minimal_dominating


@dataclass(frozen=True)
class ReconfigGraph:
    """Explicit D_k(G): canonical vertex order, index-pair edges."""

    k: int
    n: int  # vertex count of the base graph, for label rendering
    verts: tuple[VertexSet, ...]
    edges: tuple[tuple[int, int], ...]
    component_count: int

    def order(self) -> int:
        return len(self.verts)

    def size(self) -> int:
        return len(self.edges)

    @property
    def connected(self) -> bool:
        return self.component_count == 1 and len(self.verts) > 0

    def adjacency(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.verts]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        for row in out:
            row.sort()
        return out


@dataclass(frozen=True)
class ProfileEntry:
    k: int
    order: int
    size: int
    connected: bool
    component_count: int


@dataclass(frozen=True)
class ConnectivityProfile:
    gamma: int
    n: int
    entries: tuple[ProfileEntry, ...]


class _DSU:
    def __init__(self) -> None:
        self.parent: list[int] = []
        self.size: list[int] = []
        self.components = 0

    def add(self) -> int:
        idx = len(self.parent)
        self.parent.append(idx)
        self.size.append(1)
        self.components += 1
        return idx

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


def _edges_and_components(
    verts: list[VertexSet],
) -> tuple[list[tuple[int, int]], int]:
    index = {m: i for i, m in enumerate(verts)}
    dsu = _DSU()
    for _ in verts:
        dsu.add()
    edges: list[tuple[int, int]] = []
    for idx, mask in enumerate(verts):
        for v in iter_vertices(mask):
            prev = index.get(mask ^ bit(v))
            if prev is not None:
                edges.append((prev, idx))
                dsu.union(prev, idx)
    edges.sort()
    return edges, dsu.components


def build_dk(g: Graph, k: int, budget: Optional[Budget] = None) -> ReconfigGraph:
    """Construct D_k(G) exactly. k below gamma gives an empty graph."""
    verts = dominating_sets_upto(g, k, budget) if k >= 0 else []
    edges, components = _edges_and_components(verts)
    return ReconfigGraph(
        k=k,
        n=g.n,
        verts=tuple(verts),
        edges=tuple(edges),
        component_count=components if verts else 0,
    )


def _layered_connectivity(all_sets: list[VertexSet]) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, order, size, components) for each cardinality layer k.

    all_sets must be canonically ordered; no size is skipped, since supersets
    of a dominating set dominate. Union-find state is cumulative: after layer
    k is merged the component count is exactly that of D_k. Layers are
    merged lazily, so a caller that stops early skips the rest.
    """
    index = {m: i for i, m in enumerate(all_sets)}
    dsu = _DSU()
    edge_total = 0
    for k, layer in groupby(all_sets, popcount):
        for mask in layer:
            idx = dsu.add()
            for v in iter_vertices(mask):
                prev = index.get(mask ^ bit(v))
                if prev is not None:
                    edge_total += 1
                    dsu.union(prev, idx)
        yield k, len(dsu.parent), edge_total, dsu.components


def connectivity_profile(g: Graph, budget: Optional[Budget] = None) -> ConnectivityProfile:
    """Order/size/connectivity of D_k(G) for every k from gamma to n."""
    all_sets = dominating_sets_upto(g, g.n, budget)
    entries = tuple(
        ProfileEntry(k=k, order=order, size=size, connected=comps == 1, component_count=comps)
        for k, order, size, comps in _layered_connectivity(all_sets)
    )
    gamma = popcount(all_sets[0]) if all_sets else 0
    return ConnectivityProfile(gamma=gamma, n=g.n, entries=entries)


def d0_direct(g: Graph, budget: Optional[Budget] = None) -> int:
    """Smallest j such that D_k(G) is connected for every k >= j.

    Returns the first k > Gamma at which D_k(G) is connected; connectivity
    is monotone from Gamma on, and the union-find stops there. D_Gamma
    itself is always disconnected, so the threshold is never lower: a
    Gamma-set is isolated in it, and a graph with an edge has at least two
    minimal dominating sets.

    This is the independent oracle for d0, not the fast route: d0 equals
    the separation sep (proof in separation.py), so `hunt` filters on
    sep_bottleneck and runs this scan only to re-verify every hit.
    """
    if all(row == 0 for row in g.adj):
        raise InputError("d_0 requires a graph with at least one edge")
    budget = budget or Budget.resolve()
    fam = enumerate_minimal_dominating(g, budget)
    # Gamma + gamma bounds d0, but the oracle does not trust it: it rescans up to n.
    for cap in (min(g.n, fam.Gamma + fam.gamma), g.n):
        for k, _order, _size, comps in _layered_connectivity(dominating_sets_upto(g, cap, budget)):
            if k > fam.Gamma and comps == 1:
                return k
    raise InputError("D_n(G) reported disconnected; graph state inconsistent")


def reconfig_path(
    g: Graph,
    a: VertexSet,
    b: VertexSet,
    k: int,
    budget: Optional[Budget] = None,
) -> Optional[list[VertexSet]]:
    """Shortest add/remove sequence between two dominating sets inside D_k.

    Returns None when a and b lie in different components. Ties are broken
    toward the lowest canonical-order neighbour, so output is deterministic.
    """
    for name, s in (("from", a), ("to", b)):
        if not is_dominating(g, s):
            raise InputError(f"'{name}' endpoint is not a dominating set")
        if popcount(s) > k:
            raise InputError(f"'{name}' endpoint has cardinality above k={k}")
    rg = build_dk(g, k, budget)
    index = {m: i for i, m in enumerate(rg.verts)}
    src, dst = index[a], index[b]
    if src == dst:
        return [a]
    adjacency = rg.adjacency()
    parent: dict[int, int] = {src: -1}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            break
        for nb in adjacency[cur]:
            if nb not in parent:
                parent[nb] = cur
                queue.append(nb)
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return [rg.verts[i] for i in path]


def dk_diameter(rg: ReconfigGraph) -> Optional[int]:
    """Diameter of a connected D_k; None when disconnected."""
    if not rg.verts:
        raise InputError("diameter of an empty reconfiguration graph is undefined")
    if not rg.connected:
        return None
    adjacency = rg.adjacency()
    best = 0
    for start in range(len(rg.verts)):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nb in adjacency[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        best = max(best, max(dist.values()))
    return best


def is_parity_bipartite(rg: ReconfigGraph) -> bool:
    """Every edge joins sets whose cardinalities differ by exactly one."""
    return all(
        abs(popcount(rg.verts[a]) - popcount(rg.verts[b])) == 1 for a, b in rg.edges
    )
