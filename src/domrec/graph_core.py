"""Immutable bitmask graph kernel.

Vertex sets are plain ints used as bit vectors: bit v set means vertex v
is in the set. All domination / reconfiguration algorithms in this package
work on these masks, so the kernel stays allocation-free on the hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, TypeAlias

VertexSet: TypeAlias = int

# Build-scale width cap. Inputs above it are rejected loudly, never truncated.
MAX_VERTICES = 64


class DomrecError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DomrecError):
    """A precondition on user-supplied data was violated."""


class UnsupportedGraphError(InputError):
    """Graph outside the supported shape (empty, too wide, loops, ...)."""


class BudgetError(DomrecError):
    """An enumeration limit was hit; the message names the limit."""


def bit(v: int) -> VertexSet:
    return 1 << v


def popcount(mask: VertexSet) -> int:
    return mask.bit_count()


def iter_vertices(mask: VertexSet) -> Iterator[int]:
    """Yield the vertex ids in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_list(mask: VertexSet) -> list[int]:
    return list(iter_vertices(mask))


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def canonical_key(mask: VertexSet) -> tuple[int, int]:
    """Sort key ordering sets by cardinality, then bit order (LSB first)."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with precomputed closed-neighbourhood masks.

    Immutable after construction; safe to share across threads/processes.
    Vertex ids are dense 0..n-1.
    """

    n: int
    adj: tuple[VertexSet, ...]
    closed: tuple[VertexSet, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise UnsupportedGraphError("graph must have at least one vertex")
        if self.n > MAX_VERTICES:
            raise UnsupportedGraphError(
                f"graph has {self.n} vertices; supported maximum is {MAX_VERTICES}"
            )
        if len(self.adj) != self.n:
            raise UnsupportedGraphError("adjacency length does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise UnsupportedGraphError(f"adjacency of vertex {v} mentions ids >= n")
            if row & bit(v):
                raise UnsupportedGraphError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in iter_vertices(self.adj[v]):
                if not self.adj[u] & bit(v):
                    raise UnsupportedGraphError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "closed", tuple(self.adj[v] | bit(v) for v in range(self.n)))

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_vertices(self.adj[v]):
                if u > v:
                    out.append((v, u))
        return out

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & bit(v))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and multi-edges."""
        if n <= 0:
            raise UnsupportedGraphError("graph must have at least one vertex")
        if n > MAX_VERTICES:
            raise UnsupportedGraphError(
                f"graph has {n} vertices; supported maximum is {MAX_VERTICES}"
            )
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnsupportedGraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise UnsupportedGraphError(f"self-loop at vertex {u}")
            if adj[u] & bit(v):
                raise UnsupportedGraphError(f"multi-edge {(min(u, v), max(u, v))}")
            adj[u] |= bit(v)
            adj[v] |= bit(u)
        return Graph(n=n, adj=tuple(adj))


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff the closed neighbourhoods of s cover every vertex.

    The empty set dominates nothing (empty graphs are rejected upstream).
    """
    if s & ~g.full_mask:
        raise InputError("set mentions vertices outside the graph")
    cover = 0
    full = g.full_mask
    for v in iter_vertices(s):
        cover |= g.closed[v]
        if cover == full:
            return True
    return cover == full


def private_neighbours(g: Graph, v: int, d: VertexSet) -> VertexSet:
    """Vertices dominated by v and by no other member of d.

    v itself is included whenever no other member of d covers it.
    """
    if d & ~g.full_mask:
        raise InputError("set mentions vertices outside the graph")
    if not d & bit(v):
        raise InputError(f"vertex {v} is not a member of the set")
    others_cover = 0
    for u in iter_vertices(d & ~bit(v)):
        others_cover |= g.closed[u]
    return g.closed[v] & ~others_cover


def is_minimal_dominating(g: Graph, d: VertexSet) -> bool:
    """Dominating, and every member keeps a private neighbour."""
    if not is_dominating(g, d):
        return False
    for v in iter_vertices(d):
        if private_neighbours(g, v, d) == 0:
            return False
    return True


def is_irredundant(g: Graph, x: VertexSet) -> bool:
    """Every member of x has a private neighbour relative to x (x = {} passes)."""
    if x & ~g.full_mask:
        raise InputError("set mentions vertices outside the graph")
    for v in iter_vertices(x):
        if private_neighbours(g, v, x) == 0:
            return False
    return True


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets id u * h.n + v."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise UnsupportedGraphError(
            f"product order {n} exceeds supported maximum {MAX_VERTICES}"
        )
    edges = []
    for u in range(g.n):
        for v1, v2 in h.edges():
            edges.append((u * h.n + v1, u * h.n + v2))
    for v in range(h.n):
        for u1, u2 in g.edges():
            edges.append((u1 * h.n + v, u2 * h.n + v))
    return Graph.from_edges(n, edges)


def is_connected(g: Graph) -> bool:
    """BFS reachability from vertex 0 over closed-neighbourhood masks."""
    seen = bit(0)
    frontier = bit(0)
    while frontier:
        nxt = 0
        for v in iter_vertices(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full_mask
