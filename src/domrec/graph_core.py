"""Immutable bitmask graph kernel.

Vertex sets are plain ints used as bit vectors: bit v set means vertex v
is in the set. All domination / reconfiguration algorithms in this package
work on these masks, so the kernel stays allocation-free on the hot paths.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Iterator, TypeAlias

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
        if not isinstance(self.n, int) or not all(isinstance(row, int) for row in self.adj):
            raise UnsupportedGraphError("the vertex count and every adjacency row must be an int")
        _check_order(self.n)
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

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_vertices(self.adj[v]):
                if u > v:
                    out.append((v, u))
        return out

    @staticmethod
    def _trusted(n: int, adj: tuple[VertexSet, ...]) -> "Graph":
        """Build without the __post_init__ checks; the caller has made them."""
        g = object.__new__(Graph)
        g.__dict__.update(n=n, adj=adj, closed=tuple([row | 1 << v for v, row in enumerate(adj)]))
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] = (), *, pairs: int = 0) -> "Graph":
        """Build a graph from an edge list and a pair bit set, rejecting
        loops and multi-edges.

        pairs holds one bit per vertex pair in graph6's order: bit
        j(j-1)/2 + i, for i < j, is the pair (i, j). So the j bits from
        j(j-1)/2 on are column j, the low part of row j, and each set bit i
        of column j also puts j in row i: only set bits cost a step, and
        none can be a loop, a repeat or out of range. A set bit past the
        last pair is refused. The edges are then added one by one.

        The checks here imply every __post_init__ check (n in range, ids
        below n, no loop, symmetric rows), so the graph skips them. A bad
        input is named only once the code below raises, so the try costs
        nothing while nothing is raised. A ValueError is an edge of
        another length. A TypeError is a non-int pairs, n or id, or else,
        with n and the last edge read (u, v) all ints, edges or one of its
        items not being iterable.
        """
        u = v = 0
        try:
            _check_order(n)
            if pairs >> n * (n - 1) // 2:
                raise UnsupportedGraphError(
                    f"pair bits beyond the {n * (n - 1) // 2} pairs of n={n}"
                )
            adj = [0] * n
            j = 0
            while pairs:
                j += 1
                col = pairs & ~(-1 << j)
                pairs >>= j
                adj[j] = col
                vertex_j = 1 << j
                while col:
                    low = col & -col
                    adj[low.bit_length() - 1] |= vertex_j
                    col ^= low
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise UnsupportedGraphError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise UnsupportedGraphError(f"self-loop at vertex {u}")
                if adj[u] & 1 << v:
                    raise UnsupportedGraphError(f"multi-edge {(min(u, v), max(u, v))}")
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        except ValueError:
            raise UnsupportedGraphError("every edge must be a pair of vertex ids") from None
        except TypeError:
            if not isinstance(pairs, int):
                raise UnsupportedGraphError(
                    f"pairs must be an int, got {type(pairs).__name__}"
                ) from None
            if not all(isinstance(x, int) for x in (n, u, v)):
                raise UnsupportedGraphError(
                    "the vertex count and every edge endpoint must be an int"
                ) from None
            if not isinstance(edges, Iterable):
                raise UnsupportedGraphError(
                    f"edges must be an iterable of pairs, got {type(edges).__name__}"
                ) from None
            raise UnsupportedGraphError("every edge must be a pair of vertex ids") from None
        return Graph._trusted(n, tuple(adj))


def _check_order(n: int) -> None:
    """Refuse a vertex count outside 1..MAX_VERTICES; every way to build a Graph asks."""
    if n <= 0:
        raise UnsupportedGraphError("graph must have at least one vertex")
    if n > MAX_VERTICES:
        raise UnsupportedGraphError(f"graph has {n} vertices; supported maximum is {MAX_VERTICES}")


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
