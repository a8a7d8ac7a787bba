"""k-dominating graphs: construction, connectivity thresholds, paths, diameters.

The vertex set of D_k(G) is every dominating set of G with at most k
elements; two sets are adjacent when one is the other plus a single vertex.
Edges therefore always join consecutive cardinality layers, which makes
D_k(G) bipartite by cardinality parity and lets connectivity be tracked
incrementally with a union-find as layers are added. That union-find is
the independent route (d0_direct); `dk`, `path` and `profile` need none
of it.

Order and size. Let c_j count the dominating sets of size j. Every
superset of a dominating set dominates, so a set T of size j has n - j
neighbours T + v, all in D_k when j < k. Each edge {T, T + v} is counted
once, from its smaller end T, so

  order(D_k) = sum of c_j over j <= k,   size(D_k) = sum of c_j (n - j) over j < k.

Components. Let F be the minimal family, F_k its sets of size <= k, and
U_k the graph on F_k with X ~ Y when |X u Y| <= k. For every k >= gamma
the components of D_k correspond one to one with those of U_k, by the
steps of the d0 = sep proof in separation.py:

  Every S in D_k reaches each of its minimal subsets by single deletions
  that keep it dominating. Any two minimal subsets of one S have their
  union inside S, so they are adjacent in U_k; an edge from S to S + v
  keeps the minimal subsets of S. So the minimal subsets of one component
  of D_k lie in one component of U_k. Conversely X ~ Y are joined in D_k
  through X u Y, which dominates and has at most k elements.

Take a minimum spanning tree of the pair weights w(X, Y) = |X u Y| over
all of F. By the threshold property of minimum spanning trees, its edges
of weight <= k span each component of the graph on F with edges of
weight <= k, so that graph has 1 + #{tree edges of weight > k}
components. A set X with |X| > k is isolated there, since every weight is
at least both set sizes, and it is not in F_k. Hence

  components(D_k) = 1 + #{tree edges of weight > k} - #{X in F : |X| > k}.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from .graph_core import (
    Graph,
    InputError,
    VertexSet,
    bit,
    is_dominating,
    iter_vertices,
    popcount,
    vertex_list,
)
from .domination import (
    Budget,
    DomFamily,
    _dominating_layers,
    _require_at_least_two,
    _dominating_set_counts,
    dominating_sets_upto,
    enumerate_minimal_dominating,
)

# Maps the text of bin() to one byte per digit: 0 for "0" and "b", 1 for "1".
_BINARY_DIGITS = bytes.maketrans(b"0b1", b"\0\0\1")
# The complement on the digits: 1 for "0", 0 for "b" and "1".
_LACKING_DIGITS = bytes.maketrans(b"0b1", b"\1\0\0")

# Sources per bit-parallel BFS in dk_diameter; memory is O(order * block) bits.
_DIAMETER_BLOCK = 4096


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
    profile: tuple[ProfileEntry, ...]


def _edges(verts: list[VertexSet]) -> list[tuple[int, int]]:
    """Index pairs (T, T + v) of canonically ordered sets, sorted."""
    index = {m: i for i, m in enumerate(verts)}
    edges: list[tuple[int, int]] = []
    for idx, mask in enumerate(verts):
        for v in iter_vertices(mask):
            prev = index.get(mask ^ bit(v))
            if prev is not None:
                edges.append((prev, idx))
    edges.sort()
    return edges


def _component_counter(g: Graph, budget: Optional[Budget]) -> Callable[[int], int]:
    """k -> number of components of D_k(G).

    Read off the spanning tree of the minimal family by the identity in
    the module docstring. Below gamma every tree edge and every set counts,
    so it gives 0 for the empty D_k.
    """
    sets = enumerate_minimal_dominating(g, budget).sets
    weights = [w for w, _, _ in _prim_tree(sets)]
    sizes = [popcount(s) for s in sets]
    return lambda k: 1 + sum(w > k for w in weights) - sum(c > k for c in sizes)


def build_dk(g: Graph, k: int, budget: Optional[Budget] = None) -> ReconfigGraph:
    """Construct D_k(G) exactly. k below gamma gives an empty graph."""
    verts = dominating_sets_upto(g, k, budget) if k >= 0 else []
    return ReconfigGraph(
        k=k,
        n=g.n,
        verts=tuple(verts),
        edges=tuple(_edges(verts)),
        component_count=_component_counter(g, budget)(k) if verts else 0,
    )


def _layered_connectivity(
    layers: Iterable[tuple[int, Iterable[VertexSet]]]) -> Iterator[tuple[int, int]]:
    """Yield (k, components) for each (k, layer of k-sets) given.

    Layers come by size, ascending; no size is skipped, since supersets of a
    dominating set dominate. Every edge of D_k joins a set to one with a
    single vertex fewer, so each set is merged with the labels of its
    one-smaller neighbours, already seen. label maps each set seen to a
    union-find node, and root[x] is x's parent node, shortened by path
    halving on every find. A set takes its first neighbour's root as its
    label, and opens a new node only when it has no neighbour below, that is
    when it is a minimal dominating set. State is cumulative: after layer k
    the component count is exactly that of D_k. Layers are merged lazily,
    so a caller that stops early skips the rest.
    """
    label: dict[VertexSet, int] = {}
    root: list[int] = []
    components = 0
    for k, layer in layers:
        for mask in layer:
            c = -1
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                d = label.get(mask ^ low)
                if d is None:
                    continue
                while root[d] != d:
                    root[d] = d = root[root[d]]
                if c < 0:
                    c = d
                elif d != c:
                    root[d] = c
                    components -= 1
            if c < 0:
                c = len(root)
                root.append(c)
                components += 1
            label[mask] = c
        yield k, components


def _packed(sets: tuple[VertexSet, ...]) -> tuple[int, bytes, int, Callable[[int, int], int]]:
    """One byte per member, so that one member's union sizes with all come at once.

    Returns (ones, sizes, size, beyond). Member Y_i owns byte i of each
    little-endian int, and ones holds 1 in every byte. sizes holds |Y_i|
    as byte i, and size is the same as an int. beyond(x, start) is start
    plus |Y_x - Y_i| in byte i for every i, so beyond(x, size) holds
    |Y_i| + |Y_x - Y_i| = |Y_x u Y_i|.

    lacks[j] holds 1 where Y_i lacks the vertex of binary digit j, and
    bin(top | Y_i) puts that digit at the same offset for every i; beyond
    sums lacks[j] over the digits of Y_x. That is |Y_x| whole-int
    additions, all in C; no pair is formed on its own. The sizes are the
    digit count less the sum of all lacks[j].

    Field range: every union size is at most graph_core.MAX_VERTICES = 64,
    so a caller may hold values up to 127 per byte with no carry or
    borrow between members, or up to 126 with a guard bit 0x80 above them.
    """
    m = len(sets)
    ones = int.from_bytes(b"\1" * m, "little")
    # bin(top | s) is "0b1" and then one digit per vertex, at the same offsets for every s.
    top = 1 << max(sets).bit_length()
    width = top.bit_length() + 2
    text = "".join(map(bin, map(top.__or__, sets))).encode()
    digits = text.translate(_BINARY_DIGITS)
    holes = text.translate(_LACKING_DIGITS)
    lacks = [int.from_bytes(holes[j::width], "little") for j in range(3, width)]
    size = (width - 3) * ones - sum(lacks)

    def beyond(x: int, start: int) -> int:
        at = x * width
        return sum(compress(lacks, digits[at + 3:at + width]), start)

    return ones, size.to_bytes(m, "little"), size, beyond


def _prim_tree(sets: tuple[VertexSet, ...]) -> list[tuple[int, int, int]]:
    """Minimum spanning tree of the pair weights |X u Y|, by Prim's algorithm.

    Returns (weight, parent, child) edges in insertion order, parents
    before children, rooted at index 0. The sets must be distinct, as the
    members of a minimal family are.

    Packed layout (_packed): dist holds Y_i's distance to the tree in
    byte i, 0 once Y_i is taken. For the set X just taken, beyond gives
    |X u Y_i| for all i at once.

    Guard: weights stay below 127, so the guard bit 0x80 of
    (dist | 0x80..) - (w + 1) is set in exactly the bytes where w < dist.
    Those members take w as their distance and X as their parent; no
    other member changes.

    Tie-break: the next member is the first byte of dist equal to the
    smallest weight present, tried upward from min |Y_i| + 1 (distinct
    sets are at least that far apart). Taken members hold 0, which is
    never tried, so this is the lowest index at the smallest distance, and
    a parent changes only on a strict decrease: the tree of the plain
    O(m^2) loop, edge for edge.

    Cost: O(m Gamma) whole-int operations and memchr scans over m bytes,
    all in C; no pair weight is formed on its own. The Python-level work
    is O(m Gamma): each member changes parent fewer than 2 Gamma times,
    because its distance only falls and stays above gamma.
    """
    m = len(sets)
    if m < 2:
        return []
    ones, sizes, size, beyond = _packed(sets)
    guard = ones << 7
    weights = range(min(sizes) + 1, 127)
    # Member 0 is the root: its own byte, |Y_0 u Y_0| = |Y_0|, drops to 0.
    dist = beyond(0, size) - sizes[0]
    size_plus_one = size + ones
    parent = [0] * m
    tree: list[tuple[int, int, int]] = []
    for _ in range(m - 1):
        find = dist.to_bytes(m, "little").find
        for wt in weights:
            nxt = find(wt)
            if nxt >= 0:
                break
        dist -= wt << 8 * nxt
        tree.append((wt, parent[nxt], nxt))
        w_plus_one = beyond(nxt, size_plus_one)
        closer = ((dist | guard) - w_plus_one) & guard
        if closer:
            dist ^= (dist ^ (w_plus_one - ones)) & ((closer >> 7) * 255)
            flags = closer.to_bytes(m, "little")
            j = flags.find(128)
            while j >= 0:
                parent[j] = nxt
                j = flags.find(128, j + 1)
    return tree


def connectivity_profile(g: Graph, budget: Optional[Budget] = None) -> ConnectivityProfile:
    """Order/size/connectivity of D_k(G) for every k from gamma to n.

    Read off per-size counts of dominating sets and the spanning tree of
    the minimal family (identities in the module docstring), so no
    dominating set is listed.
    """
    budget = budget or Budget.resolve()
    counts = _dominating_set_counts(g, budget)
    components = _component_counter(g, budget)
    entries = []
    order = size = 0
    for k, count in enumerate(counts):
        order += count
        if order:
            comps = components(k)
            entries.append(ProfileEntry(k=k, order=order, size=size, connected=comps == 1,
                                        component_count=comps))
        size += count * (g.n - k)
    gamma = entries[0].k if entries else 0
    return ConnectivityProfile(gamma=gamma, n=g.n, profile=tuple(entries))


def d0_direct(
    g: Graph, budget: Optional[Budget] = None, *, family: Optional[DomFamily] = None
) -> int:
    """Smallest j such that D_k(G) is connected for every k >= j.

    Returns the first k > Gamma at which D_k(G) is connected; connectivity
    is monotone from Gamma on, and the layers, streamed with no cap, stop
    there. D_Gamma itself is always disconnected, so the threshold is never
    lower: a Gamma-set is isolated in it, and a graph with an edge has at
    least two minimal dominating sets.

    This is the independent oracle for d0, not the fast route: d0 equals
    the separation sep (proof in separation.py), so `domrec d0` and `hunt`
    read it off sep_bottleneck. This scan runs for `d0 --method direct`
    and `both`, and to re-verify every `hunt` hit.

    family is g's minimal family when the caller already holds it, and is
    enumerated when omitted; a family of one set (edgeless g) is refused.
    """
    budget = budget or Budget.resolve()
    fam = family if family is not None else enumerate_minimal_dominating(g, budget)
    _require_at_least_two(fam)
    for k, comps in _layered_connectivity(_dominating_layers(g, g.n, budget)):
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

    Returns None when a and b lie in different components. Breadth-first
    search over D_k without listing it: the neighbours of S are the
    removals S - v, for v descending, that still dominate, then the
    additions S + v, for v ascending, while |S| < k. Canonical order sorts
    by size, then by mask, and S - v grows as v falls, so that is the
    canonical order of S's neighbours: each set is reached first from the
    lowest canonical-order neighbour, as in a search over sorted adjacency
    lists of the explicit D_k. The search stops as soon as it reaches b,
    and otherwise visits a's component only.

    S - v dominates iff every vertex of N[v] is covered twice by S: once
    by v and once by another member.
    """
    for name, s in (("from", a), ("to", b)):
        if not is_dominating(g, s):
            raise InputError(f"'{name}' endpoint is not a dominating set")
        if popcount(s) > k:
            raise InputError(f"'{name}' endpoint has cardinality above k={k}")
    (budget or Budget.resolve()).check(g, "dominating set enumeration")
    closed, full = g.closed, g.full_mask
    parent = {a: a}
    queue = deque([a])
    while b not in parent:
        if not queue:
            return None
        cur = queue.popleft()
        members = vertex_list(cur)
        once = twice = 0
        for u in members:
            twice |= once & closed[u]
            once |= closed[u]
        nbrs = [cur ^ 1 << v for v in reversed(members) if not closed[v] & ~twice]
        if len(members) < k:
            nbrs += [cur | 1 << v for v in iter_vertices(full ^ cur)]
        for nb in nbrs:
            if nb not in parent:
                parent[nb] = cur
                queue.append(nb)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def dk_diameter(rg: ReconfigGraph) -> Optional[int]:
    """Diameter of a connected D_k; None when disconnected.

    Breadth-first search from a block of sources at once: bit s of
    reach[v] is set once v is within the rounds run so far of the block's
    source s, and each round ORs every vertex's neighbours into it. The
    rounds a block needs until every reach[v] is full is the largest
    eccentricity of its sources.
    """
    if not rg.verts:
        raise InputError("diameter of an empty reconfiguration graph is undefined")
    if not rg.connected:
        return None
    adjacency = rg.adjacency()
    order = len(rg.verts)
    best = 0
    for lo in range(0, order, _DIAMETER_BLOCK):
        width = min(_DIAMETER_BLOCK, order - lo)
        full = (1 << width) - 1
        reach = [0] * order
        for s in range(width):
            reach[lo + s] = 1 << s
        rounds = 0
        while reach.count(full) < order:
            reach = [reduce(or_, map(reach.__getitem__, nbrs), r)
                     for r, nbrs in zip(reach, adjacency)]
            rounds += 1
        best = max(best, rounds)
    return best
