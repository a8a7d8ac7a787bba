"""k-dominating graphs: construction, connectivity thresholds, paths, diameters.

The vertex set of D_k(G) is every dominating set of G with at most k
elements; two sets are adjacent when one is the other plus a single vertex.
Edges therefore always join consecutive cardinality layers, which makes
D_k(G) bipartite by cardinality parity.

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

One layer. Call two s-sets a swap apart when they share s - 1 elements,
and let L_s be the dominating sets of size exactly s. For every k > gamma,

  components(D_k) = swap components of L_{k-1} + #{X in F : |X| = k}.

  Every set of D_k below size k - 1 grows into L_{k-1} by additions. A
  k-set S either is minimal, so isolated in D_k (no deletion keeps it
  dominating, no addition stays in D_k), or has a dominating (k-1)-subset.
  Two (k-1)-sets a swap apart are joined through their union, a k-set
  that dominates. Conversely take a path in D_k between two sets of
  L_{k-1}. While it dips below k - 1, its lowest set S sits in a valley
  S + a, S, S + b with |S| <= k - 2; replace S by S + a + b, which
  dominates and has at most k elements, or drop the detour when a = b.
  Each step shortens the path or raises a size by 2, never above k, so
  this ends with the path on layers k - 1 and k, where consecutive
  (k-1)-sets share a k-superset and are a swap apart. L_{k-1} is not
  empty, as k - 1 >= gamma.

For k > Gamma no minimal set has size k, so D_k is connected iff L_{k-1}
is swap-connected. Connectivity is monotone from Gamma on: each
(k+1)-set has a dominating k-subset, since a minimal subset has at most
Gamma <= k elements, so a connected D_k, an induced subgraph of D_{k+1},
reaches all of it. D_Gamma is disconnected when F has two sets: both lie
in it, and a minimal set of size Gamma is isolated there. So d0 = 1 + the
first s >= Gamma with L_s swap-connected.

Layer to layer. Let Gamma < s < n. The swap components of L_s are those of
L_{s-1}, joined through the (s-1)-sets that do not dominate:

  Each X in L_s is not minimal, as s > Gamma, so it has a dominating
  (s-1)-subset. Any two (s-1)-subsets of X share s - 2 elements, so they
  are a swap apart and lie in one component c(X) of L_{s-1}. Every
  component of L_{s-1} is some c(X): each of its sets grows by a vertex
  into L_s. If c(X) = c(Y), take dominating A in X and B in Y and a swap
  path A = A_0, ..., A_m = B in L_{s-1}; then X, A_0 u A_1, ...,
  A_{m-1} u A_m, Y lie in L_s, and consecutive ones share an (s-1)-set,
  so X and Y are swap-connected. Conversely X and Y a swap apart share K
  = X n Y; when K dominates, c(X) = c(K) = c(Y). So only a key K that does
  not dominate, shared by two s-sets, can join two components of L_{s-1}.

d0_direct reads layer Gamma with a plain union-find, since there a minimal
set has no dominating subset and opens a node of its own. Above Gamma each
set takes the node of a dominating subset and no set opens one, so the
count starts at the components of L_{s-1} and falls by one per join of two
nodes. The joins still to come only lower it, and it cannot fall below 1,
so it is exact mid-layer as soon as it reaches 1: layer d0 - 1 is read
only up to its first bridge, and no set of size d0 or more is listed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional

from .graph_core import (
    Graph,
    InputError,
    VertexSet,
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
# _prim_tree looks for settled members every lanes / _RETIRE_EVERY steps while it
# holds at least _LANE_FLOOR lanes; a smaller family is never packed again.
_LANE_FLOOR = 256
_RETIRE_EVERY = 16


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
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            prev = index.get(mask ^ low)
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


def _swap_components(layer: list[VertexSet]) -> tuple[int, list[int]]:
    """Components of one layer of s-sets, X ~ Y when |X n Y| = s - 1, and the union-find.

    Two s-sets differ by one swap exactly when they share an (s-1)-subset,
    so the union-find is keyed on those: owner maps each (s-1)-subset seen
    to the first set that had it, and root[i] is set i's parent, shortened
    by path halving on every find. The set being read stays the root: each
    older tree met through a shared subset is hung below it. Order within
    the layer does not matter. Returns (components, root).
    """
    owner: dict[VertexSet, int] = {}
    root: list[int] = []
    for i, mask in enumerate(layer):
        root.append(i)
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            d = owner.setdefault(mask ^ low, i)
            while root[d] != d:
                root[d] = d = root[root[d]]
            root[d] = i
    return sum(r == i for i, r in enumerate(root)), root


def _lifted_components(layer: Iterable[VertexSet], below: dict[VertexSet, int],
                       root: list[int], components: int) -> tuple[int, dict[VertexSet, int]]:
    """Swap components of a layer of s-sets, s > Gamma, lifted from the layer below.

    below maps each set of the layer of (s-1)-sets to a node of the
    union-find root, whose components are that layer's. Each s-set X takes
    the node of a dominating (s-1)-subset, and the keys X - x that do not
    dominate, missing from below, join X's node to the first set that had
    them (owner), as in _swap_components. No set opens a node, so the count
    only falls, and it is exact as soon as it reaches 1: the layer is read
    no further then. Proof in the module docstring. Returns (components,
    here), here mapping each s-set to its node when the layer was read whole.
    """
    owner: dict[VertexSet, int] = {}
    here: dict[VertexSet, int] = {}
    for mask in layer:
        node = -1
        lone = []  # the keys that do not dominate
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            d = below.get(mask ^ low, -1)
            if d < 0:
                lone.append(mask ^ low)
            elif node < 0:
                node = d
        while root[node] != node:
            root[node] = node = root[root[node]]
        for key in lone:
            d = owner.setdefault(key, node)
            while root[d] != d:
                root[d] = d = root[root[d]]
            if d != node:
                root[d] = node
                components -= 1
                if components == 1:
                    return 1, here
        here[mask] = node
    return components, here


def _packed(
    sets: tuple[VertexSet, ...], lanes: Optional[int] = None
) -> tuple[int, bytes, int, Callable[[int, int], int]]:
    """One byte per member, so that one member's union sizes with all come at once.

    Returns (ones, sizes, size, beyond). The first `lanes` members (all by
    default) own a lane: member Y_i owns byte i of each little-endian int,
    and ones holds 1 in every lane. sizes holds |Y_i| as byte i, and size
    is the same as an int. beyond(x, start) is start plus |Y_x - Y_i| in
    byte i for every lane i, so beyond(x, size) holds |Y_i| + |Y_x - Y_i|
    = |Y_x u Y_i|. x may be any member, with a lane or not.

    lacks[j] holds 1 where Y_i lacks the vertex of binary digit j, and
    bin(top | Y_i) puts that digit at the same offset for every i; beyond
    sums lacks[j] over the digits of Y_x. That is |Y_x| whole-int
    additions, all in C; no pair is formed on its own. The sizes are the
    digit count less the sum of all lacks[j].

    Field range: every union size is at most graph_core.MAX_VERTICES = 64,
    so a caller may hold values up to 127 per byte with no carry or
    borrow between members, or up to 126 with a guard bit 0x80 above them.
    """
    m = len(sets) if lanes is None else lanes
    ones = int.from_bytes(b"\1" * m, "little")
    # bin(top | s) is "0b1" and then one digit per vertex, at the same offsets for every s.
    top = 1 << max(sets).bit_length()
    width = top.bit_length() + 2
    text = "".join(map(bin, map(top.__or__, sets))).encode()
    digits = text.translate(_BINARY_DIGITS)
    holes = text[:m * width].translate(_LACKING_DIGITS)
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
    members of a minimal family are. The edges come from _prim_edges.
    """
    return list(_prim_edges(sets))


def _prim_edges(
    sets: tuple[VertexSet, ...], packing: Optional[tuple] = None
) -> Iterator[tuple[int, int, int]]:
    """Yields _prim_tree's edges one at a time, so a caller may stop early.

    packing is _packed(sets) when the caller already holds it.

    Packed layout (_packed): each member not yet taken either owns a lane,
    order[i] for byte i, in index order, or waits (below). dist holds a
    lane's distance to the tree in its byte, 0 once it is taken. For the
    set X just taken, beyond gives |X u Y_i| for every lane i at once.

    Guard: weights stay below 127, so the guard bit 0x80 of
    (dist | 0x80..) - (w + 1) is set in exactly the bytes where w < dist.
    Those members take w as their distance and X as their parent; no
    other member changes. Likewise a byte x is 0 exactly where the guard
    bit of (x | 0x80..) - 0x01.. is clear.

    Settled members. Take distinct X and Y: |X u Y| >= |Y|, and when
    |X| >= |Y|, X is not inside Y, so |X u Y| >= |Y| + 1. So once the
    distance of Y equals |Y|, or equals |Y| + 1 while no member left to
    take is smaller than Y, no member taken later lowers it, and as a
    parent changes only on a strict decrease, Y only waits to be taken.
    While there are at least _LANE_FLOOR lanes, every
    max(lanes / _RETIRE_EVERY, 1) steps the settled lanes are found in a
    few whole-int operations. The smallest size left is read off the live
    lanes and bounded below by near - 1, as a waiting distance is |Y| or
    |Y| + 1; a bound below it only retires fewer members. Once at least
    half of the lanes are taken or settled, each settled member moves to
    waiting[its distance], and _packed packs the lanes left again, with
    the waiting members after them, so that beyond still serves them.

    Tie-break: the next member is the lowest index at the smallest
    distance, over the lanes and waiting together. Below near, the
    smallest distance that waits, that is the first byte of dist equal to
    the smallest weight present, tried upward from min |Y_i| + 1 (distinct
    sets are at least that far apart); taken lanes hold 0, which is never
    tried. At near it is the lower of the first such byte and the lowest
    member waiting there. A parent changes only on a strict decrease, so
    this is the tree of the plain O(m^2) loop, edge for edge.

    Cost: each step is O(Gamma) whole-int operations and memchr scans
    over the lanes, all in C; no pair weight is formed on its own. The
    plain loop scans all m members at every step, while here a settled
    member leaves at the next packing; on the gkr/qkr families most
    members settle long before they are taken. Each packing is O(members
    left) and at least halves the lanes, and a family below _LANE_FLOOR
    is never packed again. The Python-level work is O(m Gamma): each
    member changes parent fewer than 2 Gamma times, because its distance
    only falls and stays above gamma.
    """
    m = len(sets)
    if m < 2:
        return
    ones, sizes, size, beyond = packing or _packed(sets)
    low = min(sizes) + 1
    order = list(range(m))
    lanes = m
    guard = ones << 7
    # Member 0 is the root: its own byte, |Y_0 u Y_0| = |Y_0|, drops to 0.
    dist = beyond(0, size) - sizes[0]
    size_plus_one = size + ones
    parent = [0] * m  # by lane
    waiting: dict[int, list[int]] = {}  # distance -> settled members, the lowest last
    settled_parent: dict[int, int] = {}  # settled member -> its parent
    slot: dict[int, int] = {}  # settled member -> its place in the packing
    near = 0  # the smallest distance in waiting, 0 while it is empty
    weights = range(low, 127)  # the distances tried in the lanes, all below near
    check = 0 if m >= _LANE_FLOOR else m
    taken = 0  # edges yielded
    while taken < m - 1:
        if taken == check:
            db = dist.to_bytes(lanes, "little")
            smallest = min(compress(sizes, db), default=127)
            if near:
                smallest = min(smallest, near - 1)
            live = ((dist | guard) - ones) & guard
            off_size = (dist ^ size | guard) - ones
            off_next = ((dist ^ size_plus_one) | (size ^ smallest * ones) | guard) - ones
            settled = live & ~(off_size & off_next)
            keep = live ^ settled
            if 2 * keep.bit_count() <= lanes:
                flags = settled.to_bytes(lanes, "little")
                settled_parent.update(zip(compress(order, flags), compress(parent, flags)))
                for wt in set(compress(db, flags)):
                    at_wt = settled & ~((dist ^ wt * ones | guard) - ones)
                    waiting.setdefault(wt, []).extend(
                        compress(order, at_wt.to_bytes(lanes, "little")))
                for queue in waiting.values():
                    queue.sort(reverse=True)
                near = min(waiting, default=0)
                weights = range(low, near or 127)
                flags = keep.to_bytes(lanes, "little")
                order = list(compress(order, flags))
                parent = list(compress(parent, flags))
                dist = int.from_bytes(bytes(compress(db, flags)), "little")
                lanes = len(order)
                slot = dict(zip(settled_parent, range(lanes, m)))
                ones, sizes, size, beyond = _packed(
                    tuple(map(sets.__getitem__, order + list(slot))), lanes)
                guard = ones << 7
                size_plus_one = size + ones
            check = taken + max(lanes // _RETIRE_EVERY, 1) if lanes >= _LANE_FLOOR else m
        for _ in range(min(check, m - 1) - taken):
            find = dist.to_bytes(lanes, "little").find
            for wt in weights:
                nxt = find(wt)
                if nxt >= 0:
                    break
            else:  # no lane is closer than near
                wt = near
                queue = waiting[wt]
                nxt = find(wt)
                if nxt < 0 or queue[-1] < order[nxt]:
                    member = queue.pop()
                    if not queue:
                        del waiting[wt]
                        near = min(waiting, default=0)
                        weights = range(low, near or 127)
                    taken += 1
                    yield wt, settled_parent.pop(member), member
                    nxt = slot[member]
            if nxt < lanes:
                dist -= wt << 8 * nxt
                member = order[nxt]
                taken += 1
                yield wt, parent[nxt], member
            w_plus_one = beyond(nxt, size_plus_one)
            closer = ((dist | guard) - w_plus_one) & guard
            if closer:
                dist ^= (dist ^ (w_plus_one - ones)) & ((closer >> 7) * 255)
                flags = closer.to_bytes(lanes, "little")
                j = flags.find(128)
                while j >= 0:
                    parent[j] = member
                    j = flags.find(128, j + 1)


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

    Returns 1 + the first size s >= Gamma whose layer of dominating s-sets
    is swap-connected: by the module docstring, that is the first k > Gamma
    at which D_k(G) is connected, connectivity is monotone from Gamma on,
    and D_Gamma is disconnected. Layer Gamma gets a plain union-find
    (_swap_components); each layer above takes its components from the
    layer below (_lifted_components) and is read only until they number 1.
    The layers stream from the leaf walk on demand, and those below Gamma
    are never drawn, so no set of size d0 or more is ever built.

    This is the independent oracle for d0, not the fast route: d0 equals
    the separation sep (proof in separation.py), so `domrec d0` and `hunt`
    read it off sep_bottleneck. This scan runs for `d0 --method direct`
    and `both`, and to re-verify every `hunt` hit. It takes only Gamma
    and the edgeless rule from the minimal family, never the family's
    U_k. A Gamma that came out too small would let it test a layer below
    Gamma, where a minimal set of the next size is isolated and the answer
    can be too low; the tests against tests/naive.py, which build no
    family, are what guard against that.

    family is g's minimal family when the caller already holds it, and is
    enumerated when omitted; a family of one set (edgeless g) is refused.
    """
    budget = budget or Budget.resolve()
    fam = family if family is not None else enumerate_minimal_dominating(g, budget)
    _require_at_least_two(fam)
    below: dict[VertexSet, int] = {}  # the layer below: each set's node in root
    for size, layer in _dominating_layers(g, g.n - 1, budget):
        if size < fam.Gamma:
            continue
        if size > fam.Gamma:
            components, below = _lifted_components(layer, below, root, components)
        else:
            sets = list(layer)
            components, root = _swap_components(sets)
            if components > 1:
                below = dict(zip(sets, range(len(sets))))
        if components == 1:
            return size + 1
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

    Breadth-first search from a block of sources at once: bit s of a
    vertex's row is set once the vertex is known to lie within the rounds
    run so far of the block's source s.

    Parity classes. Every edge joins sizes j and j + 1, so class x, the
    sets of size parity x, has all its neighbours in class x ^ 1, and a
    distance between classes x and y has parity x ^ y. Round t updates
    class x = t & 1 ^ 1 only, even sizes on odd rounds and odd sizes on
    even ones, ORing into each row the current rows of its neighbours.
    By induction on t, a class-x row then holds exactly the sources within
    t of it: each neighbour's row was last updated at round t - 1 (or is
    the start, round 0) and holds the sources within t - 1 of it. These
    are the rounds of the plain search, each over half of the edges' ORs.

    Reading the diameter. Class x is read after each round it moves at,
    and class 1 at round 0 too. Let t be the first such round at which
    the AND of all class-x rows holds every class-y source of the block.
    The largest distance D from such a source to a class-x vertex is at
    most t, above t - 2 (class x's previous read, if any), and has
    parity x ^ y, so D is t when t has that parity and t - 1 otherwise.
    Class 0 skips round 0: its rows hold all class-0 sources there only
    when class 0 is that one source, and round 1 reads D = 0 as well. The
    block's largest eccentricity is the largest D over the pairs of
    classes; a class whose rows hold every source is full and moves no
    more, and the block ends once both classes are.
    """
    if not rg.verts:
        raise InputError("diameter of an empty reconfiguration graph is undefined")
    if not rg.connected:
        return None
    order = len(rg.verts)
    side = [popcount(mask) & 1 for mask in rg.verts]
    in_class = [0, 0]  # vertices per class
    place = []  # each vertex's index within its class
    for x in side:
        place.append(in_class[x])
        in_class[x] += 1
    nbrs = [[[] for _ in range(in_class[0])], [[] for _ in range(in_class[1])]]
    for a, b in rg.edges:
        nbrs[side[a]][place[a]].append(place[b])
        nbrs[side[b]][place[b]].append(place[a])
    best = 0
    for lo in range(0, order, _DIAMETER_BLOCK):
        rows = [[0] * in_class[0], [0] * in_class[1]]
        sources = [0, 0]  # the block's sources in each class
        for s, i in enumerate(range(lo, min(lo + _DIAMETER_BLOCK, order))):
            rows[side[i]][place[i]] = 1 << s
            sources[side[i]] |= 1 << s
        # todo[x]: the classes y whose largest distance to class x is not read yet
        todo = [[y for y in (0, 1) if sources[y]] if in_class[x] else [] for x in (0, 1)]
        t = 0
        while todo[0] or todo[1]:
            x = t & 1 ^ 1
            if todo[x]:
                if t:
                    other = rows[x ^ 1]
                    rows[x] = [reduce(or_, map(other.__getitem__, nb), r)
                               for r, nb in zip(rows[x], nbrs[x])]
                held = reduce(and_, rows[x])
                for y in todo[x]:
                    if held & sources[y] == sources[y]:
                        best = max(best, t - ((t ^ x ^ y) & 1))
                todo[x] = [y for y in todo[x] if held & sources[y] != sources[y]]
            t += 1
    return best
