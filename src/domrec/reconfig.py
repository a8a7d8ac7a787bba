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

So the lifts of the components C of L_{s-1}, each the s-sets X with c(X)
= C, that is C's sets plus one vertex each, partition L_s; each lift is
swap-connected, and a lift of a non-empty component is not empty.

d0_direct has two routes to the first swap-connected layer: subset truth
tables for n <= domination._DOM_TABLE_MAX_N (crossover in domination.py),
and above it a union-find on layer Gamma, whose small components are
lifted layer to layer.
reconfig_path has two routes at the same cutoff: a search from both ends
in the same tables, and a breadth-first search over D_k above it.

Tables. A table is an int of 2^n bits whose bit S is set iff the subset S
has the property. domination._dominating_tables builds the tables these
routes read, for the call only: x_v, the table of "v in S"; Dom, of the
dominating sets; and size_s, of |S| = s (domination.py's module docstring
has how). Removing v from a mask that holds it subtracts 2^v, so for a
table R of s-sets and D of (s-1)-sets

  down(R) = OR over v of ((R & x_v) >> 2^v)  holds the (s-1)-subsets of R's sets,
  up(D)   = OR over v of ((D << 2^v) & x_v)  the sets one vertex above D's.

So down(T) | up(T) holds the sets one vertex away from T's, whatever their
sizes, and & Dom keeps those in D_n: reconfig_path's spheres grow by it.
With L = Dom & size_s, R | (up(down(R)) & L) is R and every set of L that
shares an (s-1)-subset with a set of R: R and its swap neighbours in L.
Repeated from the lowest set of L, it grows by one swap a round and stops
growing exactly at that set's swap component, so L is swap-connected iff
the search reaches all of L, and it stops as soon as it does. A round is
about 4n operations on 2^n-bit ints, all in C. The 2n + 2 tables of x_v,
size_s and Dom hold (2n + 2) 2^n bits, 1.2 MB at n = 18 (MB of 2^20
bytes), and live only for the call; nothing is cached.

Union-finds. Above the table cutoff d0_direct reads layer Gamma whole,
with a plain union-find, since there a minimal set has no dominating
subset and opens a node of its own. It keeps the largest component
implicit, as every set not listed, and lists the others. At each layer s
above, a listed component lifts to its sets plus one vertex each, and the
implicit one to the rest of L_s. Only a key that does not dominate joins
two lifts, and a join between two sets not listed stays inside the
implicit component, so every join that matters comes through such a key
K = X - x of a listed X. K misses exactly x's private neighbours, the
vertices of N[x] that X covers once, so X's swap neighbours through K are
K + y for each y outside X whose N[y] holds them all. A neighbour not
listed is in the implicit component, which X's component then joins and
leaves the list. The count of components, 1 + those listed, only falls
within a layer and cannot fall below 1, so the layer is swap-connected as
soon as nothing is listed. The work is proportional to the listed sets:
on every gkr/qkr measured they are the lifts of the hub set U alone, and
no set of the implicit side above Gamma is built.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import and_, itemgetter, lshift, or_, rshift
from typing import Callable, Iterator, Optional

from .graph_core import (
    Graph,
    InputError,
    VertexSet,
    _Record,
    is_dominating,
    iter_vertices,
    popcount,
    vertex_list,
)
from . import domination
from .domination import (
    Budget,
    DomFamily,
    _counts_and_family,
    _dominating_layers,
    _dominating_tables,
    _require_at_least_two,
    dominating_sets_upto,
    enumerate_minimal_dominating,
)

# Maps the text of bin() to one byte per digit: 0 for "0" and "b", 1 for "1".
_BINARY_DIGITS = bytes.maketrans(b"0b1", b"\0\0\1")
# The complement on the digits: 1 for "0", 0 for "b" and "1".
_LACKING_DIGITS = bytes.maketrans(b"0b1", b"\1\0\0")

# Sources per bit-parallel BFS in dk_diameter; memory is O(order * block) bits.
_DIAMETER_BLOCK = 4096
# _prim_edges looks for settled members every lanes / _RETIRE_EVERY steps while it
# holds at least _LANE_FLOOR lanes; a smaller family is never packed again.
_LANE_FLOOR = 256
_RETIRE_EVERY = 16


class ReconfigGraph(_Record):
    """Explicit D_k(G): canonical vertex order, index-pair edges."""

    __slots__ = ("k", "n", "verts", "edges", "component_count")
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


class ProfileEntry(_Record):
    __slots__ = ("k", "order", "size", "connected", "component_count")
    k: int
    order: int
    size: int
    connected: bool
    component_count: int


class ConnectivityProfile(_Record):
    __slots__ = ("gamma", "n", "profile")
    gamma: int
    n: int
    profile: tuple[ProfileEntry, ...]


def _edges(verts: list[VertexSet], k: int, full: VertexSet) -> list[tuple[int, int]]:
    """Index pairs (T, T + v) of D_k's canonically ordered sets, sorted.

    Each T with |T| < k is joined to its up-neighbours T + v, v not in T, in
    ascending v; every superset of a dominating set dominates, so each is in
    D_k. T's index rises, and T's up-neighbours share one size with masks
    rising in v, so the pairs come out in order.
    """
    index = {m: i for i, m in enumerate(verts)}
    edges: list[tuple[int, int]] = []
    for i, mask in enumerate(verts):
        if popcount(mask) >= k:
            break  # canonical order: every set from here on has size k
        rest = full ^ mask
        while rest:
            low = rest & -rest
            rest ^= low
            edges.append((i, index[mask | low]))
    return edges


def _component_counter(sets: tuple[VertexSet, ...]) -> Callable[[int], int]:
    """k -> number of components of D_k(G), from G's minimal family in canonical order.

    Read off the spanning tree of the minimal family by the identity in
    the module docstring. Below gamma every tree edge and every set counts,
    so it gives 0 for the empty D_k.
    """
    weights = [w for w, _, _ in _prim_edges(sets)]
    sizes = [popcount(s) for s in sets]
    return lambda k: 1 + sum(w > k for w in weights) - sum(c > k for c in sizes)


def build_dk(g: Graph, k: int, budget: Optional[Budget] = None) -> ReconfigGraph:
    """Construct D_k(G) exactly. k below gamma gives an empty graph."""
    verts = dominating_sets_upto(g, k, budget)
    return ReconfigGraph(
        k=k,
        n=g.n,
        verts=tuple(verts),
        edges=tuple(_edges(verts, k, g.full_mask)),
        component_count=(_component_counter(enumerate_minimal_dominating(g, budget).sets)(k)
                         if verts else 0),
    )


def _swap_components(layer: list[VertexSet]) -> tuple[int, list[int]]:
    """Components of one layer of s-sets, X ~ Y when |X n Y| = s - 1, and a label per set.

    Two s-sets differ by one swap exactly when they share an (s-1)-subset,
    so the union-find is keyed on those: owner maps each (s-1)-subset seen
    to the first set that had it, and root[i] is set i's parent, shortened
    by path halving on every find. The set being read stays the root: each
    older tree met through a shared subset is hung below it. So a parent
    never has a lower index than its child, and one pass from the last set
    down leaves root[i] the root of set i's component: its label. Order
    within the layer does not matter. Returns (components, root).
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
    for i in reversed(range(len(root))):
        root[i] = root[root[i]]
    return sum(r == i for i, r in enumerate(root)), root


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
    holes = text[:m * width].translate(_LACKING_DIGITS)
    lacks = [int.from_bytes(holes[j::width], "little") for j in range(3, width)]
    del holes  # before digits, so three text-sized buffers at most are alive at once
    digits = text.translate(_BINARY_DIGITS)
    size = (width - 3) * ones - sum(lacks)

    def beyond(x: int, start: int) -> int:
        at = x * width
        return sum(compress(lacks, digits[at + 3:at + width]), start)

    return ones, size.to_bytes(m, "little"), size, beyond


def _prim_edges(
    sets: tuple[VertexSet, ...], packing: Optional[tuple] = None
) -> Iterator[tuple[int, int, int]]:
    """Minimum spanning tree of the pair weights |X u Y|, by Prim's algorithm.

    Yields (weight, parent, child) edges in insertion order, parents
    before children, rooted at index 0, one at a time, so a caller may
    stop early. The sets must be distinct, as the members of a minimal
    family are.

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
    dominating set is listed. For n <= _DOM_TABLE_MAX_N both come from one
    set of truth tables (domination._counts_and_family).
    """
    budget = budget or Budget.resolve()
    counts, family = _counts_and_family(g, budget)
    components = _component_counter(family)
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


def _down(table: int, x: list[int], shifts: list[int]) -> int:
    """down(table) of the module docstring: the sets one vertex below table's sets."""
    return reduce(or_, map(rshift, map(and_, repeat(table), x), shifts))


def _up(table: int, x: list[int], shifts: list[int], start: int = 0) -> int:
    """start | up(table) of the module docstring: the sets one vertex above table's sets."""
    return reduce(or_, map(and_, map(lshift, repeat(table), shifts), x), start)


def _near(table: int, x: list[int], shifts: list[int]) -> int:
    """down(table) | up(table): the sets one vertex away from table's sets."""
    return _up(table, x, shifts, _down(table, x, shifts))


def _d0_from_tables(g: Graph, Gamma: int, budget: Budget) -> int:
    """d0_direct's route for n <= _DOM_TABLE_MAX_N: each layer from subset truth tables.

    dom has bit S set iff S dominates, sizes[s] iff |S| = s. Each layer
    from Gamma up is searched breadth-first from its lowest set, all sets
    of a round at once, until the search stops growing or holds the whole
    layer (module docstring).
    """
    n = g.n
    x, dom, sizes = _dominating_tables(g, budget)
    shifts = [1 << v for v in range(n)]
    for s in range(Gamma, n):
        layer = dom & sizes[s]
        reach = layer & -layer
        while True:
            grown = _up(_down(reach, x, shifts), x, shifts, reach) & layer
            if grown == layer:
                return s + 1
            if grown == reach:
                break
            reach = grown
    raise InputError("D_n(G) reported disconnected; graph state inconsistent")


def _lone_swaps(mask: VertexSet, closed: tuple[VertexSet, ...], full: VertexSet
                ) -> Iterator[VertexSet]:
    """The dominating sets a swap apart from the dominating set mask through a key that
    does not dominate.

    twice holds the vertices that mask covers at least twice, so the key
    mask - v misses exactly private = N[v] & ~twice, and mask - v + y
    dominates iff N[y] holds private, that is y lies in N[p] for each p of
    private. No such y is in mask: a member other than v would cover p twice.
    """
    members = vertex_list(mask)
    once = twice = 0
    for v in members:
        twice |= once & closed[v]
        once |= closed[v]
    for v in members:
        private = closed[v] & ~twice
        if private:
            key = mask ^ 1 << v
            ys = full ^ 1 << v
            for p in iter_vertices(private):
                ys &= closed[p]
            for y in iter_vertices(ys):
                yield key | 1 << y


def _d0_from_layers(g: Graph, Gamma: int, budget: Budget) -> int:
    """d0_direct's route above _DOM_TABLE_MAX_N: the small swap components, lifted.

    Layer Gamma, the last layer of the leaf walk cut at Gamma, gets a plain
    union-find (_swap_components). Its largest component stays implicit,
    under its own label big: every set not in listed. Each layer s above
    lifts the listed sets one vertex up, keeping their labels, then joins
    the labels through the keys that do not dominate (_lone_swaps): a
    neighbour that is not listed is in the implicit component. up is the
    union-find of the labels, big always a root. A label joined to big is
    dropped; once none is left, L_s is swap-connected (module docstring).
    No set of the implicit side above Gamma is built.
    """
    for size, layer in _dominating_layers(g, Gamma, budget):
        if size == Gamma:
            sets = list(layer)
    components, label = _swap_components(sets)
    if components == 1:
        return Gamma + 1
    big = Counter(label).most_common(1)[0][0]
    listed = {mask: c for mask, c in zip(sets, label) if c != big}
    del sets, label
    closed, full = g.closed, g.full_mask

    def find(c: int) -> int:
        while up[c] != c:
            up[c] = c = up[up[c]]
        return c

    for s in range(Gamma + 1, g.n):
        up = {c: c for c in chain(listed.values(), [big])}
        lifted: dict[VertexSet, int] = {}
        for mask, c in listed.items():
            lifted.update(dict.fromkeys([mask | 1 << v for v in iter_vertices(full ^ mask)], c))
        for mask, c in lifted.items():
            c = find(c)
            if c == big:
                continue  # its joins to listed sets not yet read are met from their side
            for nb in _lone_swaps(mask, closed, full):
                d = find(lifted.get(nb, big))
                if d != c:
                    up[c] = c = d
                    components -= 1
                    if components == 1:
                        return s + 1
                    if c == big:
                        break
        listed = {mask: r for mask, c in lifted.items() if (r := find(c)) != big}
    raise InputError("D_n(G) reported disconnected; graph state inconsistent")


def d0_direct(
    g: Graph, budget: Optional[Budget] = None, *, family: Optional[DomFamily] = None
) -> int:
    """Smallest j such that D_k(G) is connected for every k >= j.

    Returns 1 + the first size s >= Gamma whose layer of dominating s-sets
    is swap-connected: by the module docstring, that is the first k > Gamma
    at which D_k(G) is connected, connectivity is monotone from Gamma on,
    and D_Gamma is disconnected. A graph with n <= _DOM_TABLE_MAX_N vertices
    has each layer searched in subset truth tables (_d0_from_tables), whose
    2n + 2 tables of 2^n bits live only for the call: 1.2 MB at n = 18.
    A larger one reads layer Gamma from the leaf walk and lifts its small
    swap components from there (_d0_from_layers), listing no set of the
    largest one above Gamma. The module docstring has the search and the
    union-finds, and domination.py's the crossover that sets
    _DOM_TABLE_MAX_N.

    This is the independent oracle for d0, not the fast route: d0 equals
    the separation sep (proof in separation.py), so `domrec d0` and `hunt`
    read it off sep_value. This scan runs for `d0 --method direct`
    and `both`, and to re-verify every `hunt` hit. It takes only Gamma
    and the edgeless rule from the minimal family, never the family's
    U_k. A Gamma that came out too small would let it test a layer below
    Gamma, where a minimal set of the next size is isolated and the answer
    can be too low; the tests against tests/naive.py, which build no
    family, are what guard against that. Both routes check the budget.

    family is g's minimal family when the caller already holds it, and is
    enumerated when omitted; a family of one set (edgeless g) is refused.
    """
    budget = budget or Budget.resolve()
    fam = family if family is not None else enumerate_minimal_dominating(g, budget)
    _require_at_least_two(fam)
    route = _d0_from_tables if g.n <= domination._DOM_TABLE_MAX_N else _d0_from_layers
    return route(g, fam.Gamma, budget)


def reconfig_path(
    g: Graph,
    a: VertexSet,
    b: VertexSet,
    k: int,
    budget: Optional[Budget] = None,
) -> Optional[list[VertexSet]]:
    """Shortest add/remove sequence between two dominating sets inside D_k.

    Returns None when a and b lie in different components. D_k is never
    listed: the neighbours of S are the removals S - v, for v descending,
    that still dominate, then the additions S + v, for v ascending, while
    |S| < k. Canonical order sorts by size, then by mask, and S - v grows
    as v falls, so that is the canonical order of S's neighbours.

    The path returned is the lexicographically first shortest path from a
    to b, its sets compared in canonical order: the one a breadth-first
    search over sorted adjacency lists of the explicit D_k returns, each set
    taking as parent the first set of the round before that reaches it.

      By induction on the rounds, each set's tree path is the first
      shortest path to it, and a round's queue order is the order of
      those paths. Round 0 is a alone. A set T of round t + 1 is first
      reached from the earliest set P of round t adjacent to it, whose
      tree path is the first of all T's neighbours in round t. Every
      shortest path to T ends in such a neighbour Q and T, and its first t
      + 1 sets are no earlier than Q's tree path, which is no earlier than
      P's, so P's tree path and T are the first. Round t + 1 is queued
      set by set of round t, in queue order, and each set's new
      neighbours in canonical order: the order of (tree path of the
      parent, T), which is that of the tree paths.

    For n <= _DOM_TABLE_MAX_N the search runs from both ends in subset
    truth tables (_path_from_tables), whose work is bounded by the distance;
    above it, a breadth-first search over D_k (_path_by_search). The budget
    is checked before either starts.
    """
    for name, s in (("from", a), ("to", b)):
        if s & ~g.full_mask:
            raise InputError(f"'{name}' endpoint names vertex {s.bit_length() - 1},"
                             f" outside the graph's n={g.n} vertices")
        if not is_dominating(g, s):
            raise InputError(f"'{name}' endpoint is not a dominating set")
        if popcount(s) > k:
            raise InputError(f"'{name}' endpoint has cardinality above k={k}")
    budget = budget or Budget.resolve()
    budget.check(g, "dominating set enumeration")
    if g.n <= domination._DOM_TABLE_MAX_N:
        return _path_from_tables(g, a, b, k, budget)
    return _path_by_search(g, a, b, k)


def _path_from_tables(g: Graph, a: VertexSet, b: VertexSet, k: int,
                      budget: Budget) -> Optional[list[VertexSet]]:
    """reconfig_path's route for n <= _DOM_TABLE_MAX_N: a two-sided search in truth tables.

    inside is the table of D_k's sets: Dom & (size_0 | ... | size_k), and
    _spheres grows the spheres 0..i around a and 0..j around b in it until
    the last two meet, at the distance d = i + j, or a side stops growing:
    no path.

    Level t is the sets at distance t from a and d - t from b, those on
    shortest paths. Next to a set of level t - 1, a set lies on level t
    iff it is at distance d - t from b, by the triangle inequality. So
    for t >= i the walk below reads sphere d - t around b as it is, and
    only a's side is rebuilt, in place of its spheres: level i is where
    the last spheres meet, and level t - 1, for t <= i, is sphere t - 1
    around a less the sets with no neighbour on level t.

    The walk from a then takes at each step the first neighbour, in
    canonical order, on the next level. That keeps it on a shortest path,
    and no other shortest path has an earlier set at the first place they
    differ: it is the path of reconfig_path's docstring.

    Work: d rounds to meet and i - 1 to rebuild, each about 6n operations
    on 2^n-bit ints; with no path, _spheres bounds the rounds. Memory: the
    n + k + 2 tables of _dominating_tables, all but x_v freed before the
    rebuild, and at most d + 2 spheres of 2^n bits each.
    """
    x, dom, sizes = _dominating_tables(g, budget, k)
    shifts = [1 << v for v in range(g.n)]
    spheres = _spheres(a, b, reduce(or_, sizes) & dom, x, shifts)
    del dom, sizes
    if spheres is None:
        return None
    fwd, bwd = spheres
    fwd[-1] &= bwd[-1]
    for t in range(len(fwd) - 1, 1, -1):  # level t - 1: sphere t - 1 next to level t
        fwd[t - 1] &= _near(fwd[t], x, shifts)
    path = [a]
    full = g.full_mask
    for level in fwd[1:] + bwd[-2::-1]:
        cur = path[-1]
        for nb in chain([cur ^ 1 << v for v in reversed(vertex_list(cur))],
                        [cur | 1 << v for v in iter_vertices(full ^ cur)]):
            if level >> nb & 1:
                path.append(nb)
                break
    return path


def _spheres(a: VertexSet, b: VertexSet, inside: int, x: list[int],
             shifts: list[int]) -> Optional[tuple[list[int], list[int]]]:
    """The spheres around a and b in the table inside, out to where they first meet.

    Returns (around a, around b), sphere i of each the table of the sets
    at distance i from its end, or None when a side stops growing first.
    The next sphere of S is near(S) & inside, less the ball around its end
    so far. Each round grows the side whose last sphere holds fewer sets,
    a's on a tie. An empty sphere means that side's ball is its whole
    component, which misses the other end, so there is no path.

    The last spheres meet at the distance d = i + j. Before a round, the
    balls of radii i and j are disjoint, so d > i + j; a new sphere i + 1
    that meets the other ball at radius j' <= j gives d <= i + 1 + j', so
    j' = j. So the search stops as soon as the two last spheres meet: d
    rounds when there is a path. Without one, side a grows at most r_a
    times and side b at most r_b, r the eccentricity of an end in its
    component, and the first empty sphere ends the search: at most r_a +
    r_b + 1 rounds, and a side with a small component, whose spheres stay
    small, is grown first.
    """
    spheres = ([1 << a], [1 << b])
    unseen = [inside & ~(1 << a), inside & ~(1 << b)]  # inside less each side's ball
    while not spheres[0][-1] & spheres[1][-1]:
        side = spheres[1][-1].bit_count() < spheres[0][-1].bit_count()
        grown = _near(spheres[side][-1], x, shifts) & unseen[side]
        if not grown:
            return None
        spheres[side].append(grown)
        unseen[side] ^= grown
    return spheres


def _path_by_search(g: Graph, a: VertexSet, b: VertexSet, k: int) -> Optional[list[VertexSet]]:
    """reconfig_path's route above _DOM_TABLE_MAX_N: breadth-first search over D_k.

    Each set is reached first from the lowest canonical-order neighbour in
    the round before, as in the search of reconfig_path's docstring. The
    search stops as soon as it reaches b, and otherwise visits a's
    component only. S - v dominates iff every vertex of N[v] is covered
    twice by S: once by v and once by another member.
    """
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
    # One itemgetter per vertex gathers its neighbours' rows. Each class's rows
    # end in a zero row, which pads a vertex of fewer than two neighbours: an
    # itemgetter of one index returns the row itself, not a tuple.
    gets = [[itemgetter(*nb, *[in_class[x ^ 1]] * (2 - len(nb))) for nb in nbrs[x]]
            for x in (0, 1)]
    del nbrs
    best = 0
    for lo in range(0, order, _DIAMETER_BLOCK):
        rows = [[0] * (in_class[0] + 1), [0] * (in_class[1] + 1)]
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
                    rows[x] = [reduce(or_, get(other), r) for r, get in zip(rows[x], gets[x])]
                    rows[x].append(0)
                held = reduce(and_, islice(rows[x], in_class[x]))
                for y in todo[x]:
                    if held & sources[y] == sources[y]:
                        best = max(best, t - ((t ^ x ^ y) & 1))
                todo[x] = [y for y in todo[x] if held & sources[y] != sources[y]]
            t += 1
    return best
