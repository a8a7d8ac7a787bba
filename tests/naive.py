"""Independent brute-force oracles used to validate the fast paths.

Everything here works on plain Python sets built from the edge list, not
on the package's bitmask kernel, so agreement is meaningful. The helpers
at the end are test-only checks and conversions on the package's objects.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, groupby
from math import comb
from typing import Callable, Iterable, Iterator

from domrec import (
    DomFamily,
    Graph,
    GkrLayout,
    InputError,
    ReconfigGraph,
    VertexSet,
    mask_of,
    popcount,
    vertex_list,
)
from domrec.io_cli import export_graph6, parse_edge_list, parse_graph6


def adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def naive_is_dominating(
    g: Graph, verts: frozenset[int], adj: list[set[int]] | None = None
) -> bool:
    adj = adj if adj is not None else adjacency_sets(g)
    covered = set()
    for v in verts:
        covered |= adj[v] | {v}
    return covered == set(range(g.n))


def naive_private_neighbours(g: Graph, v: int, d: frozenset[int]) -> set[int]:
    adj = adjacency_sets(g)
    closed = lambda u: adj[u] | {u}
    return {u for u in closed(v) if closed(u) & d == {v}}


def naive_minimal_dominating_sets(g: Graph) -> list[frozenset[int]]:
    """Full scan: dominating sets no one-vertex deletion of which dominates."""
    out = []
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for combo in combinations(verts, size):
            d = frozenset(combo)
            if not naive_is_dominating(g, d):
                continue
            if all(not naive_is_dominating(g, d - {v}) for v in d):
                out.append(d)
    return out


def naive_minimal_dfs(g: Graph) -> list[VertexSet]:
    """The id-order include/exclude DFS, canonically sorted: a mid-size oracle.

    Ids are decided in order, excluding before including. A prefix is cut
    when an undominated vertex has no closed neighbour among the undecided
    ids, or when some chosen vertex has lost all private neighbours. It
    reaches graphs too large for the full scan above; it reads the package's
    closed-neighbourhood masks, so it checks the search, not the kernel.
    """
    n, closed, full = g.n, g.closed, g.full_mask
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[i]
    out: list[VertexSet] = []

    def rec(i: int, chosen: VertexSet, cover: VertexSet, privates: list[VertexSet]) -> None:
        if cover == full:
            out.append(chosen)
            return
        if i == n:
            return
        if (full ^ cover) & ~suffix[i]:
            return
        rec(i + 1, chosen, cover, privates)
        ci = closed[i]
        pn_new = ci & ~cover
        if pn_new == 0:
            return
        shrunk = []
        for p in privates:
            p &= ~ci
            if p == 0:
                return
            shrunk.append(p)
        shrunk.append(pn_new)
        rec(i + 1, chosen | 1 << i, cover | ci, shrunk)

    rec(0, 0, 0, [])
    del rec
    out.sort(key=lambda m: (popcount(m), m))
    return out


def naive_dominating_prefixes(
    g: Graph, cap: int, visit: Callable[[VertexSet, int, int], None]
) -> None:
    """Call visit(chosen, i, count) for each first dominating prefix of size <= cap.

    Ids are decided in order and a prefix is reported as soon as it
    dominates, with i its first undecided id. Every extension of it then
    dominates too, so the dominating sets of size <= cap are exactly the
    reported prefixes plus any ids from i..n-1, each set from one prefix.
    A prefix is cut when some undominated vertex has no undecided closed
    neighbour. It reads the package's closed-neighbourhood masks, so it
    checks the search, not the kernel.
    """
    if cap < 0:
        return
    n, closed, full = g.n, g.closed, g.full_mask
    suffix = [0] * (n + 1)  # suffix[i]: the vertices that ids i..n-1 dominate
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[i]

    def rec(i: int, chosen: VertexSet, count: int, cover: VertexSet) -> None:
        if cover == full:
            visit(chosen, i, count)
            return
        if i == n or count == cap:
            return
        if (full ^ cover) & ~suffix[i]:
            return
        rec(i + 1, chosen, count, cover)
        rec(i + 1, chosen | 1 << i, count + 1, cover | closed[i])

    rec(0, 0, 0, 0)
    del rec


def naive_prefix_counts(g: Graph) -> list[int]:
    """counts[j] = number of dominating sets of size j, from the id-order prefix scan."""
    n = g.n
    counts = [0] * (n + 1)

    def tally(_mask: VertexSet, i: int, count: int) -> None:
        for extra in range(n - i + 1):
            counts[count + extra] += comb(n - i, extra)

    naive_dominating_prefixes(g, n, tally)
    return counts


def naive_prefix_sets(g: Graph, cap: int) -> list[VertexSet]:
    """The dominating sets of size <= cap, canonically sorted, from the id-order prefix scan."""
    out: list[VertexSet] = []

    def extend(mask: VertexSet, i: int, count: int) -> None:
        for extra in range(cap - count + 1):
            out.extend(mask | mask_of(c) for c in combinations(range(i, g.n), extra))

    naive_dominating_prefixes(g, cap, extend)
    out.sort(key=lambda m: (popcount(m), m))
    return out


def naive_maximal_independent_sets(g: Graph) -> list[frozenset[int]]:
    adj = adjacency_sets(g)
    out = []
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for combo in combinations(verts, size):
            s = frozenset(combo)
            if any(adj[u] & s for u in s):
                continue
            if all(u in s or adj[u] & s for u in verts):
                out.append(s)
    return out


def naive_ir(g: Graph) -> int:
    best = 0
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for combo in combinations(verts, size):
            x = frozenset(combo)
            if all(naive_private_neighbours(g, v, x) for v in x):
                best = size
    return best


def naive_sep(sets: list[frozenset[int]]) -> int:
    """Definition verbatim: max over 2-partitions of the min cross union."""
    m = len(sets)
    assert m >= 2
    best = -1
    indices = list(range(1, m))
    for take in range(0, 1 << (m - 1)):
        side_b = [indices[i] for i in range(m - 1) if (take >> i) & 1]
        if not side_b:
            continue
        in_b = set(side_b)
        side_a = [i for i in range(m) if i not in in_b]
        cross = min(len(sets[i] | sets[j]) for i in side_a for j in in_b)
        best = max(best, cross)
    return best


def naive_prim_tree(sets: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Prim's algorithm over all m(m-1)/2 pair weights |X u Y|, one at a time.

    Returns (weight, parent, child) edges in insertion order; each step
    takes the lowest-index closest set, and a parent changes only when a
    distance strictly drops.
    """
    m = len(sets)
    dist = [popcount(sets[0] | s) for s in sets]
    parent = [0] * m
    rest = list(range(1, m))
    tree: list[tuple[int, int, int]] = []
    while rest:
        nxt = min(rest, key=dist.__getitem__)
        rest.remove(nxt)
        tree.append((dist[nxt], parent[nxt], nxt))
        sj = sets[nxt]
        for j in rest:
            w = popcount(sj | sets[j])
            if w < dist[j]:
                dist[j] = w
                parent[j] = nxt
    return tree


def naive_sep_report(
    sets: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]]:
    """(sep, witness partition, witness pair) read off naive_prim_tree.

    The first heaviest edge in insertion order gives sep and the pair
    (parent set, child set); the partition is (every other index, the
    indices of the subtree below that edge), each ascending.
    """
    tree = naive_prim_tree(sets)
    sep = max(w for w, _, _ in tree)
    at = next(i for i, (w, _, _) in enumerate(tree) if w == sep)
    _, parent, child = tree[at]
    below = {child}
    for _, a, b in tree[at + 1:]:
        if a in below:
            below.add(b)
    rest = tuple(i for i in range(len(sets)) if i not in below)
    return sep, (rest, tuple(sorted(below))), (sets[parent], sets[child])


def naive_threshold_component(sets: tuple[int, ...], t: int, start: int = 0) -> set[int]:
    """Indices joined to start by steps X ~ Y with |X u Y| <= t, by a plain BFS."""
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in range(len(sets)):
            if y not in seen and popcount(sets[x] | sets[y]) <= t:
                seen.add(y)
                queue.append(y)
    return seen


def naive_dk(g: Graph, k: int) -> tuple[list[frozenset[int]], list[tuple[int, int]]]:
    """D_k by definition: symmetric-difference-one adjacency.

    Sorted by the package's canonical order (cardinality, then bit order)
    so index-pair edge lists are comparable. In that order the later end of
    an edge is the earlier end plus one vertex, so each set looks up its
    one-vertex supersets instead of scanning all pairs.
    """
    adj = adjacency_sets(g)
    verts = []
    for size in range(0, min(k, g.n) + 1):
        for combo in combinations(range(g.n), size):
            d = frozenset(combo)
            if naive_is_dominating(g, d, adj):
                verts.append(d)
    verts.sort(key=lambda s: (len(s), sum(1 << v for v in s)))
    index = {d: i for i, d in enumerate(verts)}
    edges = sorted(
        (a, index[d | {v}])
        for a, d in enumerate(verts)
        for v in range(g.n)
        if v not in d and d | {v} in index
    )
    return verts, edges


def _components(num: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(num))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = num
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def naive_d0(g: Graph) -> int:
    """Largest disconnected level plus one; empty levels count as disconnected."""
    last_disconnected = 0
    for k in range(1, g.n + 1):
        verts, edges = naive_dk(g, k)
        if not verts or _components(len(verts), edges) != 1:
            last_disconnected = k
    assert last_disconnected < g.n, "D_n should always be connected"
    return last_disconnected + 1


def naive_shortest_path_length(
    g: Graph, k: int, a: frozenset[int], b: frozenset[int]
) -> int | None:
    verts, edges = naive_dk(g, k)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    dist = {index[a]: 0}
    queue = [index[a]]
    while queue:
        cur = queue.pop(0)
        for nb in adj[cur]:
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist.get(index[b])


def naive_reconfig_path(
    g: Graph, k: int, a: frozenset[int], b: frozenset[int]
) -> list[frozenset[int]] | None:
    """BFS over sorted adjacency lists of naive_dk, stopping when b is dequeued.

    Each set's parent is its lowest canonical-order neighbour in the layer
    before it; None when a and b lie in different components.
    """
    verts, edges = naive_dk(g, k)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    for row in adj:
        row.sort()
    src, dst = index[a], index[b]
    parent = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            break
        for nb in adj[cur]:
            if nb not in parent:
                parent[nb] = cur
                queue.append(nb)
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return [verts[i] for i in reversed(path)]


def naive_diameter(g: Graph, k: int) -> int | None:
    """Largest BFS distance over all pairs of naive_dk(g, k); None when disconnected."""
    verts, edges = naive_dk(g, k)
    adj: list[list[int]] = [[] for _ in verts]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    best = 0
    for start in range(len(verts)):
        dist = {start: 0}
        queue = [start]
        for cur in queue:
            for nb in adj[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        if len(dist) < len(verts):
            return None
        best = max(best, max(dist.values()))
    return best


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """Backtracking isomorphism search with degree pruning (small graphs)."""
    if g.n != h.n or degree_sequence(g) != degree_sequence(h):
        return None
    g_adj = adjacency_sets(g)
    h_adj = adjacency_sets(h)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for cand in range(h.n):
            if cand in used or len(h_adj[cand]) != len(g_adj[v]):
                continue
            ok = True
            for prev, img in mapping.items():
                if (prev in g_adj[v]) != (img in h_adj[cand]):
                    ok = False
                    break
            if ok:
                mapping[v] = cand
                used.add(cand)
                if extend(v + 1):
                    return True
                del mapping[v]
                used.remove(cand)
        return False

    return dict(mapping) if extend(0) else None


# Test-only helpers on the package's objects ----------------------------------


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def degree(g: Graph, v: int) -> int:
    return g.adj[v].bit_count()


def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in g.adj))


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] & 1 << v)


def is_parity_bipartite(rg: ReconfigGraph) -> bool:
    """Every edge joins sets whose cardinalities differ by exactly one."""
    return all(
        abs(popcount(rg.verts[a]) - popcount(rg.verts[b])) == 1 for a, b in rg.edges
    )


def naive_layered_components(
        layers: Iterable[tuple[int, Iterable[VertexSet]]]) -> Iterator[tuple[int, int]]:
    """Yield (k, components of D_k) for each (k, layer of dominating k-sets) given.

    Layers come by size, ascending, with no size skipped. Every edge of D_k
    joins a set to one with a single vertex fewer, so each set is merged
    with the labels of its one-smaller neighbours, already seen. label maps
    each set seen to a union-find node, and root[x] is x's parent node. A
    set takes its first neighbour's root as its label, and opens a new node
    only when it has no neighbour below, that is when it is a minimal
    dominating set. State is cumulative: after layer k the count is that
    of D_k. This reads every layer up to k, where the one-layer identity
    (one_layer_mismatches) reads layer k - 1 alone.
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


def naive_swap_components(layer: Iterable[frozenset[int]]) -> int:
    """Components of one layer of s-sets, X ~ Y when |X n Y| = s - 1, by breadth-first search.

    Every pair is tested on plain sets: no union-find and no keys on
    subsets, so it shares no step with reconfig's swap components.
    """
    sets = list(layer)
    seen = [False] * len(sets)
    components = 0
    for start in range(len(sets)):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            x = sets[queue.popleft()]
            for j, y in enumerate(sets):
                if not seen[j] and len(x & y) == len(x) - 1:
                    seen[j] = True
                    queue.append(j)
    return components


def one_layer_mismatches(g: Graph) -> list[int]:
    """Each k from gamma + 1 to n where the one-layer identity fails.

    The identity (reconfig module docstring): the components of D_k are
    the swap components of the dominating (k-1)-sets plus the minimal
    dominating k-sets. The left side comes from naive_dk, the minimal sets
    from naive_minimal_dominating_sets, and the right side's swap count
    from naive_swap_components over the sets of naive_dk.
    """
    minimal = naive_minimal_dominating_sets(g)
    layers = {size: list(layer) for size, layer in groupby(naive_dk(g, g.n)[0], len)}
    bad = []
    for k in range(min(map(len, minimal)) + 1, g.n + 1):
        verts, edges = naive_dk(g, k)
        minimal_k = sum(len(s) == k for s in minimal)
        if _components(len(verts), edges) != naive_swap_components(layers[k - 1]) + minimal_k:
            bad.append(k)
    return bad


def export_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def parser_round_trips(g: Graph) -> list[tuple[str, Graph, Graph]]:
    """(route, g rebuilt through Graph.from_edges, the same graph built checked).

    The checked side is Graph(n, adj), which runs every __post_init__ check.
    The edge-list parser infers n from the largest id, so vertices above
    the last edge drop out; its checked side keeps the same prefix.
    """
    checked = Graph(g.n, g.adj)
    edges = g.edges()
    out = [("from_edges", Graph.from_edges(g.n, edges), checked),
           ("graph6", parse_graph6(export_graph6(g)), checked)]
    if edges:
        m = max(v for _, v in edges) + 1
        out.append(("edge list", parse_edge_list(export_edge_list(g)), Graph(m, g.adj[:m])))
    return out


def compute_alpha(g: Graph) -> int:
    return max(len(s) for s in naive_maximal_independent_sets(g))


def independent_members(g: Graph, sets) -> set[frozenset[int]]:
    """The members of a family of masks that contain no edge of g."""
    adj = adjacency_sets(g)
    members = (frozenset(vertex_list(s)) for s in sets)
    return {s for s in members if not any(adj[u] & s for u in s)}


def partition_separation(fam: DomFamily, part_b: tuple[int, ...]) -> int:
    """sep of one explicit 2-partition; used to validate witnesses."""
    in_b = set(part_b)
    if not in_b or len(in_b) == len(fam.sets):
        raise InputError("both sides of a 2-partition must be nonempty")
    side_a = [fam.sets[i] for i in range(len(fam.sets)) if i not in in_b]
    side_b = [fam.sets[i] for i in part_b]
    return min(popcount(x | y) for x in side_a for y in side_b)


def irredundance_witness(layout: GkrLayout) -> VertexSet:
    """Non-dominating irredundant set of size k+r-2 (k-1 when r=1)."""
    members = [layout.u(j) for j in range(1, layout.k)]
    members.extend(layout.v(i, layout.k) for i in range(1, layout.r))
    return mask_of(members)
