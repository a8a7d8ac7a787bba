import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from domrec import DomFamily, Graph, is_connected, popcount  # noqa: E402

CORPUS_SEED = 20260808

# Pinned shapes: an edgeless graph, an isolated vertex beside two components,
# and two components with no isolated vertex.
SHAPES = (Graph.from_edges(5, []), Graph.from_edges(6, [(1, 2), (3, 4), (4, 5)]),
          Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n, rng.uniform(0.25, 0.75))
        if is_connected(g):
            return g


def connected_corpus(count: int, n_min: int = 4, n_max: int = 9) -> list[Graph]:
    rng = random.Random(CORPUS_SEED)
    return [
        random_connected_graph(rng, rng.randint(n_min, n_max))
        for _ in range(count)
    ]


@st.composite
def small_graphs(draw, max_n=6) -> Graph:
    """Any graph on 1..max_n vertices: edgeless, isolated vertices, several components."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


@st.composite
def edged_graphs(draw) -> Graph:
    """Any graph with at least one edge: isolated vertices and several
    components are as likely as connected graphs."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Graph.from_edges(n, edges)


@st.composite
def bipartite_graphs(draw, max_n=9) -> Graph:
    """A graph with an edge and no edge inside either of two sides, one
    holding vertex 0 and the other vertex 1; isolated vertices and several
    components are drawn too."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    side = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j]]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Graph.from_edges(n, edges)


@st.composite
def chordal_graphs(draw, max_n=9) -> Graph:
    """A graph with the edge 01 where each later vertex v joins a clique of
    vertices below v: the clique keeps each drawn candidate adjacent to all
    it holds so far. Every vertex is simplicial when added, so reading the
    vertices downward is a perfect elimination ordering: the graph is
    chordal."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    adj = [0] * n
    adj[0], adj[1] = 0b10, 0b01
    for v in range(2, n):
        for u in draw(st.lists(st.integers(0, v - 1), unique=True)):
            if adj[v] & ~adj[u] == 0:
                adj[v] |= 1 << u
        for u in range(v):
            if adj[v] >> u & 1:
                adj[u] |= 1 << v
    return Graph(n, tuple(adj))


def synthetic_family(sets) -> DomFamily:
    sizes = [popcount(s) for s in sets]
    return DomFamily(sets=tuple(sets), gamma=min(sizes), Gamma=max(sizes))


@st.composite
def synthetic_families(draw) -> DomFamily:
    """Distinct sets over 8, 16 or 64 vertices, from 2 up to well past the scan cutoff."""
    width = draw(st.sampled_from([8, 16, 64]))
    m = draw(st.integers(2, 150))
    sets = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=m, max_size=m, unique=True))
    return synthetic_family(sets)


# A largest set X with a subset inside the family, and 66 sets of two high
# vertices: the cut of X bounds sep by 4, but sep is 5, across {X, its subset}.
BOUND_BELOW_SEP = [0b1111, 0b0111] + [1 << 8 + i | 1 << 8 + j for i in range(12)
                                      for j in range(i + 1, 12)]


@pytest.fixture(scope="session")
def corpus200() -> list[Graph]:
    return connected_corpus(200)


@pytest.fixture(scope="session")
def corpus50() -> list[Graph]:
    return connected_corpus(50)
