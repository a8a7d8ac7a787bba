import random
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domrec import (
    InputError,
    canonical_key,
    complete_graph,
    cycle_graph,
    d0_direct,
    enumerate_minimal_dominating,
    family_w,
    family_x,
    generate_gkr,
    generate_qkr,
    is_dominating,
    is_irredundant,
    is_minimal_dominating,
    mask_of,
    path_graph,
    popcount,
    sep_bottleneck,
    star,
    verify_gkr_structure,
    verify_qkr_structure,
)
from domrec import families
from conftest import synthetic_family
from naive import degree, edge_count, irredundance_witness, naive_structure_rows

GRID = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def test_gkr_orders_and_degrees():
    g, lay = generate_gkr(4, 3)
    assert g.n == 17 and lay.order == 17
    assert degree(g, lay.u0) == 4
    for j in range(1, 5):
        assert degree(g, lay.u(j)) == 7  # k-1 clique + apex + r matching edges
    for i in range(1, 4):
        for j in range(1, 5):
            assert degree(g, lay.v(i, j)) == 4  # k-1 clique + one matching edge
    g31, lay31 = generate_gkr(3, 1)
    assert g31.n == 7 and lay31.order == 7


def test_gkr_order_formula():
    for k, r in GRID:
        g, lay = generate_gkr(k, r)
        assert g.n == k * (r + 1) + 1 == lay.order
        q, qlay = generate_qkr(k, r)
        assert q.n == k * (r + 1) + 1 + r == qlay.order


def test_qkr_orders():
    q, _ = generate_qkr(4, 3)
    assert q.n == 20
    q31, _ = generate_qkr(3, 1)
    assert q31.n == 8


def test_qkr_saturator_adjacency():
    q, lay = generate_qkr(4, 2)
    for i in range(1, 3):
        wi = lay.w(i)
        expected = lay.hub_apex_mask | lay.leaf_mask(i)
        assert q.adj[wi] == expected


def test_parameter_validation():
    for bad in [(2, 1), (3, 0), (3, 3), (4, 4), (4, 0)]:
        with pytest.raises(InputError):
            generate_gkr(*bad)
        with pytest.raises(InputError):
            generate_qkr(*bad)


def test_family_x_counts_and_minimality():
    g31, lay31 = generate_gkr(3, 1)
    xs = family_x(lay31)
    assert len(xs) == 12 and all(popcount(x) == 2 for x in xs)
    assert all(is_minimal_dominating(g31, x) for x in xs)

    g43, lay43 = generate_gkr(4, 3)
    xs43 = family_x(lay43)
    assert len(xs43) == 320 and all(popcount(x) == 4 for x in xs43)


def test_family_w_counts():
    q43, lay43 = generate_qkr(4, 3)
    ws = family_w(lay43)
    assert len(ws) == 61 and all(popcount(w) == 3 for w in ws)
    fam = enumerate_minimal_dominating(q43)
    gamma_sets = [s for s in fam.sets if popcount(s) == fam.gamma]
    assert sorted(ws) == sorted(gamma_sets)

    q31, lay31 = generate_qkr(3, 1)
    ws31 = family_w(lay31)
    assert ws31 == [mask_of([lay31.w(1)])]


def test_structure_checks_pass_on_grid():
    for k, r in GRID:
        rep = verify_gkr_structure(k, r)
        assert rep.ok, rep.failures()
        assert rep.family_size == (k + 1) * k**r + 1
        qrep = verify_qkr_structure(k, r)
        assert qrep.ok, qrep.failures()
        assert qrep.family_size == (k + 1) * k**r + (k + 1) ** r - k**r + 1


_VERIFY = {"gkr": (generate_gkr, verify_gkr_structure), "qkr": (generate_qkr, verify_qkr_structure)}


@cache
def _enumerated(kind: str, k: int, r: int) -> tuple[int, ...]:
    return enumerate_minimal_dominating(_VERIFY[kind][0](k, r)[0]).sets


@st.composite
def tampered_cases(draw):
    """(construction, k, r, edits, shuffle seed or None)."""
    kind = draw(st.sampled_from(sorted(_VERIFY)))
    k, r = draw(st.sampled_from([(3, 1), (3, 2), (4, 2), (4, 3)]))
    edit = st.tuples(st.sampled_from(["drop", "add", "copy", "flip"]),
                     st.integers(0, 400), st.integers(0, 2**64 - 1))
    edits = tuple(draw(st.lists(edit, max_size=4)))
    return kind, k, r, edits, draw(st.none() | st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(tampered_cases())
# Set 300 of gkr(4,3) holds v1,4; adding v1,1 makes it the only bad set.
@example(("gkr", 4, 3, (("flip", 300, 5),), None))
# Set 381 of qkr(4,3) is its last: the only bad set is the family's last.
@example(("qkr", 4, 3, (("flip", 381, 5),), None))
# The hub set twice, shuffled: "only by the hub set" passes both copies.
@example(("gkr", 4, 2, (("copy", 0, 80), ("flip", 3, 0)), 1))
# Set 0 of gkr(4,3) is the hub set U; a second copy sits before the only bad
# set (now 301). It is an expected set, so it is not flagged, though the
# family no longer equals the expected one.
@example(("gkr", 4, 3, (("flip", 300, 5), ("copy", 0, 0)), None))
def test_verify_rows_match_the_set_by_set_oracle(case):
    kind, k, r, edits, shuffle = case
    make, verify = _VERIFY[kind]
    layout = make(k, r)[1]
    sets = list(_enumerated(kind, k, r))
    n = layout.order
    for op, at, value in edits:
        if op == "drop" and len(sets) > 1:
            del sets[at % len(sets)]
        elif op == "add":
            sets.insert(at % (len(sets) + 1), value % (1 << n))
        elif op == "copy":
            sets.insert(at % (len(sets) + 1), sets[value % len(sets)])
        elif op == "flip":
            sets[at % len(sets)] ^= 1 << value % n
    if shuffle is not None:
        random.Random(shuffle).shuffle(sets)
    fam = synthetic_family(sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "enumerate_minimal_dominating", lambda g, budget=None: fam)
        report = verify(k, r)
    rows = naive_structure_rows(layout, sets)
    names = {row[0] for row in rows}
    assert [(c.name, c.passed, c.detail) for c in report.checks if c.name in names] == rows
    # The rest read only the graph: two rows for gkr, three for qkr.
    graph_rows = [c for c in report.checks if c.name not in names]
    assert len(graph_rows) == {"gkr": 2, "qkr": 3}[kind]
    assert all(c.passed for c in graph_rows)
    assert report.ok == all(row[1] for row in rows)


# The oracle's rows that read one set at a time.
_PER_SET_ROWS = {
    "minimal-hits-each-leaf-clique-at-most-once", "minimal-hits-each-augmented-leaf-at-most-once",
    "apex-member-is-alone-in-hub-clique", "leaf-clique-missed-only-by-hub-set",
    "augmented-leaf-missed-only-by-hub-set", "saturator-member-excludes-hub-clique",
}


@pytest.mark.parametrize("kind", sorted(_VERIFY))
def test_no_expected_set_fails_a_per_set_check(kind):
    # verify scans only the enumerated sets outside the expected family, and
    # names the first bad one; that is the first bad set of the whole family
    # only because no expected set can be bad.
    make = _VERIFY[kind][0]
    for k in range(3, 7):
        for r in range(1, k):
            layout = make(k, r)[1]
            expected = family_x(layout) + [layout.hub_mask]
            if kind == "qkr":
                expected += family_w(layout)
            rows = [row for row in naive_structure_rows(layout, expected)
                    if row[0] in _PER_SET_ROWS]
            assert len(rows) == {"gkr": 3, "qkr": 4}[kind]
            assert all(passed for _, passed, _ in rows), (k, r, rows)


@pytest.mark.parametrize("kind", sorted(_VERIFY))
def test_expected_families_come_out_in_canonical_order(kind):
    # verify compares the enumerated family with the expected one as lists
    # and sorts neither: family_x is built in order, family_w is sorted once,
    # and U goes first or last by k - r.
    make = _VERIFY[kind][0]
    for k in range(3, 7):
        for r in range(1, k):
            layout = make(k, r)[1]
            expected = families._plus_hub(layout, family_x(layout))
            if kind == "qkr":
                expected = family_w(layout) + expected
            assert expected == sorted(set(expected), key=canonical_key), (k, r)


def test_gkr_gamma_branches():
    # Hub set is the unique maximum set below the maximal leaf count.
    rep = verify_gkr_structure(4, 2)
    names = {c.name for c in rep.checks}
    assert "hub-is-unique-maximum-set" in names
    # At the maximal leaf count everything has the same size.
    rep2 = verify_gkr_structure(3, 2)
    assert rep2.gamma == rep2.Gamma == 3


def test_qkr_maximum_set_branches():
    rep = verify_qkr_structure(4, 2)
    assert any(c.name == "hub-is-unique-maximum-set" and c.passed for c in rep.checks)
    rep2 = verify_qkr_structure(4, 3)
    assert any(
        c.name == "maximum-sets-are-construction-family-plus-hub" and c.passed
        for c in rep2.checks
    )


def test_irredundance_witness_properties():
    for k, r in GRID:
        g, lay = generate_gkr(k, r)
        w = irredundance_witness(lay)
        expected_size = k - 1 + max(r - 1, 0)
        assert popcount(w) == expected_size
        assert is_irredundant(g, w)
        assert not is_dominating(g, w)


def test_stock_generators():
    assert star(3).n == 4 and edge_count(star(3)) == 3
    assert cycle_graph(5).n == 5 and edge_count(cycle_graph(5)) == 5
    p1 = path_graph(1)
    assert p1.n == 1 and edge_count(p1) == 0
    assert edge_count(complete_graph(4)) == 6
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        star(0)


def test_values_hold_beyond_the_default_grid():
    # One clique size past the usual grid; same closed forms must hold.
    for k, r in [(5, 1), (5, 2)]:
        g, _ = generate_gkr(k, r)
        fam = enumerate_minimal_dominating(g)
        assert (fam.gamma, fam.Gamma) == (r + 1, k)
        assert len(fam.sets) == (k + 1) * k**r + 1
        assert d0_direct(g) == sep_bottleneck(fam).sep == k + r
        q, _ = generate_qkr(k, r)
        qfam = enumerate_minimal_dominating(q)
        assert (qfam.gamma, qfam.Gamma) == (r, k)
        assert len(qfam.sets) == (k + 1) * k**r + (k + 1) ** r - k**r + 1
        assert d0_direct(q) == sep_bottleneck(qfam).sep == k + r


def test_constructions_sit_at_the_gamma_plus_gamma_bound():
    # Gamma + 1 <= d0 <= Gamma + gamma for every graph with an edge. The
    # paper's qkr attains the upper bound, and gkr misses it by one.
    for k in range(3, 5):
        for r in range(1, k):
            for make, slack in ((generate_gkr, 1), (generate_qkr, 0)):
                g, _ = make(k, r)
                fam = enumerate_minimal_dominating(g)
                d0 = d0_direct(g, family=fam)
                assert d0 == sep_bottleneck(fam).sep == fam.Gamma + fam.gamma - slack, (k, r)


@pytest.mark.parametrize("make", [generate_gkr, generate_qkr], ids=["gkr", "qkr"])
def test_layout_names_every_vertex_in_numbering_order(make):
    for k in range(3, 6):
        for r in range(1, k):
            _, lay = make(k, r)
            names = ["u0"] + [f"u{j}" for j in range(1, k + 1)]
            names += [f"v{i},{j}" for i in range(1, r + 1) for j in range(1, k + 1)]
            if make is generate_qkr:
                names += [f"w{i}" for i in range(1, r + 1)]
            assert [lay.label(x) for x in range(lay.order)] == names
            for x in (-1, lay.order):
                with pytest.raises(InputError):
                    lay.label(x)


def test_labels_follow_frozen_numbering():
    _, lay = generate_gkr(3, 2)
    assert lay.label(lay.u0) == "u0"
    assert lay.label(lay.u(2)) == "u2"
    assert lay.label(lay.v(2, 3)) == "v2,3"
    _, qlay = generate_qkr(3, 2)
    assert qlay.label(qlay.w(2)) == "w2"
