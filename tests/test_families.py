import pytest

from domrec import (
    InputError,
    complete_graph,
    cycle_graph,
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
    star,
    verify_gkr_structure,
    verify_qkr_structure,
)
from naive import irredundance_witness

GRID = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def test_gkr_orders_and_degrees():
    g, lay = generate_gkr(4, 3)
    assert g.n == 17 and lay.order == 17
    assert g.degree(lay.u0) == 4
    for j in range(1, 5):
        assert g.degree(lay.u(j)) == 7  # k-1 clique + apex + r matching edges
    for i in range(1, 4):
        for j in range(1, 5):
            assert g.degree(lay.v(i, j)) == 4  # k-1 clique + one matching edge
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
    assert star(3).n == 4 and star(3).edge_count() == 3
    assert cycle_graph(5).n == 5 and cycle_graph(5).edge_count() == 5
    p1 = path_graph(1)
    assert p1.n == 1 and p1.edge_count() == 0
    assert complete_graph(4).edge_count() == 6
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        star(0)


def test_values_hold_beyond_the_default_grid():
    # One clique size past the usual grid; same closed forms must hold.
    from domrec import d0_direct, sep_bottleneck

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
