"""Laurent arithmetic and the exchange relation."""

import random

import pytest

from tricross import (Matching, standard_diagram, empty_diagram, Region,
                      enumerate_tilings, tiling_to_diagram, init_cluster,
                      exchange_22, laurent_audit, random_walk, find_22_sites)
from tricross.cluster import (poly_add, poly_mul, poly_div_exact, poly_var,
                              poly_const, LaurentValue, lv_var, lv_mul,
                              lv_add, lv_div_exact, ExactDivisionError,
                              ClusterState, dump_values)


def rand_poly(rng, nvars, terms, deg=3, coeff=6):
    p = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg) for _ in range(nvars))
        c = rng.randint(-coeff, coeff)
        if c:
            p[m] = p.get(m, 0) + c
    return {m: c for m, c in p.items() if c}


def test_poly_division_inverts_multiplication():
    rng = random.Random(77)
    for _ in range(60):
        nv = rng.randint(1, 4)
        a = rand_poly(rng, nv, rng.randint(1, 5))
        b = rand_poly(rng, nv, rng.randint(1, 5))
        if not a or not b:
            continue
        prod = poly_mul(a, b)
        assert poly_div_exact(prod, b) == a


def test_poly_division_rejects_remainders():
    x = poly_var(2, 0)
    y = poly_var(2, 1)
    with pytest.raises(ExactDivisionError):
        poly_div_exact(poly_add(x, poly_const(2)), y)


def test_laurent_div_moves_fresh_variable_to_denominator():
    u = lv_add(lv_mul(lv_var(3, 0), lv_var(3, 1)),
               lv_mul(lv_var(3, 1), lv_var(3, 2)))
    e = lv_var(3, 2)
    f = lv_div_exact(u, e)
    assert f.den != (0, 0, 0)
    # f * e == u
    assert lv_mul(f, e) == u


def test_init_cluster_counts(rotation3):
    st = init_cluster(standard_diagram(rotation3))
    assert st.nvars == 3  # single crossing: three white sectors
    assert len(st.frozen) == 3
    st0 = init_cluster(empty_diagram())
    assert st0.nvars == 1


def test_init_cluster_tiling_dual_matches_face_colors():
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(2, 2))[0])
    st = init_cluster(d)
    whites = [f for f in d.faces() if f.color == 'white']
    assert st.nvars == len(whites)


def test_init_cluster_requires_connected(rotation3):
    from tricross import add_loop
    from tricross.moves import MoveError
    d = standard_diagram(rotation3)
    d2 = add_loop(d, d.faces()[0].key)
    with pytest.raises(MoveError):
        init_cluster(d2)


def _white_site(diagram):
    for site in find_22_sites(diagram):
        if diagram.face_by_key(site.face_key).color == 'white':
            return site
    return None


def test_exchange_formula_fresh_variables():
    for t in enumerate_tilings(Region.rectangle(4, 2)):
        d = tiling_to_diagram(t)
        site = _white_site(d)
        if site is None:
            continue
        st = init_cluster(d)
        st2 = exchange_22(st, site)
        changed = [v for v in st2.values.values() if v.terms() == 2]
        assert len(changed) == 1
        f = changed[0]
        # numerator ac + bd: two monomials of total degree 2, coeffs 1;
        # denominator is the exchanged variable
        assert sorted(c for _, c in f.num) == [1, 1]
        assert sum(f.den) == 1
        # numeric specialization a=..=e=1 gives 2
        assert sum(c for _, c in f.num) == 2
        return
    pytest.skip("no white-centered site in the sample")


def test_exchange_is_involution():
    for t in enumerate_tilings(Region.rectangle(4, 2)):
        d = tiling_to_diagram(t)
        site = _white_site(d)
        if site is None:
            continue
        st = init_cluster(d)
        st2 = exchange_22(st, site)
        pair = {site.x[0], site.y[0]}
        back = [s for s in find_22_sites(st2.diagram)
                if {s.x[0], s.y[0]} == pair][0]
        st3 = exchange_22(st2, back)
        assert sorted(map(str, st3.values.values())) \
            == sorted(map(str, st.values.values()))
        return
    pytest.skip("no white-centered site in the sample")


def test_black_exchange_changes_nothing():
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(2, 2))[0])
    site = find_22_sites(d)[0]
    assert d.face_by_key(site.face_key).color == 'black'
    st = init_cluster(d)
    st2 = exchange_22(st, site)
    assert sorted(map(str, st2.values.values())) \
        == sorted(map(str, st.values.values()))


def test_walk_audit_all_laurent_positive():
    rng = random.Random(123)
    for trial in range(12):
        w, h = [(4, 2), (4, 3)][trial % 2]
        tilings = enumerate_tilings(Region.rectangle(w, h))
        d = tiling_to_diagram(tilings[trial % len(tilings)])
        st = init_cluster(d)
        states, sites, ok = random_walk(st, 20, rng)
        assert ok
        report = laurent_audit(states)
        assert report["all_positive"]


def test_zero_move_walk_trivially_passes(rotation3):
    st = init_cluster(standard_diagram(rotation3))
    states, sites, ok = random_walk(st, 5, random.Random(0))
    assert states == [st] and sites == []  # one crossing: no 2<->2 site
    report = laurent_audit(states)
    assert ok and report["all_positive"]
    assert report["max_terms"] == 1


def test_audits_can_fail():
    """A walk whose exchange does not divide exactly stops with ok False;
    a value with a negative coefficient fails all_positive."""
    st = init_cluster(tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 3))[0]))
    one = LaurentValue.make(poly_const(st.nvars), (0,) * st.nvars)
    # x + 1 on every face: (ac + bd) / e no longer divides exactly
    shifted = ClusterState(st.diagram,
                           {k: lv_add(v, one) for k, v in st.values.items()},
                           st.frozen, st.nvars, st.var_names)
    states, sites, ok = random_walk(shifted, 20, random.Random(1))
    assert not ok and len(states) == len(sites) + 1 < 21
    assert laurent_audit(states)["all_positive"]
    minus = LaurentValue.make({(1,) + (0,) * (st.nvars - 1): -1},
                              (0,) * st.nvars)
    values = dict(st.values)
    values[min(values)] = minus
    negative = ClusterState(st.diagram, values, st.frozen, st.nvars,
                            st.var_names)
    assert not laurent_audit([st, negative])["all_positive"]


def test_pretty_prints_every_term_shape():
    v = LaurentValue.make({(1, 0): -1, (0, 1): 2, (0, 0): 3}, (0, 0))
    assert v.pretty() == "-x0 + 2*x1 + 3"
    assert str(LaurentValue.make({(1, 0): 1, (0, 1): -1}, (0, 0))) \
        == "x0 - x1"
    w = LaurentValue.make({(0, 2): 1, (1, 0): -1}, (1, 0))  # (b^2 - a) / a
    assert w.pretty(("a", "b")) == "-1 + a^-1*b^2"
    zero = lv_div_exact(LaurentValue.make({}, (0, 0)), lv_var(2, 0))
    assert zero.num == () and str(zero) == "0"


def test_zero_has_one_form():
    zero = LaurentValue.make({}, (0, 0))
    quotient = lv_div_exact(zero, lv_var(2, 0))
    assert quotient == zero and hash(quotient) == hash(zero)
    assert LaurentValue.make({}, (3, -1)) == zero


def test_dump_deterministic():
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(2, 2))[0])
    st = init_cluster(d)
    assert dump_values(st) == dump_values(init_cluster(d))
    lines = dump_values(st).splitlines()
    assert all("=" in line for line in lines)
