"""Laurent arithmetic and the exchange relation.

The ``reference_*`` functions are the Laurent arithmetic as it was
written before its exponent tuples went through ``map``: one generator
per operation over all the variables.  The library must give the values
they give, and both must agree with an evaluation in ``Fraction``s.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricross import (DiagramError, Matching, standard_diagram, empty_diagram,
                      Region, enumerate_tilings, tiling_to_diagram,
                      init_cluster, exchange_22, laurent_audit, random_walk,
                      find_22_sites)
from tricross import cluster as cluster_module
from tricross.cluster import (poly_add, poly_mul, poly_div_exact, poly_var,
                              poly_const, LaurentValue, lv_var, lv_mul,
                              lv_add, lv_div_exact, ExactDivisionError,
                              ClusterState, dump_values)
from tricross.moves import MoveError

from test_face_labels import swap_two_white_values
from test_golden import random_pairing


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


def test_zero_divides_to_zero():
    y = poly_var(2, 1)
    assert poly_div_exact({}, y) == {}
    with pytest.raises(ExactDivisionError):
        poly_div_exact(y, {})
    zero = LaurentValue.make({}, (1, 0))
    assert zero == LaurentValue((), (0, 0))
    assert lv_div_exact(zero, lv_var(2, 1)) == zero
    with pytest.raises(ExactDivisionError):
        lv_div_exact(lv_var(2, 1), zero)


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
    # all three are boundary faces: white (1) on the boundary (4)
    assert sum(kind == 5 for _, kind
               in st.diagram.face_store()[1].values()) == 3
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
                           st.nvars, st.var_names)
    states, sites, ok = random_walk(shifted, 20, random.Random(1))
    assert not ok and len(states) == len(sites) + 1 < 21
    assert laurent_audit(states)["all_positive"]
    minus = LaurentValue.make({(1,) + (0,) * (st.nvars - 1): -1},
                              (0,) * st.nvars)
    values = dict(st.values)
    values[min(values)] = minus
    negative = ClusterState(st.diagram, values, st.nvars, st.var_names)
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


# ----------------------------------------------------------------------
# the arithmetic against its generator-based reference and Fractions

def reference_poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def reference_mul_monomial(a, exps, scale=1):
    return {tuple(x + y for x, y in zip(m, exps)): c * scale
            for m, c in a.items()}


def reference_poly_div(a, b):
    if not a:
        return {}
    rem = dict(a)
    quot = {}
    lead_b = max(b)
    cb = b[lead_b]
    while rem:
        lead_r = max(rem)
        cr = rem[lead_r]
        exps = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(e < 0 for e in exps) or cr % cb:
            raise ExactDivisionError("nonzero remainder")
        coeff = cr // cb
        quot[exps] = quot.get(exps, 0) + coeff
        rem = poly_add(rem, reference_mul_monomial(b, exps, -coeff))
    return quot


def reference_make(num_dict, den_exps):
    if not num_dict:
        return LaurentValue((), (0,) * len(den_exps))
    lift = tuple(max(0, -d) for d in den_exps)
    if any(lift):
        num_dict = reference_mul_monomial(num_dict, lift)
        den_exps = tuple(d + l for d, l in zip(den_exps, lift))
    mins = [min(m[i] for m in num_dict) for i in range(len(den_exps))]
    shift = tuple(min(a, b) for a, b in zip(mins, den_exps))
    num = {tuple(x - s for x, s in zip(m, shift)): c
           for m, c in num_dict.items()}
    den = tuple(d - s for d, s in zip(den_exps, shift))
    return LaurentValue(tuple(sorted(num.items(), reverse=True)), den)


def reference_mul(u, v):
    return reference_make(reference_poly_mul(dict(u.num), dict(v.num)),
                          tuple(a + b for a, b in zip(u.den, v.den)))


def reference_add(u, v):
    den = tuple(max(a, b) for a, b in zip(u.den, v.den))
    nu = reference_mul_monomial(dict(u.num),
                                tuple(d - a for d, a in zip(den, u.den)))
    nv = reference_mul_monomial(dict(v.num),
                                tuple(d - b for d, b in zip(den, v.den)))
    return reference_make(poly_add(nu, nv), den)


def reference_div(u, v):
    target = reference_mul_monomial(dict(u.num), v.den)
    divisor = dict(v.num)
    nv = len(u.den)
    t_min = tuple(min(m[i] for m in target) for i in range(nv)) \
        if target else (0,) * nv
    v_min = tuple(min(m[i] for m in divisor) for i in range(nv))
    target0 = reference_mul_monomial(target, tuple(-t for t in t_min))
    divisor0 = reference_mul_monomial(divisor, tuple(-t for t in v_min))
    quot = reference_poly_div(target0, divisor0)
    den = tuple(d - t + s for d, t, s in zip(u.den, t_min, v_min))
    return reference_make(quot, den)


def monomial_at(exps, point):
    out = Fraction(1)
    for p, e in zip(point, exps):
        out *= p ** e
    return out


def evaluate(num_dict, den_exps, point):
    """num / den at ``point``, from the raw parts (any signs)."""
    return sum((c * monomial_at(m, point) for m, c in num_dict.items()),
               Fraction(0)) / monomial_at(den_exps, point)


def value_at(value, point):
    return evaluate(dict(value.num), value.den, point)


def is_normal_form(value, nvars):
    if not value.num:  # zero has one form
        return value == LaurentValue((), (0,) * nvars)
    monomials = [m for m, _ in value.num]
    return (len(value.den) == nvars and min(value.den, default=0) >= 0
            and all(c for _, c in value.num)
            and list(value.num) == sorted(value.num, reverse=True)
            and len(set(monomials)) == len(monomials)
            and all(min(column) == 0
                    for column in zip(*monomials, value.den)))


@st.composite
def raw_laurent(draw, nvars):
    """(numerator dict, denominator exponents): at most 4 terms, exponents
    0-3 on top, -2 to 3 below, signed nonzero coefficients."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    num = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                               max_size=4))
    den = draw(st.tuples(*[st.integers(-2, 3)] * nvars))
    return num, den


@st.composite
def laurent_cases(draw):
    """nvars <= 6, two raw Laurent values and a positive point."""
    nvars = draw(st.integers(0, 6))
    point = tuple(Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
                  for _ in range(nvars))
    return nvars, draw(raw_laurent(nvars)), draw(raw_laurent(nvars)), point


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(laurent_cases())
def test_laurent_arithmetic_matches_the_reference_and_fractions(case):
    nvars, (num_u, den_u), (num_v, den_v), point = case
    u = LaurentValue.make(num_u, den_u)
    v = LaurentValue.make(num_v, den_v)
    assert u == reference_make(num_u, den_u)
    assert v == reference_make(num_v, den_v)
    for value in (u, v):
        assert is_normal_form(value, nvars)
    assert value_at(u, point) == evaluate(num_u, den_u, point)
    product = lv_mul(u, v)
    assert product == reference_mul(u, v)
    assert value_at(product, point) == value_at(u, point) * value_at(v, point)
    total = lv_add(u, v)
    assert total == reference_add(u, v)
    assert value_at(total, point) == value_at(u, point) + value_at(v, point)
    for value in (product, total):
        assert is_normal_form(value, nvars)
    if v.num:
        quotient = lv_div_exact(product, v)
        assert quotient == reference_div(product, v) == u
        assert value_at(quotient, point) == value_at(u, point)
    else:
        with pytest.raises(ExactDivisionError):
            lv_div_exact(product, v)


def test_normal_form_check_can_fail():
    assert not is_normal_form(LaurentValue((((1, 1), 1),), (1, 0)), 2)
    assert not is_normal_form(LaurentValue((((0, 1), 1),), (-1, 0)), 2)
    assert not is_normal_form(LaurentValue((), (1, 0)), 2)
    assert is_normal_form(LaurentValue((((0, 1), 1),), (1, 0)), 2)


# ----------------------------------------------------------------------
# each exchange checked by evaluation, each other value followed by
# its darts, not by the move's face map

def outside_image(old, new, site, key):
    """The face of ``new`` that the face ``key`` of ``old`` becomes: the
    one holding its first dart off the move's two crossings, which the
    move leaves where it was."""
    pair = (site.x[0], site.y[0])
    for dart in old.face_by_key(key).darts:
        if dart[0] != 'c' or dart[1] not in pair:
            return new.face_of(dart).key
    raise AssertionError("face %r lies on the move's crossings" % (key,))


def exchange_errors(states, sites, point):
    """The first step whose values break the exchange relation
    f*e = a*c + b*d at ``point``, or move a value the exchange leaves
    alone; None when there is none."""
    for step, (pre, post, site) in enumerate(zip(states, states[1:], sites)):
        old, new = pre.diagram, post.diagram
        (X, x1), (Y, y1) = site.x, site.y
        central = old.face_by_key(site.face_key)
        for key, value in pre.values.items():
            if key != central.key and \
                    post.values.get(outside_image(old, new, site, key)) \
                    != value:
                return "step %d: the value of %r moved" % (step, key)
        if central.color != 'white':
            continue

        def at(d, crossing, slot):
            return value_at(pre.values[d.face_of(('c', crossing,
                                                  slot % 6)).key], point)
        e = value_at(pre.values[central.key], point)
        f = value_at(post.values[new.face_of(('c', X, (x1 + 4) % 6)).key],
                     point)
        if f * e != (at(old, X, x1 + 2) * at(old, Y, y1 + 2)
                     + at(old, X, x1 + 4) * at(old, Y, y1 + 4)):
            return "step %d: f*e != a*c + b*d" % step
    return None


def seeded_walks():
    """Walks of 20 exchanges on four duals each of the 4x3 and 4x4
    rectangles, each with a positive point."""
    rng = random.Random(20)
    for w, h in ((4, 3), (4, 4)):
        tilings = enumerate_tilings(Region.rectangle(w, h))
        for _ in range(4):
            state = init_cluster(tiling_to_diagram(rng.choice(tilings)))
            point = tuple(Fraction(rng.randint(1, 10 ** 6),
                                   rng.randint(1, 10 ** 6))
                          for _ in range(state.nvars))
            yield random_walk(state, 20, rng), point


def test_every_exchange_satisfies_the_relation_by_evaluation():
    white = 0
    for (states, sites, ok), point in seeded_walks():
        assert ok and len(sites) == 20
        assert exchange_errors(states, sites, point) is None
        white += sum(s.diagram.face_by_key(site.face_key).color == 'white'
                     for s, site in zip(states, sites))
    assert white >= 40


def test_evaluation_catches_a_face_map_that_swaps_two_values(monkeypatch):
    """Two white values other than the central one trade faces: every
    division stays exact, yet the check fails."""
    swap_two_white_values(monkeypatch)
    for (states, sites, ok), point in seeded_walks():
        assert exchange_errors(states, sites, point) is not None


def test_exchange_refuses_a_hand_off_that_sends_two_faces_to_one(
        monkeypatch):
    rekeyed_22 = cluster_module.rekeyed_22

    def merged(diagram, new, site):
        rekeyed = rekeyed_22(diagram, new, site)
        old = {nk: key for key, nk in rekeyed.items()}
        p, q = sorted(f.key for f in new.faces() if f.color == 'white')[:2]
        rekeyed[old.get(q, q)] = p
        return rekeyed

    state = init_cluster(tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 3))[0]))
    site = find_22_sites(state.diagram)[0]
    assert exchange_22(state, site).values
    monkeypatch.setattr(cluster_module, "rekeyed_22", merged)
    with pytest.raises(MoveError, match="not a white-face bijection"):
        exchange_22(state, site)


# ----------------------------------------------------------------------
# init_cluster's refusal

def test_init_cluster_names_the_violations():
    rng = random.Random(5)
    refused = 0
    for _ in range(200):
        d = random_pairing(rng)
        violations = d.validate()
        if not violations:
            continue
        with pytest.raises(MoveError) as refusal:
            init_cluster(d)
        with pytest.raises(DiagramError) as check:
            d.check()
        assert str(refusal.value) == "diagram does not validate: " \
            + "; ".join(violations)
        assert str(refusal.value).endswith(str(check.value))
        refused += 1
    assert refused >= 50
