"""Cluster variables on white faces and the 2<->2 exchange relation.

Every white face of a connected diagram carries a Laurent value: a
multivariate polynomial numerator over the initial indeterminates with
arbitrary-precision integer coefficients, divided by a single monomial.
A 2<->2 move with a white central face replaces its value e by

    f = (a*c + b*d) / e

where a, c are the two white faces diagonally opposite across the two
crossings of one pair, and b, d the other pair; a black central face
changes nothing.  The division is carried out exactly (it is an error,
not a rounding, when it fails), and canonical form strips any monomial
factor common to numerator and denominator, so a value is a Laurent
polynomial exactly when it says it is.

Polynomials are dicts mapping exponent tuples to ints; the monomial
order for printing and division is descending lexicographic.  A
``LaurentValue`` keeps its numerator as such pairs, sorted, and its
denominator as one exponent tuple.  The arithmetic combines exponent
tuples whole, through ``map`` with ``operator.add``/``sub``, ``min`` or
``max``, not by a Python loop over the variables, and applies no shift
that is all zero.
"""

from dataclasses import dataclass
from operator import add, sub

from .moves import apply_22, find_22_sites, MoveError, rekeyed_22


class ExactDivisionError(ArithmeticError):
    """A cluster exchange failed to divide exactly: an implementation bug."""


# ----------------------------------------------------------------------
# polynomial arithmetic

def poly_const(nvars):
    return {(0,) * nvars: 1}


def poly_var(nvars, index):
    exp = [0] * nvars
    exp[index] = 1
    return {tuple(exp): 1}


def poly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def poly_mul_monomial(a, exps, scale=1):
    return {tuple(map(add, m, exps)): c * scale for m, c in a.items()}


def _least(monomials):
    """The componentwise minimum of a nonempty list of exponent tuples."""
    return tuple(map(min, monomials[0], *monomials))


def _shifted(terms, exps, op=add):
    """The polynomial of the (exponents, coefficient) pairs ``terms`` with
    ``op`` applied between each exponent tuple and ``exps``; the pairs as
    they are when ``exps`` is all zero."""
    if not any(exps):
        return dict(terms)
    return {tuple(map(op, m, exps)): c for m, c in terms}


def poly_div_exact(a, b):
    """Exact multivariate division; raises ExactDivisionError otherwise."""
    if not b:
        raise ExactDivisionError("division by zero")
    if not a:
        return {}
    rem = dict(a)
    quot = {}
    lead_b = max(b)
    cb = b[lead_b]
    while rem:
        lead_r = max(rem)
        cr = rem[lead_r]
        exps = tuple(map(sub, lead_r, lead_b))
        if min(exps, default=0) < 0 or cr % cb:
            raise ExactDivisionError("nonzero remainder")
        coeff = cr // cb
        quot[exps] = quot.get(exps, 0) + coeff
        rem = poly_add(rem, poly_mul_monomial(b, exps, -coeff))
    return quot


# ----------------------------------------------------------------------
# Laurent values

@dataclass(frozen=True)
class LaurentValue:
    num: tuple       # sorted ((exps, coeff), ...) descending lex
    den: tuple       # monomial exponents, all nonnegative

    @staticmethod
    def make(num_dict, den_exps):
        if not num_dict:  # zero has one form: denominator 1
            return LaurentValue((), (0,) * len(den_exps))
        # divide both by the monomial of their least exponents: this
        # strips a common factor, and moves a negative denominator
        # exponent up into the numerator
        shift = tuple(map(min, *num_dict, den_exps))
        num = _shifted(num_dict.items(), shift, sub)
        return LaurentValue(tuple(sorted(num.items(), reverse=True)),
                            tuple(map(sub, den_exps, shift)))

    def num_dict(self):
        return dict(self.num)

    def terms(self):
        return len(self.num)

    def is_positive(self):
        return all(c > 0 for _, c in self.num)

    def __str__(self):
        return self.pretty()

    def pretty(self, names=None):
        if not self.num:
            return "0"
        parts = []
        for m, c in self.num:
            exps = tuple(x - d for x, d in zip(m, self.den))
            factors = []
            for i, e in enumerate(exps):
                name = names[i] if names else "x%d" % i
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def lv_var(nvars, index):
    return LaurentValue.make(poly_var(nvars, index), (0,) * nvars)


def lv_mul(u, v):
    return LaurentValue.make(poly_mul(u.num_dict(), v.num_dict()),
                             tuple(map(add, u.den, v.den)))


def lv_add(u, v):
    den = tuple(map(max, u.den, v.den))
    return LaurentValue.make(
        poly_add(_shifted(u.num, tuple(map(sub, den, u.den))),
                 _shifted(v.num, tuple(map(sub, den, v.den)))), den)


def lv_div_exact(u, v):
    """u / v in the Laurent ring, exact up to monomial units.

    Componentwise minimum degree is additive under polynomial products
    (lowest slices cannot cancel over the integers), so after stripping
    the minimum exponent vectors from numerator and divisor, Laurent
    divisibility is plain polynomial divisibility; the stripped shifts
    and the divisor's denominator move into the denominator.
    """
    if not v.num:
        raise ExactDivisionError("division by zero")
    if not u.num:
        return LaurentValue.make({}, u.den)
    u_min = _least([m for m, _ in u.num])
    v_min = _least([m for m, _ in v.num])
    quot = poly_div_exact(_shifted(u.num, u_min, sub),
                          _shifted(v.num, v_min, sub))
    den = tuple(map(add, map(sub, u.den, u_min), map(sub, v_min, v.den)))
    return LaurentValue.make(quot, den)


# ----------------------------------------------------------------------
# cluster state

@dataclass
class ClusterState:
    diagram: object
    values: dict          # white face key -> LaurentValue
    nvars: int
    var_names: tuple      # printable name per initial indeterminate


def init_cluster(diagram):
    """Fresh indeterminates on white faces, the boundary ones included."""
    violations = diagram.validate()
    if violations:
        raise MoveError("diagram does not validate: " + "; ".join(violations))
    if not diagram.is_connected():
        raise MoveError("cluster state needs a connected diagram")
    _, faces, keys, names = diagram.face_store()
    # (index, key code) of each white face
    whites = [(i, key) for i, key in enumerate(keys) if faces[key][1] & 1]
    nvars = len(whites)
    values = {names[key]: lv_var(nvars, v)
              for v, (_, key) in enumerate(whites)}
    return ClusterState(diagram, values, nvars,
                        tuple(["x%d" % i for i, _ in whites]))


def exchange_22(state, site):
    """Advance by a 2<->2 move, exchanging the central white variable;
    every other value goes with its face, to the key ``rekeyed_22`` gives."""
    diagram = state.diagram
    new_diagram = apply_22(diagram, site)
    rekeyed = rekeyed_22(diagram, new_diagram, site)
    values = {rekeyed.get(key, key): val for key, val in state.values.items()}
    _, faces, _, names = new_diagram.face_store()
    if values.keys() != {names[key] for key, (_, kind) in faces.items()
                         if kind & 1}:
        raise MoveError("face correspondence is not a white-face bijection")
    if diagram.face_codes(site.face_key)[1] & 1:  # a white centre
        # a and b at X's corners x1+2 and x1+4, c and d at Y's
        a, b, c, d = [
            state.values[diagram.face_key(('c', z, (z1 + t) % 6))]
            for z, z1 in (site.x, site.y) for t in (2, 4)]
        values[rekeyed[site.face_key]] = lv_div_exact(
            lv_add(lv_mul(a, c), lv_mul(b, d)), state.values[site.face_key])
    return ClusterState(new_diagram, values, state.nvars, state.var_names)


def laurent_audit(states):
    """Check every value across a walk for positive coefficients.

    ``states`` is the sequence produced by repeated exchanges from an
    initial cluster.  Returns {'all_positive', 'max_terms'}; whether
    every division was exact is ``random_walk``'s ``ok`` flag.
    """
    # an exchange carries every value but one over as the same object,
    # so each is audited once
    values = {id(val): val for st in states
              for val in st.values.values()}.values()
    return {"all_positive": all(map(LaurentValue.is_positive, values)),
            "max_terms": max(map(LaurentValue.terms, values), default=0)}


def random_walk(state, length, rng):
    """Random 2<->2 walk; returns (states, sites, all_laurent flag)."""
    states = [state]
    sites = []
    ok = True
    for _ in range(length):
        cands = find_22_sites(state.diagram)
        if not cands:
            break
        site = cands[rng.randrange(len(cands))]
        try:
            state = exchange_22(state, site)
        except ExactDivisionError:
            ok = False
            break
        states.append(state)
        sites.append(site)
    return states, sites, ok


def dump_values(state):
    """One line per variable-bearing face, deterministic order."""
    index = {key: state.diagram.face_index(key) for key in state.values}
    return "\n".join("x%d = %s" % (index[key], state.values[key].pretty(
        state.var_names)) for key in sorted(state.values, key=index.get))
