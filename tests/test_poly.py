from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cikit.fields import QQ, GF
from cikit.poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    AmbientMismatch,
    InhomogeneousError,
    ParseError,
    PolyRing,
)


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def test_parse_and_print_roundtrip_examples(R):
    for text in ["3/2*x^2*y - y^3", "x^2 - y^2", "1", "0", "-x", "x*y + 2"]:
        p = R.from_string(text)
        assert R.from_string(p.to_string()) == p


def test_difference_of_squares(R):
    assert R.from_string("(x+y)*(x-y)") == R.from_string("x^2 - y^2")


def test_multiplication_by_zero_absorbs(R):
    p = R.from_string("3*x^2 + y")
    assert (p * R.zero()).is_zero()


def test_modular_coefficients():
    F5 = PolyRing(GF(5), ["x"])
    assert str(F5.from_string("(x+2)*(x+3)")) == "x^2 + 1"


def test_juxtaposition_product(R):
    assert R.from_string("3/2 x^2 y") == R.from_string("3/2*x^2*y")


def test_homogeneous_degree(R):
    assert R.from_string("x^2 + x*y").homogeneous_degree() == 2
    assert R.zero().homogeneous_degree() == -1
    with pytest.raises(InhomogeneousError):
        R.from_string("x^2 + y").homogeneous_degree()


def test_ambient_mismatch(R):
    other = PolyRing(QQ, ["x", "z"])
    with pytest.raises(AmbientMismatch):
        R.from_string("x") + other.from_string("x")


def test_parse_errors(R):
    with pytest.raises(ParseError):
        R.from_string("x +")
    with pytest.raises(ParseError):
        R.from_string("w")
    with pytest.raises(ParseError):
        R.from_string("x ^ y")
    with pytest.raises(ParseError, match="zero denominator in 1/0"):
        R.from_string("x^2 + 1/0*y^2")


def test_leading_terms_per_order():
    R3 = PolyRing(QQ, ["x", "y", "z"])
    p = R3.from_string("x*z^2 + y^3")
    # degrevlex: y^3 > x*z^2 (same degree, rightmost difference negative)
    assert p.leading_term(DEGREVLEX)[0] == (0, 3, 0)
    assert p.leading_term(DEGLEX)[0] == (1, 0, 2)
    assert p.leading_term(LEX)[0] == (1, 0, 2)


def test_partial_derivative(R):
    p = R.from_string("x^3*y + 2*y^2")
    assert p.partial_derivative(0) == R.from_string("3*x^2*y")
    assert p.partial_derivative(1) == R.from_string("x^3 + 4*y")


def test_partial_derivative_char_p():
    F7 = PolyRing(GF(7), ["x"])
    assert F7.from_string("x^7").partial_derivative(0).is_zero()


def test_monomials_of_degree(R):
    assert R.monomials_of_degree(0) == ((0, 0),)
    assert len(R.monomials_of_degree(3)) == 4
    empty = PolyRing(QQ, ())
    assert empty.monomials_of_degree(0) == ((),)
    assert empty.monomials_of_degree(1) == ()


# -- randomised ring axioms ---------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)
expts = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    ring = PolyRing(QQ, ["x", "y"])
    terms = draw(st.dictionaries(expts, coeffs, max_size=5))
    out = ring.zero()
    for e, c in terms.items():
        out = out + ring.monomial(e, Fraction(c))
    return out


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (-a) == a.ring.zero()


@settings(max_examples=60, deadline=None)
@given(polys())
def test_print_parse_roundtrip(p):
    assert p.ring.from_string(p.to_string()) == p


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_homogeneous_product_degree(a, b):
    # restrict to the homogeneous leading slices
    def top(p):
        d = max((sum(m) for m in p.terms), default=-1)
        if d < 0:
            return p
        terms = {m: c for m, c in p.terms.items() if sum(m) == d}
        from cikit.poly import Polynomial

        return Polynomial(p.ring, terms)

    ta, tb = top(a), top(b)
    if ta.is_zero() or tb.is_zero():
        return
    assert (ta * tb).homogeneous_degree() == ta.homogeneous_degree() + tb.homogeneous_degree()


# -- printing against the former body -------------------------------------------


def reference_to_string(p, order):
    """Reference: the former `Polynomial.to_string` body, which formatted
    the sign, the coefficient 1 and the joins itself."""
    if not p.terms:
        return "0"
    parts = []
    for m, c in p.sorted_terms(order):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(p.ring.names, m) if e)
        cs = str(c)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if mono and cs == "1":
            body = mono
        elif mono:
            body = f"{cs}*{mono}"
        else:
            body = cs
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


@st.composite
def printable_polys(draw):
    """Polynomials in 1-3 variables over Q, GF(7) or GF(32003) with
    coefficients +-1, other integers and fractions (which print negative
    over Q only), and exponent 0 allowed everywhere, so constant terms and
    bare variables occur."""
    field = draw(st.sampled_from((QQ, GF(7), GF(32003))))
    ring = PolyRing(field, ["x", "y", "z"][: draw(st.integers(1, 3))])
    coeff = st.tuples(st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 5)))
    expt = st.tuples(*[st.integers(0, 3)] * len(ring.names))
    out = ring.zero()
    for e, (num, den) in draw(st.dictionaries(expt, coeff, max_size=5)).items():
        if field.p is None or den % field.p:
            out = out + ring.monomial(e, field.of_fraction(num, den))
    return out


@settings(max_examples=300, deadline=None)
@given(printable_polys(), st.sampled_from((DEGREVLEX, DEGLEX, LEX)))
def test_to_string_matches_the_former_body(p, order):
    assert p.to_string(order) == reference_to_string(p, order)


# -- unary minus and the parser's precedence ------------------------------------


def test_unary_minus_binds_looser_than_a_power(R):
    # inside a term, as at the start of one, -a^n is -(a^n)
    assert R.from_string("x - -y^2") == R.from_string("x + y^2")
    assert R.from_string("x*-y^2") == R.from_string("-x*y^2")
    assert R.from_string("x*--y^2") == R.from_string("x*y^2")
    assert R.from_string("x + -2^2*y") == R.from_string("x - 4*y")
    assert R.from_string("x*(-y)^2") == R.from_string("x*y^2")
    assert R.from_string("-x^2") == R.from_string("-(x^2)")


def test_powers_of_one_term_match_repeated_products():
    for field in (QQ, GF(7)):
        ring = PolyRing(field, ["x", "y"])
        for text, product in (("(3/2*x*y^2)^3", "(3/2*x*y^2)*(3/2*x*y^2)*(3/2*x*y^2)"),
                              ("(-2*y)^5", "(-2*y)*(-2*y)*(-2*y)*(-2*y)*(-2*y)"),
                              ("(x+y)^2", "(x+y)*(x+y)"), ("(5*x)^0", "1"), ("0^2", "0")):
            assert ring.from_string(text) == ring.from_string(product), (field, text)


# expression trees: ("var", name), ("num", text), ("neg", a), ("add", a, b),
# ("sub", a, b), ("mul", a, b), ("pow", a, n).  Each prints at a binding
# level (0 sum, 1 product, 2 unary minus, 3 power, 4 atom) and puts
# parentheses round an operand that binds looser than its place needs.
_LEVEL = {"add": 0, "sub": 0, "mul": 1, "neg": 2, "pow": 3, "var": 4, "num": 4}

expr_trees = st.recursive(
    st.one_of(st.tuples(st.just("var"), st.sampled_from(["x", "y"])),
              st.tuples(st.just("num"), st.sampled_from(["0", "1", "2", "3/2", "7"]))),
    lambda sub: st.one_of(
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3))),
    max_leaves=8)


def _print_tree(t, level=0):
    kind = t[0]
    if kind in ("var", "num"):
        text = t[1]
    elif kind == "neg":
        text = "-" + _print_tree(t[1], 2)
    elif kind == "pow":
        text = f"{_print_tree(t[1], 4)}^{t[2]}"
    else:
        op = {"add": " + ", "sub": " - ", "mul": "*"}[kind]
        text = _print_tree(t[1], _LEVEL[kind]) + op + _print_tree(t[2], _LEVEL[kind] + 1)
    return text if _LEVEL[kind] >= level else f"({text})"


def _eval_tree(ring, t):
    kind = t[0]
    if kind == "var":
        return ring.gen(ring.names.index(t[1]))
    if kind == "num":
        num, _, den = t[1].partition("/")
        return ring.constant(ring.field.of_fraction(int(num), int(den or 1)))
    if kind == "neg":
        return -_eval_tree(ring, t[1])
    if kind == "pow":
        return _eval_tree(ring, t[1]) ** t[2]
    a, b = _eval_tree(ring, t[1]), _eval_tree(ring, t[2])
    return {"add": a + b, "sub": a - b, "mul": a * b}[kind]


@settings(max_examples=300, deadline=None)
@given(expr_trees, st.sampled_from([QQ, GF(32003)]))
@example(("mul", ("var", "x"), ("neg", ("pow", ("var", "y"), 2))), QQ)
@example(("sub", ("var", "x"), ("neg", ("pow", ("var", "y"), 2))), GF(32003))
def test_printed_expression_trees_parse_to_their_value(tree, field):
    # unary minus inside sums, products and powers, printed with the
    # fewest parentheses the precedence needs
    ring = PolyRing(field, ["x", "y"])
    text = _print_tree(tree)
    assert ring.from_string(text) == _eval_tree(ring, tree), text
