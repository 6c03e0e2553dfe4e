from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
