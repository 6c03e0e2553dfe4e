"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples (one slot per ring variable, all of internal
degree 1); polynomials are dicts mapping exponent tuples to nonzero field
elements.  Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import add

from .fields import Field


class AmbientMismatch(ValueError):
    """Raised when operands live in different rings."""


class InhomogeneousError(ValueError):
    """Raised when a homogeneous-degree query meets a mixed-degree polynomial."""


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total order on exponent tuples refining divisibility.

    ``key(m)`` returns a tuple that sorts smallest-to-largest, so the
    leading monomial of a polynomial is ``max(terms, key=order.key)``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def key(self, m):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    @staticmethod
    def parse(text: str) -> "MonomialOrder":
        table = {"degrevlex": DEGREVLEX, "deglex": DEGLEX, "lex": LEX}
        try:
            return table[text.strip().lower()]
        except KeyError:
            raise ParseError(f"unknown monomial order {text!r}") from None


class _DegRevLex(MonomialOrder):
    def key(self, m):
        return (sum(m), tuple(-e for e in reversed(m)))


class _DegLex(MonomialOrder):
    def key(self, m):
        return (sum(m), m)


class _Lex(MonomialOrder):
    def key(self, m):
        return m


DEGREVLEX = _DegRevLex("degrevlex")
DEGLEX = _DegLex("deglex")
LEX = _Lex("lex")


def monomial_mul(a, b):
    return tuple(map(add, a, b))

def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))

def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))

def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# rings


class PolyRing:
    """A standard graded polynomial ring ``field[names]`` (every variable
    has internal degree 1).

    A ring is built once per computation: one CLI call, one corpus entry
    (``CorpusEntry.build``), one benchmark operation.  So its memo
    (:meth:`memo`) lives exactly as long as that computation, and a later
    computation on an equal ring starts from an empty one.  Equality and
    hashing read the field and the names only."""

    __slots__ = ("field", "names", "_index", "_memo")

    def __init__(self, field: Field, names):
        names = tuple(names)
        for n in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n):
                raise ParseError(f"bad variable name {n!r}")
        if len(set(names)) != len(names):
            raise ParseError("duplicate variable names")
        self.field = field
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._memo: dict = {}

    def memo(self, key, compute):
        """The value of ``compute()``, computed once per key and ring."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    # -- constructors ----------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def constant(self, c) -> "Polynomial":
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, expts, coeff=None) -> "Polynomial":
        if coeff is None:
            coeff = 1
        if not coeff:
            return self.zero()
        return Polynomial(self, {tuple(expts): coeff})

    def from_string(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)

    # -- graded slices ---------------------------------------------------

    def monomials_of_degree(self, d: int):
        """All exponent tuples of total degree d, in a fixed canonical
        (descending lexicographic) order."""
        return _monomials_of_degree(self.nvars, d)

    def slice_dim(self, d: int) -> int:
        return len(self.monomials_of_degree(d))


@lru_cache(maxsize=None)
def _monomials_of_degree(nvars: int, d: int):
    if d < 0:
        return ()
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero coefficient

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int:
        """Common degree of all terms; raises on mixed degrees, -1 on zero."""
        degs = {sum(m) for m in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            raise InhomogeneousError(f"mixed degrees {sorted(degs)} in {self}")
        return degs.pop()

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, 0)

    def leading_term(self, order: MonomialOrder = DEGREVLEX):
        """(exponent tuple, coefficient) of the order-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise AmbientMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            F.add_into(out, m, c)
        return Polynomial(self.ring, out)

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.ring.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                F.add_into(out, monomial_mul(m1, m2), F.mul(c1, c2))
        return Polynomial(self.ring, out)

    def scale(self, c):
        if not c:
            return self.ring.zero()
        F = self.ring.field
        return Polynomial(self.ring, {m: F.mul(c, v) for m, v in self.terms.items()})

    def mul_monomial(self, expts, coeff=None):
        F = self.ring.field
        if coeff is None:
            coeff = 1
        if not coeff:
            return self.ring.zero()
        expts = tuple(expts)
        return Polynomial(
            self.ring,
            {monomial_mul(m, expts): F.mul(c, coeff) for m, c in self.terms.items()},
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to the i-th variable."""
        F = self.ring.field
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            coeff = F.mul(c, F.of_int(e))
            if not coeff:
                continue  # characteristic divides the exponent
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = coeff
        return Polynomial(self.ring, out)

    # -- printing -----------------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX):
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"<{self.to_string()}>"

    def to_string(self, order: MonomialOrder = DEGREVLEX) -> str:
        return _join_terms(
            ([n if e == 1 else f"{n}^{e}" for n, e in zip(self.ring.names, m) if e], str(c))
            for m, c in self.sorted_terms(order)
        )


def _join_terms(terms) -> str:
    """`x^2 - 3/2*x*y + 1` from (factor strings, coefficient text) pairs in
    print order: a coefficient 1 is left out before factors, a leading sign
    joins the first term and later ones are joined by " + " or " - "."""
    parts = []
    for factors, cs in terms:
        negative = cs.startswith("-")
        cs = cs.removeprefix("-")
        body = "*".join(factors if factors and cs == "1" else [cs, *factors])
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# parser: identifiers, ^, * (juxtaposition allowed), +, -, parentheses,
# integer or a/b rational coefficients, e.g. "3/2*x^2*y - y^3"

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"bad character at {text[m.start():]!r}")
        val = m.group(kind)
        tokens.append((val, val) if kind == "op" else (kind, val))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self) -> Polynomial:
        """A sum of products, collected into one dict of terms."""
        field = self.ring.field
        terms: dict = {}
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        while True:
            for m, c in self.parse_product().terms.items():
                field.add_into(terms, m, c if sign > 0 else field.neg(c))
            if self.peek() not in ("+", "-"):
                return Polynomial(self.ring, terms)
            sign = 1 if self.next()[0] == "+" else -1

    def parse_product(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind = self.peek()
            if kind == "*":
                self.next()
                result = result * self.parse_factor()
            elif kind in ("num", "name", "("):  # juxtaposition
                result = result * self.parse_power()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        """A power, or a unary minus before a factor: it binds looser than
        ``^``, so ``x*-y^2`` is -x*y^2, as a leading minus is."""
        if self.peek() == "-":
            self.next()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Polynomial:
        """An atom, or an atom to a non-negative integer power.  A term c*m
        goes to c^n * m^n directly; any other base through
        :meth:`Polynomial.__pow__`."""
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.next()
        kind, val = self.next()
        if kind != "num" or "/" in val:
            raise ParseError("exponent must be a non-negative integer")
        n = int(val)
        if len(base.terms) != 1 or not n:
            return base ** n
        ((m, c),) = base.terms.items()
        p = self.ring.field.p
        return Polynomial(self.ring, {tuple(e * n for e in m): pow(c, n, p) if p else c ** n})

    def parse_atom(self) -> Polynomial:
        kind, val = self.next()
        if kind == "num":
            if "/" in val:
                num, den = val.split("/")
                if int(den) == 0:
                    raise ParseError(f"zero denominator in {val}")
                return self.ring.constant(self.ring.field.of_fraction(int(num), int(den)))
            return self.ring.constant(self.ring.field.of_int(int(val)))
        if kind == "name":
            if val not in self.ring._index:
                raise ParseError(f"unknown variable {val!r} in {self.ring}")
            return self.ring.gen(self.ring._index[val])
        if kind == "(":
            inner = self.parse_expr()
            if self.next()[0] != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    parser = _Parser(ring, _tokenize(text))
    result = parser.parse_expr()
    if parser.peek() != "end":
        raise ParseError(f"trailing input in {text!r}")
    return result


def parse_poly_list(ring: PolyRing, text: str):
    """Parse a comma-separated list of polynomials."""
    text = text.strip()
    if not text:
        return []
    return [ring.from_string(part) for part in text.split(",") if part.strip()]
