"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values; a :class:`Field` object only
bundles the arithmetic, and has no constant methods: zero and one are the
literals ``0`` and ``1``, ``not a`` tests zero and ``str(a)`` prints an
element.  Over GF(p) an element is an `int` in ``[0, p)``.
Over the rationals it is an `int` when integral and a `fractions.Fraction`
otherwise, never a float.  The constructors and `inv` keep to that; sums
and products of `Fraction`s can be integral `Fraction`s, which compare,
hash and print like the equal `int`.  Keeping elements unboxed, and
integral rationals as `int`, keeps the inner loops of the linear algebra
and polynomial kernels cheap: integral rational rows reach the integer
row-reduction kernel as they are.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldError(ValueError):
    pass


_PRIME_FIELD_SPEC = re.compile(r"(?:Fp\s*|F|GF)([0-9]+)|GF\(([0-9]+)\)")


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises :class:`FieldError` for
    n >= ``PRIMALITY_LIMIT``, where the fixed bases no longer decide."""
    if n >= PRIMALITY_LIMIT:
        raise FieldError(f"cannot certify primality of moduli >= {PRIMALITY_LIMIT}")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(q: Fraction):
    """``q`` as an `int` when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """The rationals (``p is None``) or GF(p) for an odd prime p.

    A rational element is an `int` when integral and a `Fraction`
    otherwise, never a float; a GF(p) element is an `int` in ``[0, p)``.

    Characteristic 2 is rejected globally: strict graded commutativity
    degenerates there and every downstream module assumes it.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not is_prime(p):
                raise FieldError(f"{p} is not prime")
            if p == 2:
                raise FieldError("characteristic 2 is not supported")
        self.p = p

    # -- classification ------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- arithmetic ----------------------------------------------------

    def of_int(self, n: int):
        return n if self.p is None else n % self.p

    def of_fraction(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if self.p is None:
            return _rational(Fraction(num, den))
        d = den % self.p
        if d == 0:
            raise FieldError(f"denominator {den} vanishes mod {self.p}")
        return (num * pow(d, self.p - 2, self.p)) % self.p

    def add(self, a, b):
        return (a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return (a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return (a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _rational(Fraction(1, a)) if self.p is None else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def add_into(self, terms: dict, key, c):
        """terms[key] += c in a sparse dict of nonzero elements: the key is
        dropped when the sum is zero."""
        s = terms.get(key, 0) + c
        if self.p is not None:
            s %= self.p
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)

    # -- text ------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Field":
        """Parse a field spec: ``Q``, ``QQ``, ``Fp N``, ``FN``, ``GFN`` or
        ``GF(N)``; anything else raises :class:`FieldError`."""
        text = text.strip()
        if text in ("Q", "QQ"):
            return QQ
        m = _PRIME_FIELD_SPEC.fullmatch(text)
        if m is None:
            raise FieldError(f"unrecognised field spec {text!r}")
        return Field(int(m.group(1) or m.group(2)))

    def spec_str(self) -> str:
        return "Q" if self.p is None else f"Fp {self.p}"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)
