"""Groebner bases, normal forms, and graded-module primitives.

Two engines live here.  Buchberger's algorithm provides ideal-level
normal forms and lead-term data (standard monomials, height).
Its reductions and every normal form run on one loop, :func:`_remainder`,
over divisor data built once per element by :func:`_divisor`, in
Buchberger and in the :class:`GroebnerBasis` it hands its packed elements to;
:func:`multivariate_divide`, the textbook division with quotients, is the
reference that checks them.  Over Q, Buchberger keeps its elements as
primitive integer polynomials and reduces without fractions, each
remainder an integer multiple of the exact one, and makes the final basis
monic.  Normal forms divide by that monic data, so they are exact.
Module-level work (syzygies, minimal generators, Hilbert functions of
presented modules) runs degree by degree through exact linear algebra on
finite-dimensional graded slices, which keeps one code path for modules
over R and over quotients S = R/I: a slice is taken in quotient
coordinates, on a k-basis of S_e read off the RREF of I_e, so slice sizes
follow HF_S.  Over R the ideal is zero and the coordinates are the monomial
ones.  In both engines monomials are packed integer keys (:func:`_pack`),
under which the key of a product is the sum of its factors' keys, so no
exponent tuple is built on the row path, in Buchberger's loop or in a
normal form.  Buchberger and normal forms use keys fitted to the monomial
order (:class:`_OrderKeys`): the basis is homogeneous, so a reduction
step keeps to one degree, where terms compare as integers, and
divisibility and lcms are read off guard bits, which need degrees below
2^15.  Exponent tuples are built only for the elements and leads a
:class:`GroebnerBasis` hands back and for the normal forms it returns.
Each ideal keeps one table of S_e per degree, on these keys
(:meth:`Ideal.quotient_slice`).
The same :class:`ModulePresentation` slices serve the minimal model, whose differential
d: A_h -> A_{h-1} is a matrix over R on its dg monomials
(:mod:`cikit.dgmodel`), and the free-summand probe of Koszul H1, which
reads Hom(H1, S) off the syzygy slices of the transposed presentation
(:mod:`cikit.koszul`).

Every Hilbert function of a presented module is a list of slice ranks,
:meth:`ModulePresentation.image_slice_dim`, and each distinct matrix is
ranked at most once per computation: the ranks are kept on the ring, which
one computation builds and no later one reuses, under the key (modulus
object, row degrees, columns, d).  Two routes that meet on an identical
matrix share its rank; a matrix that differs anywhere gets its own.
Some slices are not ranked at all, because the grading settles them.  S is
standard graded, so S_{e+1} = S_1 S_e, and for a free module F with every
row degree at most e, F_{e+1} = S_1 F_e.  So a submodule that fills F_e
fills F_{e+1}: an image of full rank in degree e has full rank in degree
e + 1 (:meth:`ModulePresentation.image_slice_dim`), and S_e = 0 in a degree
e >= 0 gives S_{e+1} = 0 (:meth:`Ideal.quotient_slice`).

Degree bounds are explicit everywhere a module is only knowable up to a
slice: results above the bound are reported as unknown, never guessed.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd
from struct import Struct

from . import linalg
from .poly import (
    DEGREVLEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class UnitIdeal(ValueError):
    """The homogeneous ideal contains a unit."""


def _reject_unit(ideal: Ideal):
    """Raise UnitIdeal when the homogeneous ideal holds a nonzero constant."""
    if any(g.homogeneous_degree() == 0 for g in ideal.generators):
        raise UnitIdeal("ideal contains a unit")


# Bits per exponent in a packed monomial key (:func:`_pack`).
_PACK_BITS = 16
# Degrees below this leave the top bit of every field free, as a guard for
# divisibility tests on packed keys (:func:`_divides`).
_GUARDED_LIMIT = 1 << (_PACK_BITS - 1)


class PackedDegreeError(ValueError):
    """A degree is beyond what packed monomial keys (:func:`_pack`) hold."""


def _pack(m) -> int:
    """The packed key sum_i m_i * 2^(_PACK_BITS * i) of an exponent tuple.

    While every exponent is below 2^_PACK_BITS no two tuples share a key and
    the key of a product is the sum of the factors' keys."""
    key = 0
    for e in reversed(m):
        key = (key << _PACK_BITS) | e
    return key


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of length n whose :func:`_pack` key is ``key``."""
    mask = (1 << _PACK_BITS) - 1
    return tuple((key >> (_PACK_BITS * i)) & mask for i in range(n))


def _check_guarded(d: int):
    """Raise PackedDegreeError unless degree-d monomials keep their guard bits."""
    if d >= _GUARDED_LIMIT:
        raise PackedDegreeError(
            f"degree {d} is beyond the guarded {_PACK_BITS}-bit packed exponents")


def _divides(l: int, m: int, guards: int) -> bool:
    """Whether the monomial of :func:`_pack` key l divides that of key m,
    both of degree below _GUARDED_LIMIT, with ``guards`` the key with the
    top bit of every field set: the guard of field i survives
    (m | guards) - l iff m_i >= l_i, and no field borrows from the next."""
    return ((m | guards) - l) & guards == guards


def _lcm(a: int, b: int, guards: int) -> int:
    """The :func:`_pack` key of the lcm of the monomials of keys a and b, of
    degree below _GUARDED_LIMIT: the guards that survive (a | guards) - b
    mark the fields where a_i >= b_i (:func:`_divides`), and each spreads to
    a mask of the bits below it."""
    ge = ((a | guards) - b) & guards
    mask = ge - (ge >> (_PACK_BITS - 1))
    return (a & mask) | (b & ~mask)


def _degree(key: int) -> int:
    """The degree of the monomial of :func:`_pack` key ``key``, when it is
    below 2^_PACK_BITS - 1: 2^_PACK_BITS is 1 modulo 2^_PACK_BITS - 1, so the
    key is the sum of its fields modulo that number."""
    return key % ((1 << _PACK_BITS) - 1)


class _OrderKeys:
    """Monomial keys of the Groebner loops (:func:`_remainder`,
    :func:`buchberger`) under one monomial order in n variables.

    The key of m is -_pack(m) under degrevlex and _pack(m reversed) under
    deglex and lex, and ``sign`` * key is the :func:`_pack` key of m or of m
    reversed, its positive key, on which divisibility and lcms are read
    (:func:`_divides`, :func:`_lcm`).  Both are sums over factors, so the
    key of a product is the sum of the factors' keys.

    Of two monomials of one degree below _GUARDED_LIMIT the larger has the
    larger key.  Comparing _pack keys as integers compares exponents from
    the most significant field down: the last variable's for _pack(m), the
    first variable's for _pack(m reversed).  Of two monomials of one
    degree, the larger under degrevlex has the smaller exponent at the last
    variable where they differ, so the smaller _pack key and the larger
    key; under lex, and deglex within a degree, it has the larger exponent
    at the first variable where they differ, so the larger key.  Lex keys
    compare so across degrees as well; leads of different degrees are
    sorted by :meth:`rank`."""

    __slots__ = ("nvars", "sign", "graded", "guards", "_fields", "_byteorder")

    def __init__(self, order: MonomialOrder, nvars: int):
        self.nvars = nvars
        self.sign = -1 if order.name == "degrevlex" else 1
        self.graded = order.name != "lex"
        self.guards = _pack((_GUARDED_LIMIT,) * nvars)
        # with 16-bit fields, _pack(m) reads m's exponents as little-endian
        # unsigned shorts, and _pack(m reversed) reads them big-endian
        self._byteorder = "little" if self.sign < 0 else "big"
        self._fields = Struct(("<" if self.sign < 0 else ">") + "H" * nvars)

    def key(self, m) -> int:
        return self.sign * int.from_bytes(self._fields.pack(*m), self._byteorder)

    def monomial(self, key: int) -> tuple:
        return self._fields.unpack((self.sign * key).to_bytes(2 * self.nvars, self._byteorder))

    def terms(self, f: Polynomial) -> dict:
        """The terms of f on keys.  A term of degree _GUARDED_LIMIT or more
        raises PackedDegreeError."""
        _check_guarded(max(map(sum, f.terms), default=0))
        pack, byteorder, sign = self._fields.pack, self._byteorder, self.sign
        return {sign * int.from_bytes(pack(*m), byteorder): c for m, c in f.terms.items()}

    def polynomial(self, ring: PolyRing, terms: dict) -> Polynomial:
        unpack, byteorder, sign = self._fields.unpack, self._byteorder, self.sign
        width = 2 * self.nvars
        return Polynomial(ring, {unpack((sign * k).to_bytes(width, byteorder)): c
                                 for k, c in terms.items()})

    def rank(self, lead: int):
        """Sort key, in the monomial order, of the monomial of positive key
        ``lead``, of degree below 2^_PACK_BITS - 1, across degrees: (degree,
        key) under the graded orders, the key under lex."""
        key = self.sign * lead
        return (_degree(lead), key) if self.graded else key


@lru_cache(maxsize=None)
def _order_keys(order: MonomialOrder, nvars: int) -> _OrderKeys:
    return _OrderKeys(order, nvars)


# ---------------------------------------------------------------------------
# division and Buchberger


def multivariate_divide(f: Polynomial, divisors, order: MonomialOrder = DEGREVLEX):
    """Divide f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i * d_i) + r and no term
    of r divisible by any divisor's leading term.

    This is the textbook algorithm on exponent tuples, kept as the
    reference: Buchberger and normal forms run on :func:`_remainder`, while
    the checks that a basis and its S-pairs reduce to zero divide with this
    function, so they share no code with what they check.
    """
    ring = f.ring
    F = ring.field
    for d in divisors:
        if d.ring != ring:
            raise ValueError("divisor in wrong ring")
        if d.is_zero():
            raise ZeroDivisionError("zero divisor")
    lts = [d.leading_term(order) for d in divisors]
    quotients = [dict() for _ in divisors]
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(lts):
            if monomial_divides(lm, m):
                q_mon = monomial_div(m, lm)
                q_coeff = F.div(c, lc)
                qd = quotients[i]
                qd[q_mon] = F.add(qd.get(q_mon, 0), q_coeff)
                for dm, dc in divisors[i].terms.items():
                    if dm == lm:
                        continue
                    t = monomial_mul(dm, q_mon)
                    s = F.sub(work.get(t, 0), F.mul(dc, q_coeff))
                    if not s:
                        work.pop(t, None)
                    else:
                        work[t] = s
                break
        else:
            remainder[m] = c
    qs = [Polynomial(ring, {m: c for m, c in q.items() if c}) for q in quotients]
    return qs, Polynomial(ring, remainder)


def _divisor(g: dict, sign: int):
    """Divisor data (positive lead key, lead coefficient, tail terms) of the
    nonzero homogeneous g on the keys of an :class:`_OrderKeys` of this
    ``sign``.  g's terms share a degree, so its lead has the largest key."""
    top = max(g)
    return sign * top, g[top], [(m, c) for m, c in g.items() if m != top]


def _remainder(f: dict, divisors, keys: _OrderKeys, field) -> dict:
    """Remainder of f on division by the divisor data ``divisors``, triples
    (positive lead key, lead coefficient a, tail terms) of homogeneous
    divisors.  f, the tails and the result are dicts on the keys of ``keys``
    (:class:`_OrderKeys`), and every term of f has degree below
    _GUARDED_LIMIT = 2^15, which :meth:`_OrderKeys.terms` checks.

    Terms wait in ``queue``, sorted by key, and leave it largest first, each
    going to the first divisor whose lead divides it, as in
    :func:`multivariate_divide`.  A step on a term c*m brings in terms of
    (m/lead)*tail, of m's degree and below m.  So the terms of one degree
    leave the queue in the monomial order, which on one degree is the
    integer order of keys (:class:`_OrderKeys`); no exponent exceeds that
    degree, so the guard test (:func:`_divides`) on positive keys decides
    which leads divide; and terms of different degrees never meet, so how
    the degrees interleave in the queue changes nothing.  The key of m/lead
    is m - sign*lead, and that of a product is a sum.  A term is queued
    once, when it first appears.  One that cancels stays in ``work`` at
    zero, where it can come back, and is skipped when popped.

    A step on term c*m with a = 1 subtracts c*(m/lead)*tail.  On monic data
    (:class:`GroebnerBasis`) every step is such a step, so the result is the
    remainder of :func:`multivariate_divide`, exactly.  Over Q an integer
    divisor may have a != 1 (:func:`buchberger`): with g = gcd(a, c) the
    step scales the waiting and remainder terms by a/g and subtracts
    (c/g)*(m/lead)*tail, so no fraction appears.  For a homogeneous f the
    result is then that remainder times a nonzero integer, and at every
    step the support is the one the exact division has."""
    p = field.p
    sign, guards = keys.sign, keys.guards
    work = dict(f)
    queue = sorted(work)
    remainder = {}
    while queue:
        m = queue.pop()
        c = work.pop(m)
        if not c:
            continue
        mg = (sign * m) | guards
        for lead, a, tail in divisors:
            if (mg - lead) & guards == guards:
                q = m - sign * lead
                if a != 1:
                    g = gcd(a, c)
                    s, c = a // g, c // g
                    if s != 1:
                        for t in work:
                            work[t] *= s
                        for t in remainder:
                            remainder[t] *= s
                for t, dc in tail:
                    t += q
                    old = work.get(t)
                    if old is None:
                        old = 0
                        insort(queue, t)
                    work[t] = (old - dc * c) % p if p else old - dc * c
                break
        else:
            remainder[m] = c
    return remainder


def _primitive(g: dict) -> dict:
    """The primitive integer multiple, with positive lead coefficient, of
    the homogeneous g over Q on loop keys: denominators cleared, content
    divided out."""
    coeffs = linalg._scale_row_to_int(g)
    content = gcd(*coeffs.values())
    if coeffs[max(coeffs)] < 0:
        content = -content
    return {m: c // content for m, c in coeffs.items()}


def _monic(g: dict, field) -> dict:
    """The homogeneous g on loop keys divided by its lead coefficient,
    integral quotients as `int`."""
    lc = g[max(g)]
    if lc == 1:
        return g
    return {m: field.of_fraction(c, lc) for m, c in g.items()}


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    F = f.ring.field
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    l = monomial_lcm(fm, gm)
    return f.mul_monomial(monomial_div(l, fm), F.inv(fc)) - g.mul_monomial(
        monomial_div(l, gm), F.inv(gc)
    )


class GroebnerBasis:
    """A reduced Groebner basis, sorted by leading term, from its monic
    elements on the keys of :func:`_order_keys` (:func:`buchberger`), with
    each element's :func:`_divisor` data built once, for :meth:`normal_form`."""

    __slots__ = ("ring", "order", "elements", "_keys", "_divisors")

    def __init__(self, ring: PolyRing, order: MonomialOrder, monic):
        self.ring = ring
        self.order = order
        self._keys = keys = _order_keys(order, ring.nvars)
        self._divisors = [_divisor(g, keys.sign) for g in monic]
        self.elements = [keys.polynomial(ring, g) for g in monic]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f on division by the basis (:func:`_remainder`).
        A term of f of degree 2^15 or more raises PackedDegreeError."""
        keys = self._keys
        r = _remainder(keys.terms(f), self._divisors, keys, self.ring.field)
        return keys.polynomial(self.ring, r)

    def lead_monomials(self):
        keys = self._keys
        return [keys.monomial(keys.sign * lead) for lead, _, _ in self._divisors]


def buchberger(ideal: "Ideal", order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal.

    Pending pairs wait in a heap keyed (deg lcm, i, j): normal selection,
    with index order breaking ties.  Two criteria skip pairs whose
    S-polynomial need not be reduced (Cox-Little-O'Shea, *Ideals,
    Varieties, and Algorithms*, Ch. 2 Sec. 10; Gebauer-Moeller, "On an
    installation of Buchberger's algorithm", J. Symb. Comput. 6, 1988).
    Buchberger's first criterion skips coprime leads.  His second, the
    chain criterion, skips (i, j) when the lead of some k outside {i, j}
    divides lcm(lead_i, lead_j) and neither (i, k) nor (j, k) is still
    pending: both of their S-polynomials then have standard
    representations, which combine into one for (i, j).  Each element's
    lead and divisor data are computed once, when it joins the basis.

    Elements are dicts on the packed keys of :class:`_OrderKeys`, and
    exponent tuples are built only for the final basis.  Every element is
    homogeneous and so is every S-polynomial, of its lcm degree, so within
    one element or one reduction the monomial order is the integer order of
    keys (:func:`_remainder`).  Leads are kept as positive keys: the
    criteria read lcms and divisibility off them with guard bits
    (:func:`_lcm`, :func:`_divides`), a product of monomials is a sum of
    keys, and leads of different degrees are sorted by
    :meth:`_OrderKeys.rank`.  The guards need every degree met below
    2^15: a generator or a reduced pair lcm of degree 2^15 or more raises
    PackedDegreeError.  Two leads below 2^15 have an lcm of degree below
    2^16 - 1, whose degree :func:`_degree` reads off its key.

    Over GF(p) the elements are monic.  Over Q they are primitive integer
    polynomials, so no fraction arises: with lead coefficients a_i, a_j
    and g = gcd(a_i, a_j), the S-pair is (a_j/g)(lcm/lead_i) f_i -
    (a_i/g)(lcm/lead_j) f_j, and :func:`_remainder` returns an integer
    multiple of the remainder by the monic elements.  Every element is a
    nonzero multiple of the one the monic loop would adjoin, with the same
    support, so the pairs, leads and criteria are the same, and the final
    basis is made monic."""
    ring = ideal.ring
    F = ring.field
    keys = _order_keys(order, ring.nvars)
    sign, guards = keys.sign, keys.guards
    basis: list[dict] = []  # monic over GF(p), primitive over Q
    leads: list[int] = []  # positive keys
    divisors: list = []  # (lead, lead coefficient, tail) of basis
    heap: list = []
    pending: set = set()

    def adjoin(g: dict):
        g = _primitive(g) if F.is_rationals else _monic(g, F)
        data = _divisor(g, sign)
        lead = data[0]
        j = len(basis)
        basis.append(g)
        leads.append(lead)
        divisors.append(data)
        for i in range(j):
            lcm = _lcm(leads[i], lead, guards)
            pending.add((i, j))
            heappush(heap, (_degree(lcm), i, j, lcm))

    def is_pending(a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in pending

    for g in sorted((keys.terms(g) for g in ideal.generators),
                    key=lambda g: keys.rank(sign * max(g))):
        adjoin(g)
    while heap:
        d, i, j, lcm = heappop(heap)
        pending.remove((i, j))
        li, lj = leads[i], leads[j]
        if lcm == li + lj:
            continue  # first criterion: coprime leads
        if any(
            _divides(lk, lcm, guards) and k != i and k != j
            and not is_pending(i, k) and not is_pending(j, k)
            for k, lk in enumerate(leads)
        ):
            continue  # chain criterion
        _check_guarded(d)
        ai, ti = divisors[i][1:]
        aj, tj = divisors[j][1:]
        g = gcd(ai, aj)
        si, sj = ai // g, aj // g
        # the S-pair's leads cancel, so it is built from the shifted tails
        qi, qj = sign * (lcm - li), sign * (lcm - lj)
        s = {m + qi: c * sj for m, c in ti}
        for m, c in tj:
            F.add_into(s, m + qj, F.neg(F.mul(c, si)))
        r = _remainder(s, divisors, keys, F)
        if r:
            adjoin(r)

    # minimal basis: in increasing lead order a lead's divisors come first,
    # so keep an element iff no kept lead divides its lead
    minimal: list[int] = []
    for k in sorted(range(len(basis)), key=lambda k: keys.rank(leads[k])):
        if not any(_divides(leads[h], leads[k], guards) for h in minimal):
            minimal.append(k)
    # tail-reduce against the rest of the minimal basis: the leads are
    # pairwise non-dividing, so each lead survives and the result is the
    # unique reduced basis
    return GroebnerBasis(ring, order, [
        _monic(_remainder(basis[k], [divisors[h] for h in minimal if h != k], keys, F), F)
        for k in minimal])


class Ideal:
    """A homogeneous ideal given by generators (zero generators discarded).

    An Ideal never changes after construction: its generators are a tuple.
    Everything computed from it (Groebner bases, slices, minimal generators
    and their syzygies, the Koszul and conormal presentations) is kept in
    one per-instance memo, which relies on that.  Memoized values are
    shared, so callers must not modify them.
    """

    __slots__ = ("ring", "generators", "_memo")

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator in wrong ring")
            if g.is_zero():
                continue
            g.homogeneous_degree()  # raises on inhomogeneous input
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._memo: dict = {}

    def memo(self, key, compute):
        """The value of ``compute()``, computed once per key and ideal."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def groebner(self, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
        return self.memo(("groebner", order.name), lambda: buchberger(self, order))

    def minimal_generators(self) -> tuple:
        """The generators that graded Nakayama keeps (see the module-level
        :func:`minimal_generators`)."""

        def compute():
            _, selected = minimal_generators(ideal_as_module(self))
            return tuple(self.generators[j] for j in selected)

        return self.memo(("minimal_generators",), compute)

    def generator_syzygy_bound(self) -> int:
        """Schreyer's bound B on the degrees of a generating set of Z_1:
        the top degree of :meth:`minimal_generators` and of the lcm of any
        two leads of the reduced Groebner basis G.

        The S-pair syzygies generate Syz(G) (Schreyer), each in its lcm
        degree.  With G = F A and F = G C for the minimal generators F,
        Syz(F) = A Syz(G) + image(Id - A C), whose columns sit in the
        degrees of F."""
        leads = self.groebner().lead_monomials()
        return max(
            [g.homogeneous_degree() for g in self.minimal_generators()]
            + [sum(monomial_lcm(a, b)) for i, a in enumerate(leads) for b in leads[i + 1 :]],
            default=0,
        )

    def taylor_degree_bounds(self) -> tuple:
        """(T_0, ..., T_r) for the r leads of the reduced Groebner basis:
        in the minimal free resolution of R/I over R, F_i is generated in
        degrees <= T_i, and F_i = 0 for i > r.

        Graded Betti numbers are upper semicontinuous under Groebner
        degeneration, beta_ij(R/I) <= beta_ij(R/in(I)) (Peeva, "Consecutive
        cancellations in Betti numbers", 2004), and the Taylor resolution of
        in(I) has length r, with F_i in the lcm degrees of i-subsets of the
        leads.  Such an lcm divides the lcm of all leads and has degree at
        most the sum of its leads' degrees, so T_i = min(deg lcm(all
        leads), sum of the i largest lead degrees)."""

        def compute():
            leads = self.groebner().lead_monomials()
            top = sum(max(exps) for exps in zip(*leads))
            degrees = sorted((sum(m) for m in leads), reverse=True)
            return tuple(min(top, sum(degrees[:i])) for i in range(len(degrees) + 1))

        return self.memo(("taylor_degree_bounds",), compute)

    def generator_syzygies(self, degree_bound: int) -> "ModulePresentation":
        """Z_1: the syzygies over R of :meth:`minimal_generators`, computed
        to Schreyer's bound :meth:`generator_syzygy_bound` with the degree
        bound as a cap, so complete unless the cap is below Schreyer's.
        Koszul H1 is Z_1 modulo the Koszul boundaries and I/I^2 is Z_1 (x) S,
        so both read this one module."""
        bound = min(self.generator_syzygy_bound(), degree_bound)

        def compute():
            gens = [(g,) for g in self.minimal_generators()]
            return syzygies(ModulePresentation(self.ring, None, [0], gens), bound)

        return self.memo(("generator_syzygies", bound), compute)

    def is_zero(self) -> bool:
        return not self.generators

    def slice_dim(self, e: int) -> int:
        """dim_k I_e."""
        return self.ring.slice_dim(e) - len(self.quotient_slice(e)[0])

    def quotient_slice(self, e: int):
        """(keys, table) of S_e for S = R/I, on packed monomial keys
        (:func:`_pack`), from one RREF of I_e.

        The degree-e monomials at the non-pivot columns form a k-basis of
        S_e, and ``keys`` lists their keys in ring monomial order.  ``table``
        maps the key of every degree-e monomial to its coordinates on that
        basis, a tuple of (position, coefficient) pairs: a free monomial is
        itself, and a pivot monomial is minus the rest of its RREF row, since
        the row lies in I_e.  No Groebner basis is used, so this stays apart
        from :func:`standard_monomials`.  This is the one table of S_e: every
        slice over S is read off it.

        When the memo holds S_{e-1} = 0 and R_{e-1} != 0, then S_e = 0,
        since S_e = S_1 S_{e-1}, and the table is read off without an
        elimination.  A lower degree is never computed just to test this.

        A degree-e monomial has no exponent above e, so for e < 2^_PACK_BITS
        the keys are distinct and the key of a degree-e product is the sum
        of its factors' keys.  A larger e raises PackedDegreeError before
        any monomial is listed."""
        if e >= 1 << _PACK_BITS:
            raise PackedDegreeError(
                f"degree {e} is beyond the {_PACK_BITS}-bit packed exponents")

        def compute():
            mons = [_pack(m) for m in self.ring.monomials_of_degree(e)]
            below = self._memo.get(("quotient_slice", e - 1))
            if below is not None and not below[0] and self.ring.slice_dim(e - 1):
                return [], dict.fromkeys(mons, ())
            field = self.ring.field
            rows, pivots = linalg.rref(ideal_as_module(self).span_slice_rows(e), field)
            pivot_set = set(pivots)
            free = [j for j in range(len(mons)) if j not in pivot_set]
            position = {j: pos for pos, j in enumerate(free)}
            table = {mons[j]: ((pos, 1),) for j, pos in position.items()}
            for row, j in zip(rows, pivots):
                table[mons[j]] = tuple(
                    (position[k], field.neg(v)) for k, v in row.items() if k != j)
            return [mons[j] for j in free], table

        return self.memo(("quotient_slice", e), compute)

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


# ---------------------------------------------------------------------------
# graded slices of free modules


def _zero_ideal(ring: PolyRing) -> Ideal:
    """The zero ideal of the ring, whose quotient slices are the identity.

    One zero ideal serves every equal ring for the whole process, so it is
    cached by the ring's field and names and built on a ring of its own:
    holding a caller's ring would keep that computation's memo
    (:meth:`PolyRing.memo`), and every ideal in its keys, alive."""
    return _zero_ideal_of(ring.field, ring.names)


@lru_cache(maxsize=None)
def _zero_ideal_of(field, names) -> Ideal:
    return Ideal(PolyRing(field, names), [])


def _packed_support(vec):
    """(row, [(packed key, coefficient)]) for the nonzero entries of a vector
    of polynomials."""
    return [(i, [(_pack(m), c) for m, c in poly.terms.items()])
            for i, poly in enumerate(vec) if poly.terms]


def _add_multiple(row, blocks, support, m, c, p):
    """row += c * m * vec in quotient coordinates, for a sparse row (see
    :class:`FreeSlices`), a packed monomial key m and vec given by its
    :func:`_packed_support` (``blocks`` as in :meth:`FreeSlices._slice`):
    every product monomial is looked up in its row's table at the sum of
    the keys.  Entries stay reduced mod p over GF(p); p is None over Q.
    Entries that cancel stay, as zeros (:func:`_drop_zeros`)."""
    for i, terms in support:
        offset, table = blocks[i]
        for pm, pc in terms:
            pc *= c
            for pos, a in table[pm + m]:
                k = offset + pos
                row[k] = (row.get(k, 0) + pc * a) % p if p else row.get(k, 0) + pc * a


def _drop_zeros(row):
    """The sparse row without the zero entries that cancellation left."""
    return {k: v for k, v in row.items() if v} if 0 in row.values() else row


class FreeSlices:
    """Cached graded slices of a free module F with given row degrees over
    S = R/modulus (over R when the modulus is None, the zero ideal).

    Slices are taken in quotient coordinates.  The degree-d basis is (i, m)
    for m in the quotient basis of S_{d - row_degrees[i]}
    (:meth:`Ideal.quotient_slice`), row by row, and a vector's coordinates
    are those of its class in F/IF: each monomial goes through the ideal's
    table.  So I*F is zero in these coordinates, and slice sizes follow
    HF_S, not HF_R.  Over R the table is the identity and the basis is
    every monomial, in ring monomial order.

    Monomials are packed keys (:func:`_pack`): a slice holds its dimension
    and each row's table, and the product of monomials with keys a and b is
    looked up at a + b.  The basis itself is built only for a caller that
    reads it (:meth:`basis`).

    Coordinates are sparse, in the row format of :mod:`cikit.linalg`: a
    dict from basis position to its nonzero coefficient.  Slices met in
    practice are a few percent nonzero, so no row is built at full width."""

    __slots__ = ("ring", "modulus", "row_degrees", "_slices", "_bases")

    def __init__(self, ring: PolyRing, row_degrees, modulus=None):
        self.ring = ring
        self.modulus = _zero_ideal(ring) if modulus is None else modulus
        self.row_degrees = list(row_degrees)
        self._slices: dict = {}
        self._bases: dict = {}

    def _slice(self, d: int):
        """(dim, blocks) at internal degree d; blocks[i] is (offset of row i
        in the basis, the table of S_{d - row_degrees[i]})."""
        s = self._slices.get(d)
        if s is None:
            dim, blocks = 0, []
            for rd in self.row_degrees:
                keys, table = self.modulus.quotient_slice(d - rd)
                blocks.append((dim, table))
                dim += len(keys)
            s = self._slices[d] = (dim, blocks)
        return s

    def basis(self, d: int):
        """Slice basis [(row, packed monomial key)] at internal degree d,
        canonical order."""
        basis = self._bases.get(d)
        if basis is None:
            basis = self._bases[d] = [
                (i, k) for i, rd in enumerate(self.row_degrees)
                for k in self.modulus.quotient_slice(d - rd)[0]]
        return basis

    def dim(self, d: int) -> int:
        return self._slice(d)[0]

    def _rows(self, support, keys, d: int):
        """Coordinate rows of m*vec, one per packed monomial key m, for vec
        given by its :func:`_packed_support` and m*vec of internal degree d."""
        blocks = self._slice(d)[1]
        p = self.ring.field.p
        rows = []
        for m in keys:
            row = {}
            _add_multiple(row, blocks, support, m, 1, p)
            rows.append(_drop_zeros(row))
        return rows

    def coords(self, vec, d: int):
        """Coordinates of a homogeneous vector (tuple of polynomials) of
        internal degree d."""
        return self._rows(_packed_support(vec), (0,), d)[0]

    def from_coords(self, coords, d: int):
        """The vector with these coordinates, written on the basis monomials
        (so in the normal form the quotient basis defines)."""
        basis = self.basis(d)
        n = self.ring.nvars
        polys = [dict() for _ in self.row_degrees]
        for pos, c in coords.items():
            i, key = basis[pos]
            polys[i][_unpack(key, n)] = c
        return tuple(Polynomial(self.ring, t) for t in polys)

    def multiply_coords_by_var(self, coords, d: int, var: int):
        """Coordinates of x_var * v for v given in degree-d coordinates."""
        src = self.basis(d)
        blocks = self._slice(d + 1)[1]
        shift = 1 << (_PACK_BITS * var)
        p = self.ring.field.p
        out = {}
        for pos, c in coords.items():
            i, key = src[pos]
            offset, table = blocks[i]
            for q, a in table[key + shift]:
                k = offset + q
                out[k] = (out.get(k, 0) + c * a) % p if p else out.get(k, 0) + c * a
        return _drop_zeros(out)


# ---------------------------------------------------------------------------
# module presentations


class ModulePresentation:
    """A finitely generated graded module over R or S = R/modulus.

    A modulus of None is the zero ideal (:func:`_zero_ideal`), so
    ``modulus`` is always an :class:`Ideal` and a module over R is one
    over R/0.

    The matrix columns are vectors in the free module with the given row
    degrees.  Operations state which view they take: `syzygies` and
    `minimal_generators` treat the columns as generators of the submodule
    they span; Hilbert data refers to the cokernel unless noted.  Over S
    every slice is taken in the quotient coordinates of :class:`FreeSlices`,
    where I*F is zero, so no operation adds the I-multiples back in.
    """

    __slots__ = ("ring", "modulus", "row_degrees", "columns", "col_degrees", "_supports",
                 "_slices", "_ranks")

    def __init__(self, ring: PolyRing, modulus, row_degrees, columns):
        self.ring = ring
        self.modulus = _zero_ideal(ring) if modulus is None else modulus
        self.row_degrees = list(row_degrees)
        cols = []
        degs = []
        for col in columns:
            col = tuple(col)
            if len(col) != len(self.row_degrees):
                raise ValueError("column length mismatch")
            d = None
            for p, rd in zip(col, self.row_degrees):
                if p.is_zero():
                    continue
                pd = p.homogeneous_degree() + rd
                if d is None:
                    d = pd
                elif d != pd:
                    raise ValueError("inhomogeneous column")
            if d is None:
                continue  # zero column dropped
            cols.append(col)
            degs.append(d)
        self.columns = cols
        self.col_degrees = degs
        self._supports = None  # packed on first use (:meth:`_packed_supports`)
        self._slices = FreeSlices(ring, self.row_degrees, self.modulus)
        # degree -> rank, shared with every content-identical presentation
        # over the same ring (:meth:`image_slice_dim`)
        self._ranks = None

    # -- basic views -----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_degrees)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def over_quotient(self) -> bool:
        return not self.modulus.is_zero()

    def slices(self) -> FreeSlices:
        return self._slices

    def _packed_supports(self):
        """The :func:`_packed_support` of every column, packed once, when
        first needed: nothing changes the columns after ``__init__``."""
        if self._supports is None:
            self._supports = [_packed_support(col) for col in self.columns]
        return self._supports

    def span_slice_rows(self, d: int, proper_only=False):
        """Rows spanning the degree-d slice of the column span (of m_S times
        it when ``proper_only``), in the slices' quotient coordinates: each
        column of degree cd times the quotient basis of S_{d - cd}.  Row k
        is the k-th basis element of the free module on the columns mapped
        through the matrix."""
        rows = []
        for support, cd in zip(self._packed_supports(), self.col_degrees):
            if cd > d or (proper_only and cd == d):
                continue
            keys, _ = self.modulus.quotient_slice(d - cd)
            rows.extend(self._slices._rows(support, keys, d))
        return rows

    # -- module data -------------------------------------------------------

    def cokernel_slice_dim(self, d: int) -> int:
        return self._slices.dim(d) - self.image_slice_dim(d)

    def image_slice_dim(self, d: int) -> int:
        """The rank of :meth:`span_slice_rows` at d, computed at most once
        per distinct matrix and computation.

        When d - 1 is at least every row degree and the rank memoized at
        d - 1 is dim F_{d-1} > 0, the rank at d is dim F_d without an
        elimination: S is standard graded, so F_d = S_1 F_{d-1} there, and
        an image that fills F_{d-1} fills F_d.  Only a rank already in the
        memo is read; a lower degree is never ranked just to test this.

        The ranks are memoized on the ring (:meth:`PolyRing.memo`), so they
        live as long as one computation, under the key (modulus object,
        row degrees, columns), with d inside.  The matrix is a function of
        that key and d, so two presentations share a rank only when they
        rank the same matrix, and a recomputation would return the same
        integer.  The modulus is compared by identity and the columns by
        value; the key is built once per presentation, since nothing
        changes the columns after ``__init__``."""
        if self._ranks is None:
            key = ("image_ranks", self.modulus, tuple(self.row_degrees), tuple(self.columns))
            self._ranks = self.ring.memo(key, dict)
        ranks = self._ranks
        if d not in ranks:
            below = ranks.get(d - 1)
            if (below and d - 1 >= max(self.row_degrees)
                    and below == self._slices.dim(d - 1)):
                ranks[d] = self._slices.dim(d)
            else:
                ranks[d] = linalg.rank(self.span_slice_rows(d), self.ring.field)
        return ranks[d]

    def hilbert_function(self, bound: int):
        """dim_k of the cokernel in degrees 0..bound."""
        return [self.cokernel_slice_dim(d) for d in range(bound + 1)]


def ideal_as_module(ideal: Ideal) -> ModulePresentation:
    """The ideal's generators as columns of a rank-one free module over R,
    built once per ideal (:meth:`Ideal.memo`)."""
    return ideal.memo(("as_module",), lambda: ModulePresentation(
        ideal.ring, None, [0], [(g,) for g in ideal.generators]))


def residue_field_presentation(ring: PolyRing, modulus) -> ModulePresentation:
    """k = S/m_S presented over S by the ring variables."""
    return ModulePresentation(ring, modulus, [0], [(ring.gen(i),) for i in range(ring.nvars)])


# ---------------------------------------------------------------------------
# minimal generators (graded Nakayama, slice by slice)


def minimal_generators(pres: ModulePresentation):
    """Minimal generating subset of the column-generated submodule.

    Returns (count, selected column indices).  Columns are scanned in
    increasing degree (input order within a degree); a column is kept iff it
    leaves the span of the already-kept columns plus m*(everything), which
    is graded Nakayama.  The result is deterministic.
    """
    field = pres.ring.field
    selected: list[int] = []
    degrees = sorted(set(pres.col_degrees))
    for d in degrees:
        denom = pres.span_slice_rows(d, proper_only=True)
        candidates = []
        cand_idx = []
        for j, cd in enumerate(pres.col_degrees):
            if cd == d:
                candidates.append(pres._slices.coords(pres.columns[j], d))
                cand_idx.append(j)
        chosen = linalg.independent_subset(denom, candidates, field)
        selected.extend(cand_idx[c] for c in chosen)
    selected.sort()
    return len(selected), selected


# ---------------------------------------------------------------------------
# syzygies (graded slice computation)


def syzygies(pres: ModulePresentation, degree_bound: int) -> ModulePresentation:
    """First syzygy module of the columns, as columns over the same ring.

    Generators are complete up to the degree bound; together with the input
    matrix they compose to zero (exactly over R, modulo I over S).
    """
    gens = syzygy_generators(pres, degree_bound)
    return ModulePresentation(pres.ring, pres.modulus, pres.col_degrees, gens)


def _syzygy_slice(pres: ModulePresentation, d: int):
    """Canonical basis of the degree-d syzygy slice, in the quotient
    coordinates of the free module on the columns: vectors x with
    sum x_j c_j = 0 in F/IF (in F over R)."""
    rows = pres.span_slice_rows(d)
    return linalg.kernel(rows, pres.ring.field)


def _minimal_syzygies_by_degree(pres: ModulePresentation, degree_bound: int, boundaries=None):
    """Yield (d, kernel, chosen) for each degree d up to the bound with a
    nonzero syzygy slice (:func:`_syzygy_slice`), in increasing degree, with
    ``chosen`` the positions in ``kernel`` of new minimal generators.

    Graded Nakayama on each slice: a vector is a new generator iff it leaves
    m * (the degree d-1 slice) plus the degree-d span of ``boundaries`` (a
    presentation into the free module on the columns, or None); over S the
    I-multiples of the domain are already zero in quotient coordinates.
    :func:`syzygy_generators` and :func:`first_syzygy_degree` read this loop
    with no boundaries, :func:`cikit.dgmodel._adjoin_stage` on d_{n-1} with
    d_n as boundaries, so that it chooses minimal generators of H_{n-1}."""
    if not pres.columns:
        return
    ring = pres.ring
    domain = FreeSlices(ring, pres.col_degrees, pres.modulus)
    prev: list = []
    for d in range(min(pres.col_degrees), degree_bound + 1):
        kernel = _syzygy_slice(pres, d)
        if kernel:
            denom = [] if boundaries is None else boundaries.span_slice_rows(d)
            denom += [domain.multiply_coords_by_var(v, d - 1, var)
                      for v in prev for var in range(ring.nvars)]
            yield d, kernel, linalg.independent_subset(denom, kernel, ring.field)
        prev = kernel


def syzygy_generators(pres: ModulePresentation, degree_bound: int):
    """The columns of the minimal syzygy generators of the columns, complete
    up to the degree bound, in increasing degree."""
    domain = FreeSlices(pres.ring, pres.col_degrees, pres.modulus)
    return [domain.from_coords(kernel[c], d)
            for d, kernel, chosen in _minimal_syzygies_by_degree(pres, degree_bound)
            for c in chosen]


def first_syzygy_degree(pres: ModulePresentation, degree_bound: int):
    """Smallest degree <= bound carrying a minimal syzygy generator of the
    columns, or None.  Stops there: used to decide (non-)termination of a
    resolution without materialising the next syzygy module."""
    for d, _, chosen in _minimal_syzygies_by_degree(pres, degree_bound):
        if chosen:
            return d
    return None


def compose_is_zero(upper: ModulePresentation, lower: ModulePresentation) -> bool:
    """matrix(upper) . matrix(lower) == 0 (mod I over a quotient), the
    d^2 = 0 check.  Each column of ``lower`` is mapped through ``upper``,
    every product monomial sent through the quotient table, and the image
    must be zero in quotient coordinates, i.e. lie in I*F (be zero over R);
    by linearity this is the full matrix identity."""
    p = upper.ring.field.p
    target = upper.slices()
    supports = upper._packed_supports()
    for col, cd in zip(lower._packed_supports(), lower.col_degrees):
        blocks = target._slice(cd)[1]
        image = {}
        for j, terms in col:
            if j >= len(supports):
                break  # no column of upper to pair with (a mismatched pair)
            for m, c in terms:
                _add_multiple(image, blocks, supports[j], m, c, p)
        if any(image.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# pruning non-minimal presentations


def minimalize_presentation(pres: ModulePresentation) -> ModulePresentation:
    """Remove unit entries by row/column pivoting.

    The result presents the same module with all matrix entries in the
    irrelevant maximal ideal.  A presentation with no such entry is already
    minimal and is returned as it is, so its slices and ranks are kept.
    """
    ring = pres.ring
    constant = (0,) * ring.nvars
    if not any(constant in p.terms for col in pres.columns for p in col):
        return pres
    field = ring.field
    rows = list(pres.row_degrees)
    cols = [list(c) for c in pres.columns]

    while True:
        pivot = None
        for j, col in enumerate(cols):
            for i, p in enumerate(col):
                if not p.is_zero() and p.homogeneous_degree() == 0:
                    pivot = (i, j, p.constant_coefficient())
                    break
            if pivot:
                break
        if not pivot:
            break
        i, j, c = pivot
        inv = field.inv(c)
        pcol = cols[j]
        for jj, col in enumerate(cols):
            if jj == j:
                continue
            e = col[i]
            if e.is_zero():
                continue
            q = e.scale(inv)
            for ii in range(len(rows)):
                col[ii] = col[ii] - q * pcol[ii]
        del cols[j]
        del rows[i]
        for col in cols:
            del col[i]
    return ModulePresentation(ring, pres.modulus, rows, [tuple(c) for c in cols])


# ---------------------------------------------------------------------------
# standard monomials and height via lead-term data


def standard_monomials(ideal: Ideal, d: int):
    """The degree-d monomials outside the lead ideal in(I): a k-basis of
    (R/I)_d, in ring monomial order.

    Divisibility is tested on packed keys (:func:`_pack`) with the top bit
    of each field as a guard (:func:`_divides`).  Only leads of degree at
    most d can divide, and their exponents are at most d, so a d of
    _GUARDED_LIMIT = 2^(_PACK_BITS - 1) or more raises PackedDegreeError
    before any monomial is listed."""
    _check_guarded(d)
    ring = ideal.ring
    guards = _pack((_GUARDED_LIMIT,) * ring.nvars)
    leads = [_pack(lm) for lm in ideal.groebner().lead_monomials() if sum(lm) <= d]
    keys = ((m, _pack(m) | guards) for m in ring.monomials_of_degree(d))
    return [m for m, key in keys if all((key - lm) & guards != guards for lm in leads)]


def quotient_hilbert_by_monomials(ideal: Ideal, degree_bound: int):
    """Hilbert function of R/I by counting standard monomials (Groebner
    route; independent of the slice-rank route).  Each degree is counted
    once per ideal."""
    return [ideal.memo(("standard_count", d), lambda d=d: len(standard_monomials(ideal, d)))
            for d in range(degree_bound + 1)]


def _min_cover(supports) -> int:
    """Size of a smallest set of variables meeting every support in
    ``supports``, a set of nonempty frozensets of variable indices.  Every
    cover holds a variable of a smallest support, so the search branches on
    each of those; its depth is the answer."""
    if not supports:
        return 0
    smallest = min(supports, key=len)
    return 1 + min(_min_cover({s for s in supports if v not in s}) for v in smallest)


def height(ideal: Ideal) -> int:
    """Codimension of a proper homogeneous ideal.

    I and in(I) have the same Hilbert function, so the same height, and the
    minimal primes of the monomial ideal in(I) are generated by the minimal
    sets of variables meeting the support of every generator (Cox-Little-
    O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 9 Secs. 1 and 3).  So
    the height is the size of a smallest such set for the leads of the
    reduced Groebner basis; no degree heuristic is involved.
    """
    if ideal.is_zero():
        return 0
    supports = set()
    for lead in ideal.groebner().lead_monomials():
        if not any(lead):
            raise UnitIdeal("ideal contains a unit")
        supports.add(frozenset(i for i, e in enumerate(lead) if e))
    return _min_cover(supports)


def krull_dimension(ideal: Ideal) -> int:
    return ideal.ring.nvars - height(ideal)
