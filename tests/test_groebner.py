import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import homogeneous_ideals

from cikit import groebner as gr
from cikit.fields import QQ, GF
from cikit.harness import ci_certificate
from cikit.poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def R3():
    return PolyRing(QQ, ["x", "y", "z"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


# -- division ------------------------------------------------------------------


def test_division_exact(R):
    q, r = gr.multivariate_divide(R.from_string("x^2"), [R.from_string("x")])
    assert str(q[0]) == "x" and r.is_zero()


def test_division_remainder_reduced(R):
    f = R.from_string("x^2*y + y")
    q, r = gr.multivariate_divide(f, [R.from_string("x^2")])
    assert str(q[0]) == "y" and str(r) == "y"
    # identity f = sum q_i d_i + r
    assert q[0] * R.from_string("x^2") + r == f


def test_division_of_zero(R):
    q, r = gr.multivariate_divide(R.zero(), [R.from_string("x")])
    assert q[0].is_zero() and r.is_zero()


def test_division_identity_randomised(R):
    rng = random.Random(5)
    mons = [(i, j) for i in range(3) for j in range(3)]

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randrange(1, 4)):
            out = out + R.monomial(rng.choice(mons), Fraction(rng.randrange(-3, 4)))
        return out

    for _ in range(40):
        f = rand_poly()
        divisors = [p for p in (rand_poly(), rand_poly()) if not p.is_zero()]
        if not divisors:
            continue
        q, r = gr.multivariate_divide(f, divisors)
        assert sum((qi * di for qi, di in zip(q, divisors)), r) == f
        # reducedness, term by term
        from cikit.poly import monomial_divides

        for m in r.terms:
            for d in divisors:
                assert not monomial_divides(d.leading_term(DEGREVLEX)[0], m)


# -- Groebner bases --------------------------------------------------------------


def test_monomial_ideal_is_its_own_basis(R):
    gb = ideal(R, "x", "y").groebner()
    assert {str(g) for g in gb} == {"x", "y"}


def test_stable_pair(R):
    gb = ideal(R, "x^2", "x*y").groebner()
    assert {str(g) for g in gb} == {"x^2", "x*y"}


def test_spair_produces_new_element(R3):
    gb = ideal(R3, "x^2 - y*z", "x*y").groebner()
    assert any(str(g) == "y^2*z" for g in gb)


def test_all_spairs_reduce_to_zero(R3):
    # exhaustive S-polynomial closure assertion
    gb = ideal(R3, "x^2 - y*z", "x*y", "y^3 - z^3").groebner()
    elems = list(gb)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = gr.s_polynomial(elems[i], elems[j], DEGREVLEX)
            assert gb.normal_form(s).is_zero()


def test_normal_form_membership(R):
    gb = ideal(R, "x^2", "x*y").groebner()
    assert gb.normal_form(R.from_string("x^2")).is_zero()
    assert gb.normal_form(R.from_string("x^3")).is_zero()
    assert str(gb.normal_form(R.one())) == "1"


def test_normal_forms_reuse_the_divisor_data(R, monkeypatch):
    # each basis element's divisor data is built once, with the basis, from
    # its monic element; no normal form builds any
    calls = []
    real = gr._divisor
    monkeypatch.setattr(gr, "_divisor", lambda g, sign: calls.append(g) or real(g, sign))
    gb = ideal(R, "x^2", "x*y", "y^3").groebner()
    built = len(calls)
    keys = gr._order_keys(DEGREVLEX, R.nvars)
    assert [keys.polynomial(R, g) for g in calls[built - len(gb):]] == gb.elements
    for text in ("x^3 + y^3", "x*y^2 + y^2", "y^4"):
        gb.normal_form(R.from_string(text))
    assert len(calls) == built


def divisor(d, order):
    """Monic divisor data of a nonzero homogeneous Polynomial d on the keys
    of _order_keys: (positive lead key, 1, tail terms of d divided by its
    lead coefficient)."""
    F = d.ring.field
    keys = gr._order_keys(order, d.ring.nvars)
    terms = keys.terms(d)
    lead = max(terms)
    inv = F.inv(terms[lead])
    return keys.sign * lead, 1, [(m, F.mul(c, inv)) for m, c in terms.items() if m != lead]


def remainder(f, data, order):
    """_remainder of f by packed divisor data, back on exponent tuples."""
    keys = gr._order_keys(order, f.ring.nvars)
    return keys.polynomial(f.ring, gr._remainder(keys.terms(f), data, keys, f.ring.field))


def test_reduce_requeues_a_term_that_cancels_and_comes_back(R):
    # x^3 goes to 2x^2 + 2y^2 and brings in x*y^2; x^2*y brings in -y^3,
    # which cancels the y^3 of f; x*y^2 goes to x + 2y and brings y^3 back
    f = R.from_string("-x^3 + x^2*y + y^3")
    divisors = [R.from_string("2*x^2 + 2*y^2"), R.from_string("x + 2*y")]
    data = [divisor(d, DEGREVLEX) for d in divisors]
    assert remainder(f, data, DEGREVLEX) == R.from_string("-2*y^3")
    assert gr.multivariate_divide(f, divisors)[1] == R.from_string("-2*y^3")


# -- syzygies ----------------------------------------------------------------


def test_syzygy_of_free_module_is_zero(R):
    pres = gr.ModulePresentation(
        R, None, [0, 0], [(R.one(), R.zero()), (R.zero(), R.one())]
    )
    assert gr.syzygies(pres, 8).ncols == 0


def test_syzygy_koszul_relation(R):
    I = ideal(R, "x", "y")
    pres = gr.ideal_as_module(I)
    assert gr.ideal_as_module(I) is pres
    syz = gr.syzygies(pres, 8)
    assert syz.ncols == 1
    assert gr.compose_is_zero(pres, syz)


def test_syzygy_x2_xy(R):
    pres = gr.ideal_as_module(ideal(R, "x^2", "x*y"))
    syz = gr.syzygies(pres, 8)
    assert syz.ncols == 1
    col = syz.columns[0]
    assert {str(col[0]), str(col[1])} == {"y", "-x"}
    assert gr.compose_is_zero(pres, syz)
    # generation: any hand-made syzygy is a multiple of the found one
    assert gr.first_syzygy_degree(syz, 10) is None  # rank-1 free syzygy module


def test_syzygies_over_quotient(R):
    I = ideal(R, "x^2", "x*y", "y^2")
    kpres = gr.residue_field_presentation(R, I)
    syz = gr.syzygies(kpres, 8)
    assert syz.ncols > 0
    assert gr.compose_is_zero(kpres, syz)


# -- minimal generators ---------------------------------------------------------


def test_minimal_generators_examples(R):
    count, sel = gr.minimal_generators(
        gr.ideal_as_module(ideal(R, "x^2", "x*y", "y^2", "x^2+x*y"))
    )
    assert count == 3
    free3 = gr.ModulePresentation(
        R, None, [0, 0, 0],
        [(R.one(), R.zero(), R.zero()), (R.zero(), R.one(), R.zero()),
         (R.zero(), R.zero(), R.one())],
    )
    assert gr.minimal_generators(free3)[0] == 3
    assert gr.minimal_generators(gr.ModulePresentation(R, None, [0], []))[0] == 0


def test_minimal_generators_invariant_under_column_mixing(R):
    rng = random.Random(11)
    I = ideal(R, "x^2", "x*y", "y^2", "x^2 + 2*x*y")
    pres = gr.ideal_as_module(I)
    base_count, _ = gr.minimal_generators(pres)
    for _ in range(10):
        cols = [list(c) for c in pres.columns]
        # random degree-preserving elementary operations
        i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
        if i != j and pres.col_degrees[i] == pres.col_degrees[j]:
            c = Fraction(rng.randrange(1, 4))
            cols[j] = [a + b.scale(c) for a, b in zip(cols[j], cols[i])]
        mixed = gr.ModulePresentation(R, None, [0], [tuple(c) for c in cols])
        assert gr.minimal_generators(mixed)[0] == base_count


# -- Hilbert series and height ---------------------------------------------------


def test_hilbert_series_examples(R):
    Rx = PolyRing(QQ, ["x"])
    s = gr.ideal_as_module(gr.Ideal(Rx, [Rx.from_string("x^2")]))
    assert s.hilbert_function(5) == [1, 1, 0, 0, 0, 0]
    free = gr.ModulePresentation(R, None, [0], [])
    assert free.hilbert_function(3) == [1, 2, 3, 4]
    m2 = gr.ideal_as_module(ideal(R, "x^2", "x*y", "y^2"))
    assert m2.hilbert_function(4) == [1, 2, 0, 0, 0]


def test_hilbert_two_routes_agree(R3):
    for texts in (("x^2 - y*z", "x*y"), ("x^2", "y^2"), ("x*y", "x*z", "y*z")):
        I = ideal(R3, *texts)
        slice_route = gr.ideal_as_module(I).hilbert_function(8)
        monomial_route = gr.quotient_hilbert_by_monomials(I, 8)
        assert slice_route == monomial_route


def test_height_examples(R, R3):
    assert gr.height(ideal(R, "x")) == 1
    assert gr.height(ideal(R, "x^2", "x*y", "y^2")) == 2
    assert gr.height(ideal(R3, "x^2 - y*z")) == 1
    assert gr.height(ideal(R3, "x*y", "x*z", "y*z")) == 2
    assert gr.height(ideal(R, "x^2", "x*y")) == 1
    R6 = PolyRing(QQ, list("abcdef"))
    # the 5-cycle: a smallest vertex cover of a pentagon has 3 vertices
    assert gr.height(ideal(R6, "a*b", "b*c", "c*d", "d*e", "e*a")) == 3
    assert gr.height(ideal(R6, *"abcdef")) == 6
    assert gr.height(ideal(R6, "a^2", "a*b", "b^3")) == 2
    assert gr.height(gr.Ideal(R6, [])) == 0
    with pytest.raises(gr.UnitIdeal):
        gr.height(gr.Ideal(R, [R.one()]))


def reference_height(ideal):
    """Reference: the former height, the multiplicity of (1 - t) in the
    Hilbert-series numerator of R/in(I), which a colon recursion on the
    minimalized leads computes."""

    def minimalize(mons):
        keep = []
        for m in sorted(set(mons), key=lambda m: (sum(m), m)):
            if not any(monomial_divides(k, m) for k in keep):
                keep.append(m)
        return tuple(keep)

    def numerator(mons, cache):
        mons = minimalize(mons)
        if mons not in cache:
            if not mons:
                result = [1]
            elif any(sum(m) == 0 for m in mons):
                result = [0]
            else:
                rest, last = mons[:-1], mons[-1]
                colon = tuple(tuple(max(e - f, 0) for e, f in zip(g, last)) for g in rest)
                result = list(numerator(rest, cache))
                n_colon = numerator(colon, cache)
                shift = sum(last)
                result += [0] * max(0, shift + len(n_colon) - len(result))
                for i, c in enumerate(n_colon):
                    result[shift + i] -= c
                while result and result[-1] == 0:
                    result.pop()
            cache[mons] = result
        return cache[mons]

    if ideal.is_zero():
        return 0
    coeffs = list(numerator(tuple(ideal.groebner().lead_monomials()), {}))
    h = 0
    while coeffs and sum(coeffs) == 0:
        # synthetic division by (1 - t)
        acc, out = 0, []
        for c in coeffs[:-1]:
            acc += c
            out.append(acc)
        coeffs = out
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        h += 1
    return h


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_height_matches_the_reference(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    assert gr.height(I) == reference_height(I)


@st.composite
def monomial_ideals(draw):
    """Monomial ideals in 1-6 variables over Q: each generator a random
    nonempty support with exponents 1-3, so supports of many sizes overlap
    and the cover search branches."""
    nvars = draw(st.integers(1, 6))
    ring = PolyRing(QQ, list("abcdef")[:nvars])
    gens = []
    for _ in range(draw(st.integers(1, 7))):
        support = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=nvars))
        gens.append(ring.monomial(tuple(draw(st.integers(1, 3)) if i in support else 0
                                        for i in range(nvars))))
    return gr.Ideal(ring, gens)


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_height_of_monomial_ideals_matches_the_reference(I):
    assert gr.height(I) == reference_height(I)


def test_minimalize_presentation(R):
    # non-minimal presentation with a unit entry collapses to one generator
    pres = gr.ModulePresentation(
        R, None, [1, 1],
        [(R.one(), R.from_string("2")), (R.from_string("x"), R.from_string("y"))],
    )
    pruned = gr.minimalize_presentation(pres)
    assert pruned is not pres
    assert pruned.nrows == 1
    assert all(
        p.is_zero() or p.homogeneous_degree() > 0 for c in pruned.columns for p in c
    )
    # the cokernel is unchanged: R(-1)/(y - 2x) has Hilbert function 1,1,1...
    assert pruned.hilbert_function(4) == pres.hilbert_function(4)
    # a minimal presentation is returned as it is
    assert gr.minimalize_presentation(pruned) is pruned


def test_prime_field_groebner():
    F7 = PolyRing(GF(7), ["x", "y"])
    gb = gr.Ideal(F7, [F7.from_string("x^2 + 3*y^2"), F7.from_string("x*y")]).groebner()
    for g in gb:
        assert gb.normal_form(g).is_zero() or g in gb.elements


# -- reduced bases on random homogeneous ideals ---------------------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(), st.randoms(use_true_random=False))
def test_groebner_basis_is_reduced_and_canonical(ring_gens, rng):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    gb = I.groebner()
    elems = list(gb)
    leads = gb.lead_monomials()
    # generators and S-pairs reduce to zero
    assert all(gb.normal_form(g).is_zero() for g in I.generators)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            assert gb.normal_form(gr.s_polynomial(elems[i], elems[j], DEGREVLEX)).is_zero()
    # reduced: monic, and no term of an element is divisible by another's lead
    for i, g in enumerate(elems):
        assert g.leading_term(DEGREVLEX)[1] == 1
        for m in g.terms:
            assert not any(monomial_divides(lm, m) for j, lm in enumerate(leads) if j != i)
    # canonical: independent of the order of the generators
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert gr.Ideal(ring, shuffled).groebner().elements == elems
    # the standard monomials on packed keys are those the tuple test keeps
    for d in range(7):
        assert gr.standard_monomials(I, d) == [
            m for m in ring.monomials_of_degree(d)
            if not any(monomial_divides(lm, m) for lm in leads)]
    # the standard-monomial and slice-rank Hilbert routes agree
    assert gr.quotient_hilbert_by_monomials(I, 6) == gr.ideal_as_module(I).hilbert_function(6)
    # the two complete-intersection criteria agree (raises CriteriaDisagree).
    # A cap at Schreyer's bound makes Z_1, and so the H1 criterion, complete.
    ci_certificate(I, I.generator_syzygy_bound())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_generator_syzygies_end_at_schreyer_bound(ring_gens):
    # Z_1 computed three degrees past Schreyer's bound B finds no minimal
    # generator above B, and generator_syzygies stops at B with the same
    # ones (3 variables: in 4, B reaches 9 and B + 3 takes minutes)
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = I.generator_syzygy_bound()
    columns = [(g,) for g in I.minimal_generators()]
    wide = gr.syzygies(gr.ModulePresentation(ring, None, [0], columns), bound + 3)
    assert all(d <= bound for d in wide.col_degrees), (bound, wide.col_degrees)
    assert I.generator_syzygies(bound + 3).col_degrees == wide.col_degrees


def test_schreyer_bound_examples(R, R3):
    # generators only: a principal ideal has no pairs
    assert ideal(R, "x^3 + y^3").generator_syzygy_bound() == 3
    # lcm(x^2, x*y) = x^2*y; the syzygy y*e1 - x*e2 sits in degree 3
    I = ideal(R, "x^2", "x*y")
    assert I.generator_syzygy_bound() == 3
    assert I.generator_syzygies(12).col_degrees == [3]
    # coprime leads: the Koszul syzygy of x^2, y^3 in degree 5
    assert ideal(R, "x^2", "y^3").generator_syzygy_bound() == 5
    assert ideal(R3, "x*y", "x*z", "y*z").generator_syzygy_bound() == 3
    assert gr.Ideal(R, []).generator_syzygy_bound() == 0


def test_equal_leads_do_not_cancel(R3):
    # both elements lead with y^2 before inter-reduction; x*z + y^2 must
    # tail-reduce to x*z instead of cancelling against y^2
    gb = ideal(R3, "x*z + y^2", "y^2").groebner()
    assert [str(g) for g in gb] == ["x*z", "y^2"]
    assert gr.height(ideal(R3, "x*z + y^2", "y^2")) == 2


# -- the Buchberger engine against the textbook loop -----------------------------


def reference_buchberger(ideal, order):
    """Reference: the former buchberger, which rescans every pending pair,
    recomputes leading terms, has no chain criterion and reduces with
    multivariate_divide.  Returns the reduced basis as a list."""
    ring = ideal.ring
    F = ring.field
    reduce = lambda f, reducers: gr.multivariate_divide(f, reducers, order)[1]
    basis = []
    for g in ideal.generators:
        _, lc = g.leading_term(order)
        basis.append(g.scale(F.inv(lc)))
    basis.sort(key=lambda g: order.key(g.leading_term(order)[0]))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        i, j = min(
            pairs,
            key=lambda ij: (
                sum(
                    monomial_lcm(
                        basis[ij[0]].leading_term(order)[0],
                        basis[ij[1]].leading_term(order)[0],
                    )
                ),
                ij,
            ),
        )
        pairs.discard((i, j))
        fi, fj = basis[i], basis[j]
        mi = fi.leading_term(order)[0]
        mj = fj.leading_term(order)[0]
        if monomial_lcm(mi, mj) == monomial_mul(mi, mj):
            continue
        r = reduce(gr.s_polynomial(fi, fj, order), basis)
        if r.is_zero():
            continue
        _, lc = r.leading_term(order)
        basis.append(r.scale(F.inv(lc)))
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))

    basis.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    minimal = []
    for g in basis:
        lm = g.leading_term(order)[0]
        if not any(monomial_divides(h.leading_term(order)[0], lm) for h in minimal):
            minimal.append(g)
    return [reduce(g, minimal[:i] + minimal[i + 1 :]) for i, g in enumerate(minimal)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_buchberger_matches_the_reference(ring_gens):
    # the reduced basis is unique, so the two loops agree element for
    # element; lex only up to 3 variables, where the reference stays fast
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    for order in (DEGREVLEX, DEGLEX) + ((LEX,) if ring.nvars <= 3 else ()):
        assert gr.buchberger(I, order).elements == reference_buchberger(I, order)


@st.composite
def rational_ideals(draw):
    """Generators over Q in up to 3 variables (in 4 the reference's fractions
    grow to seconds a draw), each scaled by a Fraction that leaves no
    coefficient integral, so no lead coefficient is 1 or -1 under any order,
    and each term then divided by 1, 2 or 3, so that the denominators within
    a generator differ."""
    ring, gens = draw(homogeneous_ideals(max_vars=3, fields=(QQ,)))
    scales = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7))
    scaled = []
    for g in gens:
        q = draw(scales.filter(
            lambda q: all((c * q).denominator != 1 for c in g.terms.values())))
        scaled.append(Polynomial(ring, {m: c * q / draw(st.integers(1, 3))
                                        for m, c in g.terms.items()}))
    return ring, scaled


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_ideals())
def test_buchberger_on_rational_generators_matches_the_reference(ring_gens):
    # the primitive integer elements give the reference's monic basis
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    for order in (DEGREVLEX, DEGLEX, LEX):
        assert gr.buchberger(I, order).elements == reference_buchberger(I, order)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(fields=(QQ,)), st.data())
def test_reduce_on_integer_data_is_a_multiple_of_the_remainder(ring_gens, data):
    # a divisor with integer lead a != 1 scales instead of dividing: the
    # remainder is a nonzero multiple of the exact one, with its support
    ring, gens = ring_gens
    mons = ring.monomials_of_degree(data.draw(st.integers(1, 4)))
    support = data.draw(st.lists(st.sampled_from(mons), min_size=1, max_size=6, unique=True))
    f = Polynomial(ring, {m: data.draw(st.integers(-5, 5).filter(bool)) for m in support})
    divisors = [g.scale(data.draw(st.sampled_from((2, -3, 6)))) for g in gens]
    for order in (DEGREVLEX, DEGLEX, LEX):
        keys = gr._order_keys(order, ring.nvars)
        integer_data = []
        for d in divisors:
            lm, lc = d.leading_term(order)
            integer_data.append((keys.sign * keys.key(lm), lc,
                                 [(keys.key(m), c) for m, c in d.terms.items() if m != lm]))
        r = remainder(f, integer_data, order)
        exact = gr.multivariate_divide(f, divisors, order)[1]
        assert all(type(c) is int for c in r.terms.values())
        assert r.terms.keys() == exact.terms.keys()
        if r:
            lc_r, lc_exact = r.leading_term(order)[1], exact.leading_term(order)[1]
            assert r.scale(Fraction(lc_exact, lc_r)) == exact


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(), st.data())
def test_reduce_matches_multivariate_divide(ring_gens, data):
    # both take the same terms to the same divisors in the same order
    ring, gens = ring_gens
    mons = ring.monomials_of_degree(data.draw(st.integers(1, 4)))
    support = data.draw(st.lists(st.sampled_from(mons), min_size=1, max_size=6, unique=True))
    f = Polynomial(ring, {m: ring.field.of_int(data.draw(st.integers(-5, 5).filter(bool)))
                          for m in support})
    divisors = gens + list(gr.Ideal(ring, gens).groebner())
    for order in (DEGREVLEX, DEGLEX, LEX):
        data = [divisor(d, order) for d in divisors]
        assert remainder(f, data, order) == gr.multivariate_divide(f, divisors, order)[1]


@st.composite
def monomial_pairs(draw):
    """Two exponent tuples in 1-5 variables, each of degree below 2^15; in
    half the draws the second permutes the first, so the degrees agree."""
    n = draw(st.integers(1, 5))
    exps = st.lists(st.integers(0, (gr._GUARDED_LIMIT - 1) // n), min_size=n, max_size=n)
    a = draw(exps)
    return tuple(a), tuple(draw(st.one_of(exps, st.permutations(a))))


@settings(max_examples=200, deadline=None)
@given(monomial_pairs())
def test_order_keys_follow_the_tuple_order(pair):
    # sums for products, the order within a degree, rank across degrees,
    # and divisibility, lcm and degree on the positive keys
    a, b = pair
    for order in (DEGREVLEX, DEGLEX, LEX):
        keys = gr._order_keys(order, len(a))
        ka, kb = keys.key(a), keys.key(b)
        pa, pb = keys.sign * ka, keys.sign * kb
        assert pa == gr._pack(a if order is DEGREVLEX else a[::-1])
        assert keys.monomial(ka) == a
        assert keys.key(monomial_mul(a, b)) == ka + kb
        if sum(a) == sum(b):
            assert (ka < kb) == (order.key(a) < order.key(b))
        assert (keys.rank(pa) < keys.rank(pb)) == (order.key(a) < order.key(b))
        assert gr._divides(pa, pb, keys.guards) == monomial_divides(a, b)
        lcm = gr._lcm(pa, pb, keys.guards)
        assert keys.monomial(keys.sign * lcm) == monomial_lcm(a, b)
        assert gr._degree(lcm) == sum(monomial_lcm(a, b))


def test_degrees_just_below_the_guard_give_the_reference_basis():
    # exponents of 2^15 - 1 fill the 15 bits below each guard; the S-pair of
    # x^top + 2y^top and x^top has that degree and brings y^top in
    top = gr._GUARDED_LIMIT - 1
    for field in (QQ, GF(32003)):
        ring = PolyRing(field, ["x", "y"])
        I = ideal(ring, f"x^{top} + 2*y^{top}", f"x^{top}")
        f = ring.from_string(f"x^{top} + 3*x*y^{top - 1} - y^{top}")
        for order in (DEGREVLEX, DEGLEX, LEX):
            gb = gr.buchberger(I, order)
            assert gb.elements == reference_buchberger(I, order)
            assert len(gb) == 2
            assert gb.normal_form(f) == gr.multivariate_divide(f, gb.elements, order)[1]


def test_degrees_at_the_guard_raise():
    # leads x^h*y and x*y^h share x*y, and their lcm has degree 2h = 2^15
    limit = gr._GUARDED_LIMIT
    h = limit // 2
    ring = PolyRing(QQ, ["x", "y"])
    for order in (DEGREVLEX, DEGLEX, LEX):
        with pytest.raises(gr.PackedDegreeError):
            gr.buchberger(ideal(ring, f"x^{h}*y", f"x*y^{h}"), order)
    with pytest.raises(gr.PackedDegreeError):
        gr.buchberger(ideal(ring, f"x^{limit}"))
    with pytest.raises(gr.PackedDegreeError):
        ideal(ring, "x*y").groebner().normal_form(ring.from_string(f"y^{limit} + x"))
    # coprime leads are never reduced, so a large lcm of theirs is fine
    coprime = ideal(ring, f"x^{limit - 1}", f"y^{limit - 1}")
    assert set(gr.buchberger(coprime).elements) == set(coprime.generators)


# -- d^2 = 0 against the polynomial-product construction ----------------------


def _compose_is_zero_by_products(pres, syz):
    """Reference: the former compose_is_zero, which multiplies the matrices
    as polynomials and normalises every entry mod I."""
    gb = pres.modulus.groebner() if pres.over_quotient() else None
    for col in syz.columns:
        for i in range(pres.nrows):
            acc = pres.ring.zero()
            for j in range(pres.ncols):
                acc = acc + pres.columns[j][i] * col[j]
            if gb is not None:
                acc = gb.normal_form(acc)
            if not acc.is_zero():
                return False
    return True


def _presentations(I):
    """Presentations over R and over S = R/I.  The last is S as the span of
    1 in S: its syzygy slices are I*S, so it has no syzygies."""
    ring = I.ring
    gb = I.groebner()
    z1 = I.generator_syzygies(I.generator_syzygy_bound())
    conormal = gr.ModulePresentation(
        ring, I, z1.row_degrees, [tuple(gb.normal_form(p) for p in c) for c in z1.columns])
    return [gr.ideal_as_module(I), z1, gr.residue_field_presentation(ring, I), conormal,
            gr.ModulePresentation(ring, I, [0], [(ring.one(),)])]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3), st.data())
def test_compose_is_zero_matches_the_product_reference(ring_gens, data):
    # a presentation and its syzygies compose to zero; a syzygy column with
    # one entry perturbed by a monomial mostly does not, over R and over S
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _presentations(I):
        syz = gr.syzygies(pres, bound)
        assert gr.compose_is_zero(pres, syz) and _compose_is_zero_by_products(pres, syz)
        if not syz.ncols:
            continue
        k = data.draw(st.integers(0, syz.ncols - 1))
        col = list(syz.columns[k])
        j = data.draw(st.sampled_from([j for j, p in enumerate(col) if not p.is_zero()]))
        m = data.draw(st.sampled_from(ring.monomials_of_degree(col[j].homogeneous_degree())))
        col[j] = col[j] + ring.monomial(m)
        perturbed = gr.ModulePresentation(ring, syz.modulus, syz.row_degrees,
                                          syz.columns[:k] + [tuple(col)] + syz.columns[k + 1:])
        assert gr.compose_is_zero(pres, perturbed) == _compose_is_zero_by_products(pres, perturbed)


def test_compose_is_zero_detects_a_nonzero_composite(R):
    pres = gr.ideal_as_module(ideal(R, "x", "y"))
    x, y = R.gens()
    assert not gr.compose_is_zero(pres, gr.ModulePresentation(R, None, [1, 1], [(x + y, -x)]))
    # over S = R/(x^2) the same columns present the maximal ideal: x.x lies
    # in I, x.y does not
    over_s = gr.residue_field_presentation(R, ideal(R, "x^2"))
    column = lambda p: gr.ModulePresentation(R, over_s.modulus, [1, 1], [(p, R.zero())])
    assert gr.compose_is_zero(over_s, column(x))
    assert not gr.compose_is_zero(over_s, column(y))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_first_syzygy_degree_is_the_first_syzygy_column(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _presentations(I):
        degrees = gr.syzygies(pres, bound).col_degrees
        assert gr.first_syzygy_degree(pres, bound) == (degrees[0] if degrees else None)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_syzygy_loop_with_the_syzygies_as_boundaries_chooses_nothing(ring_gens):
    # the syzygies up to the bound span every syzygy slice up to it, so
    # with them as boundaries no slice has a generator left; with no
    # boundaries the loop chooses the minimal syzygy generators
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _presentations(I):
        syz = gr.syzygies(pres, bound)
        assert all(not chosen for _, _, chosen
                   in gr._minimal_syzygies_by_degree(pres, bound, syz))
        domain = gr.FreeSlices(ring, pres.col_degrees, pres.modulus)
        generators = [domain.from_coords(kernel[c], d) for d, kernel, chosen
                      in gr._minimal_syzygies_by_degree(pres, bound, None) for c in chosen]
        assert generators == syz.columns == gr.syzygy_generators(pres, bound)
