import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import dense, homogeneous_ideals, sparse

from cikit import groebner as gr
from cikit import linalg
from cikit.fields import QQ
from cikit.koszul import (
    KoszulH1,
    _h1_relation_bound,
    h1_free_summand_probe,
    koszul_complex,
    koszul_h1,
)
from cikit.groebner import ModulePresentation
from cikit.poly import PolyRing


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


def test_rank_profiles(R):
    assert koszul_complex(ideal(R, "x", "y")).rank_profile() == [1, 2, 1]
    assert koszul_complex(ideal(R, "x^2", "x*y", "y^2")).rank_profile() == [1, 3, 3, 1]
    assert koszul_complex(ideal(R, "x^2")).rank_profile() == [1, 1]


def test_d_squared_zero_exact(R):
    R3 = PolyRing(QQ, ["x", "y", "z"])
    for texts in (("x", "y"), ("x^2", "x*y", "y^2")):
        assert koszul_complex(ideal(R, *texts)).verify_d_squared()
    assert koszul_complex(
        gr.Ideal(R3, [R3.from_string(t) for t in ("x*y", "x*z", "y*z")])
    ).verify_d_squared()


def test_minimal_generating_set_used(R):
    # non-minimal input: the complex is built on the 3 minimal generators
    cx = koszul_complex(ideal(R, "x^2", "x*y", "y^2", "x^2 + x*y"))
    assert len(cx.generators) == 3


def test_regular_sequence_h1_vanishes(R):
    assert koszul_h1(ideal(R, "x", "y"), 8).is_zero()
    assert koszul_h1(ideal(R, "x^2", "y^2"), 10).is_zero()


def test_h1_x2_xy(R):
    h = koszul_h1(ideal(R, "x^2", "x*y"), 10)
    assert h.minimal_generator_count() == 1
    [cycle] = h.cycle_reps
    assert {str(cycle[0]), str(cycle[1])} == {"y", "-x"}
    # x annihilates the class
    assert any(str(c[0]) in ("x", "-x") for c in h.presentation.columns)


def test_h1_m2_two_generators(R):
    h = koszul_h1(ideal(R, "x^2", "x*y", "y^2"), 10)
    assert h.minimal_generator_count() == 2


def test_h1_hilbert_function_two_routes(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2"), ("x", "y")):
        h = koszul_h1(ideal(R, *texts), 10)
        assert h.hilbert_function(8) == h.direct_hilbert_function(8)


def test_h1_invariant_under_generator_change(R):
    # changing the minimal generating set by an invertible combination
    # leaves mu(H1) and the Hilbert function unchanged
    base = koszul_h1(ideal(R, "x^2", "x*y", "y^2"), 10)
    mixed = koszul_h1(ideal(R, "x^2 + x*y", "x*y - 2*y^2", "y^2"), 10)
    assert base.minimal_generator_count() == mixed.minimal_generator_count()
    assert base.hilbert_function(9) == mixed.hilbert_function(9)


def test_free_summand_probe(R):
    # zero module: vacuous
    assert h1_free_summand_probe(koszul_h1(ideal(R, "x", "y"), 8)) == "NoneFoundWithinBound"
    # genuine non-free H1s
    h = koszul_h1(ideal(R, "x^2", "x*y"), 10)
    assert h1_free_summand_probe(h) == "NoneFoundWithinBound"
    h2 = koszul_h1(ideal(R, "x^2", "x*y", "y^2"), 10)
    assert h1_free_summand_probe(h2) == "NoneFoundWithinBound"
    # hypothetical presentation with empty relations: free
    I = ideal(R, "x^2", "x*y")
    fake = KoszulH1(h.complex, h.cycle_reps, ModulePresentation(R, I, [3], []), 10, True)
    assert h1_free_summand_probe(fake) == "FreeSummand"
    # both generators in the one relation y*g1 - y^2*g2 = y*(g1 - y*g2), g1 in
    # degree 3 and g2 in degree 2: g2 splits off (g1 does not), found through
    # the kernel of the transposed presentation; against y*g1 + x*g2 in
    # equal degrees neither generator does
    x, y = R.from_string("x"), R.from_string("y")
    for degrees, col, verdict in (([3, 2], (y, -y * y), "FreeSummand"),
                                  ([3, 3], (y, x), "NoneFoundWithinBound")):
        fake = KoszulH1(h.complex, h.cycle_reps * 2,
                        ModulePresentation(R, I, degrees, [col]), 10, True)
        assert h1_free_summand_probe(fake) == verdict
        assert reference_free_summand_probe(fake) == verdict


def test_ci_corpus_h1_zero():
    R3 = PolyRing(QQ, ["x", "y", "z"])
    for texts in (("x^2", "y^2", "z^2"), ("x^2 - y*z",), ("x^2 + y*z", "y^2 + x*z")):
        I = gr.Ideal(R3, [R3.from_string(t) for t in texts])
        assert koszul_h1(I, 10).is_zero()


def test_h1_is_memoized_per_ideal_and_bound(R):
    I = ideal(R, "x^2", "x*y")
    h1 = koszul_h1(I, 6)
    assert koszul_h1(I, 6) is h1
    assert koszul_h1(I, degree_bound=6) is h1
    assert koszul_h1(I, 7) is not h1
    assert koszul_h1(ideal(R, "x^2", "x*y"), 6) is not h1


def _multiples(slices, vec, monomials, d):
    """Coordinate rows of m*vec, one per monomial m, each product formed as
    polynomials."""
    return [slices.coords(tuple(p.mul_monomial(m) for p in vec), d) for m in monomials]


def _h1_cycle_reps_by_hand(ideal, degree_bound):
    """Reference: the former generator selection of H1, a Nakayama loop over
    the cycle degrees with denominator boundaries + m * Z_1."""
    cx = koszul_complex(ideal)
    ring, field, gens = ideal.ring, ideal.ring.field, cx.generators
    cycles = ideal.generator_syzygies(degree_bound)
    boundaries = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            col = [ring.zero()] * len(gens)
            col[i], col[j] = gens[j], -gens[i]
            boundaries.append(tuple(col))
    dom = gr.FreeSlices(ring, cx.gen_degrees)
    chosen = []
    for d in sorted(set(cycles.col_degrees)):
        denom = []
        for b in boundaries:
            bd = next(p.homogeneous_degree() + rd
                      for p, rd in zip(b, cx.gen_degrees) if not p.is_zero())
            if bd <= d:
                denom.extend(_multiples(dom, b, ring.monomials_of_degree(d - bd), d))
        for col, cd in zip(cycles.columns, cycles.col_degrees):
            if cd < d:
                denom.extend(_multiples(dom, col, ring.monomials_of_degree(d - cd), d))
        cand_idx = [j for j, cd in enumerate(cycles.col_degrees) if cd == d]
        cands = [dom.coords(cycles.columns[j], d) for j in cand_idx]
        chosen.extend(cand_idx[c] for c in linalg.independent_subset(denom, cands, field))
    return [cycles.columns[j] for j in sorted(chosen)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_h1_generators_match_the_hand_rolled_selection(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    assert koszul_h1(I, bound).cycle_reps == _h1_cycle_reps_by_hand(I, bound)


# -- H1's relations at the derived bound against the relation step at the cap


def reference_h1_relations(h1):
    """H1's relation columns as they were: the syzygies over R of
    [reps | boundaries] run to the cap, first block, reduced mod I, with
    the boundaries the columns of d_2."""
    cx = h1.complex
    reps = list(h1.cycle_reps)
    boundaries = cx.maps[1].columns if len(cx.maps) > 1 else []
    combined = ModulePresentation(cx.ideal.ring, None, cx.gen_degrees, reps + boundaries)
    gb = cx.ideal.groebner()
    heads = [tuple(gb.normal_form(p) for p in col[:len(reps)])
             for col in gr.syzygies(combined, h1.degree_bound).columns]
    return [head for head in heads if any(not p.is_zero() for p in head)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3), st.integers(-2, 3))
def test_h1_relations_at_the_derived_bound_match_the_cap(ring_gens, offset):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = _h1_relation_bound(I)
    cap = max(1, bound + offset)
    event("cap below the derived bound" if cap < bound else "cap at or above it")
    h1 = koszul_h1(I, cap)
    assert h1.degree_bound == cap and h1.complete == (cap >= bound)
    assert h1.presentation.columns == reference_h1_relations(h1)


def test_h1_relation_bound_terms(R):
    # (x^2, x*y): two leads, so no T_3; Schreyer's bound 3, d_1 + d_2 = 4
    assert _h1_relation_bound(ideal(R, "x^2", "x*y")) == 4
    # (x^2, x*y, y^2): T_3 = deg lcm(x^2, x*y, y^2) = 4, Schreyer's 4 (x^2 and y^2), pairs 4
    assert _h1_relation_bound(ideal(R, "x^2", "x*y", "y^2")) == 4
    R3 = PolyRing(QQ, ["x", "y", "z"])
    # (x, y^2, z^3): T_3 = 6 is the largest term
    assert _h1_relation_bound(gr.Ideal(R3, [R3.from_string(t) for t in ("x", "y^2", "z^3")])) == 6


# -- the Koszul-map route to the H1 Hilbert function ------------------------


def reference_direct_hilbert_function(h1, bound):
    """direct_hilbert_function as it was: the rows of d_1 built by hand."""
    cx = h1.complex
    ring = cx.ideal.ring
    if not cx.generators:
        return [0] * (bound + 1)
    d1 = cx.maps[0]
    dom = gr.FreeSlices(ring, cx.gen_degrees)
    tgt = d1.slices()
    out = []
    for d in range(bound + 1):
        dim_dom = dom.dim(d)
        if dim_dom == 0:
            out.append(0)
            continue
        rows = []
        for j, key in dom.basis(d):
            m = gr._unpack(key, ring.nvars)
            vec = tuple(p.mul_monomial(m) for p in d1.columns[j])
            rows.append(tgt.coords(vec, d))
        cycle_dim = dim_dom - linalg.rank(rows, ring.field)
        boundary_dim = cx.maps[1].image_slice_dim(d) if len(cx.maps) > 1 else 0
        out.append(cycle_dim - boundary_dim)
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_h1_hilbert_routes_agree(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in gens) + 2
    h1 = koszul_h1(I, bound)
    direct = h1.direct_hilbert_function(bound)
    assert direct == reference_direct_hilbert_function(h1, bound)
    assert h1.hilbert_function(bound) == direct


# -- the free-summand probe against the Hom(H1, S) system it replaced ---------


def reference_solve(rows, ncols, rhs, field):
    """One solution x of M x = rhs, or None (free variables zero)."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = linalg.rref(sparse(aug), field)
    red = dense(red, ncols + 1)
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][ncols]
    for row, b in zip(rows, rhs):
        acc = 0
        for a, v in zip(row, x):
            if a and v:
                acc = field.add(acc, field.mul(a, v))
        if acc != b:
            return None
    return x


def reference_free_summand_probe(h1):
    """h1_free_summand_probe as it was: for each generator g_i, unknowns
    s_j over the standard monomials of S in degree a_j - a_i, the pin
    s_i = 1, and each relation's sum r_j s_j = 0 in normal form."""
    if h1.is_zero():
        return "NoneFoundWithinBound"
    pres = h1.presentation
    ring = pres.ring
    field = ring.field
    ideal = pres.modulus
    gb = ideal.groebner()
    degrees = pres.row_degrees
    for i in range(len(degrees)):
        a_i = degrees[i]
        unknowns = [(j, m) for j, a_j in enumerate(degrees)
                    for m in gr.standard_monomials(ideal, a_j - a_i)]
        upos = {u: p for p, u in enumerate(unknowns)}
        unit = (i, (0,) * ring.nvars)
        if unit not in upos:
            continue
        row = [0] * len(unknowns)
        row[upos[unit]] = 1
        rows, rhs = [row], [1]
        for col, cdeg in zip(pres.columns, pres.col_degrees):
            mons = gr.standard_monomials(ideal, cdeg - a_i)
            pos_of = {m: p for p, m in enumerate(mons)}
            block = [[0] * len(unknowns) for _ in mons]
            for (j, m), p in upos.items():
                prod = gb.normal_form(col[j].mul_monomial(m))
                for pm, pc in prod.terms.items():
                    block[pos_of[pm]][p] = field.add(block[pos_of[pm]][p], pc)
            rows.extend(block)
            rhs.extend([0] * len(block))
        if reference_solve(rows, len(unknowns), rhs, field) is not None:
            return "FreeSummand"
    return "NoneFoundWithinBound"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3), st.integers(2, 5))
def test_free_summand_probe_matches_the_hom_system(ring_gens, cap):
    # caps below the relations' degrees leave H1 with too few relations,
    # so both verdicts occur
    ring, gens = ring_gens
    h1 = koszul_h1(gr.Ideal(ring, gens), cap)
    verdict = h1_free_summand_probe(h1)
    event(verdict)
    assert verdict == reference_free_summand_probe(h1)
