import pytest
from hypothesis import HealthCheck, given, settings

from conftest import bruteforce_kernel, dense, homogeneous_ideals, sparse

from cikit import groebner as gr
from cikit import linalg
from cikit.conormal import (
    conormal,
    conormal_route_a,
    differential_columns,
    jacobi_zariski_check,
    jacobian_columns,
    kahler_s_over_k,
    koszul_strand_crosscheck,
    mu_invariant_check,
)
from cikit.dgmodel import build_minimal_model
from cikit.fields import QQ, GF
from cikit.groebner import FreeSlices, ModulePresentation
from cikit.poly import PolyRing, Polynomial
from cikit.resolution import projdim_probe


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def R3():
    return PolyRing(QQ, ["x", "y", "z"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


def test_ci_conormal_free_rank_two(R):
    con = conormal(ideal(R, "x^2", "y^2"), 10)
    assert con.mu == 2
    probe = projdim_probe(con.route_a, 12)
    assert probe.is_finite() and probe.value == 0


def test_principal_conormal_free(R):
    con = conormal(ideal(R, "x"), 8)
    assert con.mu == 1
    assert projdim_probe(con.route_a, 10).is_finite()


def test_m2_conormal_not_free(R):
    con = conormal(ideal(R, "x^2", "x*y", "y^2"), 10)
    assert con.mu == 3
    probe = projdim_probe(con.route_a, 12)
    # dim S = 0, so F_1 != 0 certifies infinite projective dimension
    assert probe.is_infinite() and probe.value == 1
    assert repr(probe) == "Infinite(F_1 != 0; dim=0)"


def test_routes_checked_on_more_ideals(R3):
    for texts in (("x^2 - y*z",), ("x*y", "x*z", "y*z"), ("x^2 + y*z", "y^2 + x*z")):
        con = conormal(ideal(R3, *texts), 10)
        assert con.mu == len(texts)


def test_mu_invariant(R):
    for texts in (("x^2", "y^2"), ("x",), ("x^2", "x*y", "y^2"), ("x^2", "x*y")):
        assert mu_invariant_check(ideal(R, *texts), 10)


def test_kahler_s_over_k(R):
    # I = 0: free of rank n
    om = kahler_s_over_k(gr.Ideal(R, []))
    assert om.nrows == 2 and om.ncols == 0
    # (x^2) in k[x]: S dx / (2x dx), one-dimensional in degree 1
    Rx = PolyRing(QQ, ["x"])
    omx = kahler_s_over_k(ideal(Rx, "x^2"))
    assert omx.hilbert_function(4) == [0, 1, 0, 0, 0]
    # (x^2 + y^2): cokernel of the transposed gradient
    omq = kahler_s_over_k(ideal(R, "x^2 + y^2"))
    [col] = omq.columns
    assert {str(p) for p in col} == {"2*x", "2*y"}


def test_jacobian_char_p_warning():
    F7 = PolyRing(GF(7), ["x"])
    with pytest.warns(RuntimeWarning):
        jacobian_columns(gr.Ideal(F7, [F7.from_string("x^7")]))


def test_jz_socle_example():
    Rx = PolyRing(QQ, ["x"])
    rep = jacobi_zariski_check(ideal(Rx, "x^2"), 8)
    assert rep.exact
    assert rep.d1 == [0, 0, 0, 1, 0, 0, 0, 0, 0]  # the socle, degree 3


def test_jz_zero_ideal(R):
    rep = jacobi_zariski_check(gr.Ideal(R, []), 6)
    assert rep.exact and all(v == 0 for v in rep.d1)


def test_jz_generic_quadrics(R3):
    rep = jacobi_zariski_check(ideal(R3, "x^2 + y*z", "y^2 + x*z"), 10)
    assert rep.exact


def test_jz_non_ci_entries(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2")):
        rep = jacobi_zariski_check(ideal(R, *texts), 10)
        assert rep.exact, rep.failures


def differential_kernel_slice(ideal, d):
    """{v in I_d : all partials of v lie in I}, the degree-d slice of the
    kernel of d: I/I^2 -> S^n(-1) before dividing by I^2, as the RREF of the
    kernel of :func:`differential_columns`, in the monomial coordinates of
    R_d, those of ``FreeSlices(ring, [0])``.  Over Q, Euler's identity
    deg(v) * v = sum_i x_i * dv/dx_i puts every such v into m*I, so the
    slice lies in (m*I + I^2)_d; in characteristic p it need not ((x^3) over
    GF(3) in degree 3).  The Jacobi-Zariski check reads only its dimension,
    from a rank."""
    return linalg.kernel(differential_columns(ideal, d), ideal.ring.field)


def _kernel_rows_outside_m_i_plus_i2(ring, gens, d):
    """Rows of differential_kernel_slice(I, d) outside (m*I + I^2)_d, the
    span of x_i*u*g and u*g*h over generators g, h and monomials u, in
    the monomial coordinates of R_d."""
    coords = FreeSlices(ring, [0])
    span = []
    for g in gens:
        dg = g.homogeneous_degree()
        for x in ring.gens():
            span += [coords.coords((x * ring.monomial(u) * g,), d)
                     for u in ring.monomials_of_degree(d - 1 - dg)]
        for h in gens:
            span += [coords.coords((ring.monomial(u) * g * h,), d)
                     for u in ring.monomials_of_degree(d - dg - h.homogeneous_degree())]
    kern_rows = differential_kernel_slice(gr.Ideal(ring, gens), d)
    return linalg.independent_subset(span, kern_rows, ring.field)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(fields=(QQ,)))
def test_differential_kernel_lies_in_m_i_plus_i_squared_over_q(ring_gens):
    # Euler: deg(v) * v = sum x_i dv/dx_i puts every v in ker(d) into m*I
    ring, gens = ring_gens
    cap = max(g.homogeneous_degree() for g in gens) + 2
    for d in range(cap + 1):
        assert not _kernel_rows_outside_m_i_plus_i2(ring, gens, d), d


def test_differential_kernel_leaves_m_i_plus_i_squared_in_char_p():
    # d(x^3) = 3x^2 = 0 over GF(3), while (m*I + I^2)_3 = 0
    ring = PolyRing(GF(3), ["x"])
    assert _kernel_rows_outside_m_i_plus_i2(ring, [ring.from_string("x^3")], 3) == [0]


def test_koszul_strand_crosscheck(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2")):
        I = ideal(R, *texts)
        model = build_minimal_model(I, 4, 12)
        ok, info = koszul_strand_crosscheck(I, 10, model)
        assert ok, info


def test_route_a_is_memoized_per_ideal_and_bound(R):
    # keyed by the Z_1 bound min(Schreyer's bound, cap): (x^2, x*y) has
    # Schreyer's bound 3, so every cap from 3 up shares one presentation
    I = ideal(R, "x^2", "x*y")
    assert I.generator_syzygy_bound() == 3
    pres = conormal_route_a(I, 6)
    assert conormal_route_a(I, 6) is pres
    assert conormal_route_a(I, 7) is pres
    assert conormal_route_a(I, 2) is not pres
    assert conormal_route_a(ideal(R, "x^2", "x*y"), 6) is not pres


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_conormal_routes_agree_on_random_ideals(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    # raises RouteDisagreement when route A (syzygies of the generators) and
    # route B (the Kaehler module of the minimal model) differ in Hilbert
    # function or minimal generator count up to the bound.  Both routes are
    # truncated at the same bound, so a low one hides no disagreement below
    # it; top degree + 2 keeps 100 examples at a few seconds.
    conormal(I, max(g.homogeneous_degree() for g in I.generators) + 2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_route_b_needs_only_stage_two(ring_gens):
    # route B reads X_1 and X_2, so the stage-2 model conormal() builds
    # gives the presentation a stage-3 model gives
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    cap = max(g.homogeneous_degree() for g in I.generators) + 2
    model3 = build_minimal_model(I, 3, cap)
    own, given_model = conormal(I, cap), conormal(I, cap, model3)
    assert (own.mu, own.hilbert) == (given_model.mu, given_model.hilbert)
    stage2 = build_minimal_model(I, 2, cap).reduced_kahler_matrix(2)
    stage3 = model3.reduced_kahler_matrix(2)
    assert (stage2.row_degrees, stage2.columns) == (stage3.row_degrees, stage3.columns)


def _route_a_from_products(I, degree_bound):
    """Reference: I/I^2 by the former construction, syzygies over R of
    [generators | products g_i g_j], first block reduced mod I."""
    ring = I.ring
    gens = I.minimal_generators()
    products = [gens[i] * gens[j] for i in range(len(gens)) for j in range(i, len(gens))]
    combined = ModulePresentation(ring, None, [0], [(g,) for g in gens + tuple(products)])
    gb = I.groebner()
    cols = [tuple(gb.normal_form(p) for p in col[: len(gens)])
            for col in gr.syzygies(combined, degree_bound).columns]
    return ModulePresentation(ring, I, [g.homogeneous_degree() for g in gens], cols)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_route_a_spans_the_products_construction(ring_gens):
    # I/I^2 = I (x) S: the relations Z_1 mod I span, in every degree up to
    # the bound, the same submodule of S^t (with I*S^t) as the relations
    # a with sum a_i g_i in I^2
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    route_a = conormal_route_a(I, bound)
    reference = _route_a_from_products(I, bound)
    assert route_a.row_degrees == reference.row_degrees
    for d in range(bound + 1):
        ours, theirs = route_a.span_slice_rows(d), reference.span_slice_rows(d)
        assert not linalg.independent_subset(ours, theirs, ring.field), d
        assert not linalg.independent_subset(theirs, ours, ring.field), d


def _differential_kernel_slice_stacked(ideal, d):
    """Reference: the former differential_kernel_slice, which stacks the n
    partials in ring monomial coordinates and builds the quotient I_{d-1}
    in each block by hand."""
    ring = ideal.ring
    field = ring.field

    def to_poly(coords, e):
        mons = ring.monomials_of_degree(e)
        return Polynomial(ring, {m: c for m, c in zip(mons, coords) if not field.is_zero(c)})

    def to_coords(p, e):
        pos = {m: i for i, m in enumerate(ring.monomials_of_degree(e))}
        row = [field.zero()] * len(pos)
        for m, c in p.terms.items():
            row[pos[m]] = c
        return row

    basis = dense(ideal.slice_rref(d)[0], len(ring.monomials_of_degree(d)))
    if not basis:
        return []
    lower_dim = len(ring.monomials_of_degree(d - 1))
    lower = dense(ideal.slice_rref(d - 1)[0], lower_dim)
    cols = []
    for vec in basis:
        v = to_poly(vec, d)
        stacked = []
        for i in range(ring.nvars):
            stacked.extend(to_coords(v.partial_derivative(i), d - 1))
        cols.append(stacked)
    subspace = []
    for w in lower:
        for i in range(ring.nvars):
            row = [field.zero()] * (ring.nvars * lower_dim)
            row[i * lower_dim : (i + 1) * lower_dim] = w
            subspace.append(row)
    out = []
    for cvec in bruteforce_kernel(cols, subspace, field):
        p = ring.zero()
        for c, bvec in zip(cvec, basis):
            if not field.is_zero(c):
                p = p + to_poly(bvec, d).scale(c)
        out.append(p)
    return out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_differential_kernel_slice_matches_the_stacked_construction(ring_gens):
    # the kernel of v -> (v, grad v) read in the slices of S (+) S^n(-1) is
    # the RREF, in the monomial coordinates of R_d, of the span of the
    # hand-stacked blocks' polynomials
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    for d in range(max(g.homogeneous_degree() for g in I.generators) + 3):
        pos = {m: i for i, m in enumerate(ring.monomials_of_degree(d))}
        rows = []
        for p in _differential_kernel_slice_stacked(I, d):
            row = [ring.field.zero()] * len(pos)
            for m, c in p.terms.items():
                row[pos[m]] = c
            rows.append(row)
        assert differential_kernel_slice(I, d) == linalg.rref(sparse(rows), ring.field)[0], d
