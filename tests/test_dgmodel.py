import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import homogeneous_ideals, sparse

from cikit import dgmodel
from cikit import groebner as gr
from cikit.dgmodel import (
    CharacteristicTooSmall,
    DgDerivation,
    build_minimal_model,
    verify_kahler_complex,
    verify_model_acyclicity,
    verify_model_differential,
)
from cikit import linalg
from cikit.fields import QQ, GF
from cikit.poly import PolyRing, Polynomial, monomial_mul
from cikit.resolution import ext_degree_bound


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


def model_for(ring, *texts, hdeg=4, intdeg=12):
    return build_minimal_model(ideal(ring, *texts), hdeg, intdeg)


def homological_degree(elem):
    """The homological degree of a homogeneous dg element, -1 for zero."""
    variables = elem.model.variables
    degs = {sum(variables[v].hdeg * e for v, e in w) for (_, w) in elem.terms}
    if not degs:
        return -1
    assert len(degs) == 1, f"mixed homological degrees {sorted(degs)}"
    return degs.pop()


def test_ci_model_is_koszul_complex(R):
    m = model_for(R, "x^2", "y^2", hdeg=5)
    assert m.deviations() == [2, 0, 0, 0, 0]
    assert verify_model_differential(m) + verify_model_acyclicity(m) == []


def test_aci_stages(R):
    m = model_for(R, "x^2", "x*y")
    assert m.deviations()[:3] == [2, 1, 1]
    dump = m.dump().splitlines()
    assert dump[0] == "t1_1 : 1 2 : x^2"
    assert dump[1] == "t1_2 : 1 2 : x*y"
    assert dump[2] == "t2_1 : 2 3 : y*t1_1 - x*t1_2"
    assert dump[3] == "t3_1 : 3 4 : t1_1*t1_2 + x*t2_1"
    assert verify_model_differential(m) + verify_model_acyclicity(m) == []


def test_m2_deviations(R):
    m = model_for(R, "x^2", "x*y", "y^2")
    assert m.deviations()[:2] == [3, 2]
    assert verify_model_differential(m) + verify_model_acyclicity(m) == []


def test_graded_commutativity(R):
    m = model_for(R, "x^2", "x*y")
    t1, t2 = m.var_element(0), m.var_element(1)
    assert (t1 * t1).is_zero()                    # odd square
    assert (t1 * t2 + t2 * t1).is_zero()          # anticommutation
    x = m.embed(R.from_string("x"))
    assert (x * t1) * t2 == x * (t1 * t2)


def test_differential_squares_to_zero_on_products(R):
    m = model_for(R, "x^2", "x*y", "y^2")
    rng = random.Random(2)
    els = [m.var_element(i) for i in range(len(m.variables))]
    els.append(m.embed(R.from_string("x + 2*y")))
    for _ in range(15):
        w = rng.choice(els) * rng.choice(els)
        assert m.differential(m.differential(w)).is_zero()


def test_leibniz_on_random_triples(R):
    m = model_for(R, "x^2", "x*y", "y^2")
    rng = random.Random(9)
    els = [m.var_element(i) for i in range(len(m.variables))]
    for _ in range(15):
        a, b = rng.choice(els), rng.choice(els)
        da = homological_degree(a)
        lhs = m.differential(a * b)
        rhs = m.differential(a) * b
        term = a * m.differential(b)
        if da % 2:
            term = -term
        assert lhs == rhs + term


def test_derivation_signs(R):
    # d/dy (y z) = z and d/dy (z y) = (-1)^|z| z for odd y, z
    m = model_for(R, "x^2", "x*y")
    y, z = m.var_element(0), m.var_element(1)  # both odd (stage 1)
    dy = DgDerivation(m, -1, {0: m.one()})
    assert dy.apply(y * z) == z
    assert dy.apply(z * y) == -z


def test_characteristic_guard():
    R3 = PolyRing(GF(3), ["x"])
    with pytest.raises(CharacteristicTooSmall):
        build_minimal_model(gr.Ideal(R3, [R3.from_string("x^2")]), 5, 12)
    # GF(7) with bound 5 is fine
    R7 = PolyRing(GF(7), ["x", "y"])
    m = build_minimal_model(gr.Ideal(R7, [R7.from_string("x^2"), R7.from_string("y^2")]), 5, 12)
    assert verify_model_differential(m) + verify_model_acyclicity(m) == []


def test_degree_bound_warning(R):
    # Backelin's bound for a cubic at hdeg 5 is 1 + 2 * 5 = 11: the model
    # runs to it, and a cap below it leaves one notice
    I = ideal(R, "x^3 + y^3")
    m = build_minimal_model(I, 5, 12)
    assert m.intdeg_bound == 11 and m.warnings == []
    capped = build_minimal_model(I, 5, 10)
    assert capped.intdeg_bound == 10 and len(capped.warnings) == 1


def test_zero_ideal_has_no_variables(R):
    m = build_minimal_model(gr.Ideal(R, []), 3, 8)
    assert m.deviations() == [0, 0, 0]


def test_stage_caches_end_with_their_stage(R):
    # the last stage adjoins X_5, which clears the matrices of the stage
    # before; acyclicity then rebuilds them over every variable
    m = model_for(R, "x^2", "x*y", hdeg=5)
    assert m.variables_of_hdeg(5)
    assert not m._stage
    assert verify_model_acyclicity(m) == []
    assert {"monomials", "d"} <= {key[0] for key in m._stage}


def test_a_zero_differential_is_refused(R):
    # ModulePresentation drops zero columns, which would shift cycle
    # coordinates against the dg monomials; a model with d(v) = 0 raises
    I = ideal(R, "x^2")
    m = dgmodel.DgAlgebraModel(R, I, 3, 6)
    m.add_variable(1, 2, m.embed(I.generators[0]))
    assert m.differential_matrix(1).ncols == 1
    m.add_variable(2, 3, m.zero())
    with pytest.raises(dgmodel.ModelError):
        m.differential_matrix(2)


def test_kahler_module(R):
    m = model_for(R, "x^2", "x*y")
    assert verify_kahler_complex(m) == []
    con = m.reduced_kahler_matrix(2)
    assert con.nrows == 2 and con.ncols == 1
    # degree-1 component has rank |X_1| = mu(I)
    assert len(m.variables_of_hdeg(1)) == con.nrows

    Rx = PolyRing(QQ, ["x"])
    mx = build_minimal_model(gr.Ideal(Rx, [Rx.from_string("x^2")]), 4, 10)
    conx = mx.reduced_kahler_matrix(2)
    # free of rank 1, Hilbert function of (x^2)/(x^4)
    assert conx.nrows == 1 and conx.ncols == 0
    assert conx.hilbert_function(5) == [0, 0, 1, 1, 0, 0]


def test_kahler_ci_conormal_free(R):
    m = model_for(R, "x^2", "y^2", hdeg=5)
    con = m.reduced_kahler_matrix(2)
    assert con.nrows == 2 and con.ncols == 0


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3, max_degree=2))
def test_model_ends_at_backelin_bound(ring_gens):
    # the model built to ext_degree_bound(I, hdeg + 1) has the variables,
    # by (hdeg, intdeg), of one built two degrees further
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    hdeg = 4
    model = build_minimal_model(I, hdeg, 100)
    assert model.intdeg_bound == ext_degree_bound(I, hdeg + 1) and not model.warnings
    wider = lambda ideal, n: ext_degree_bound(ideal, n) + 2
    with mock.patch.object(dgmodel, "ext_degree_bound", wider):
        deeper = build_minimal_model(I, hdeg, 100)
    assert deeper.intdeg_bound == model.intdeg_bound + 2
    assert ([(v.hdeg, v.intdeg) for v in deeper.variables]
            == [(v.hdeg, v.intdeg) for v in model.variables])


# -- each stage's search against one that runs to the model's bound -----------


def full_range_adjoin_stage(model, n):
    """_adjoin_stage as it was, searching every stage up to the model's
    intdeg_bound rather than to Backelin's bound at n + 1."""
    field = model.field
    nvars = model.ring.nvars
    h = n - 1
    h_slices = model.differential_matrix(n).slices()
    mons = model.dg_monomials(h)
    cycle_slices = {}
    new_vars = []
    for d in range(0, model.intdeg_bound + 1):
        cycles = linalg.kernel(model.differential_matrix(h).span_slice_rows(d), field)
        cycle_slices[d] = cycles
        if not cycles:
            continue
        linear_positions = [
            pos
            for pos, (i, key) in enumerate(h_slices.basis(d))
            if key == 0 and model.dgmon_length(mons[i]) == 1
        ]
        for z in cycles:
            for pos in linear_positions:
                if z.get(pos, 0):
                    raise dgmodel.ModelError(
                        f"cycle with unit linear term at stage {n}, degree {d}"
                    )
        denom = model.differential_matrix(n).span_slice_rows(d)
        for zvec in cycle_slices.get(d - 1, []):
            for var in range(nvars):
                denom.append(h_slices.multiply_coords_by_var(zvec, d - 1, var))
        chosen = linalg.independent_subset(denom, cycles, field)
        for c in chosen:
            new_vars.append((d, model.element_from_coords(cycles[c], h, d)))
    for intdeg, cycle in new_vars:
        model.add_variable(n, intdeg, cycle)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3, max_degree=2), st.integers(4, 5), st.integers(-2, 1))
def test_stage_bounds_match_the_full_range_search(ring_gens, hdeg, shift):
    # stage n stops at ext_degree_bound(I, n + 1); a search to the model's
    # bound finds no more variables, with the cap above or below Backelin's
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    cap = ext_degree_bound(I, hdeg + 1) + shift
    model = build_minimal_model(I, hdeg, cap)
    with mock.patch.object(dgmodel, "_adjoin_stage", full_range_adjoin_stage):
        reference = build_minimal_model(I, hdeg, cap)
    assert model.dump() == reference.dump()
    assert model.complete == reference.complete == (shift >= 0)


# -- the FreeSlices model against the R[X] slice code it replaced -----------


def reference_slice_basis(model, hdeg, d):
    """Basis [(ring monomial, dg monomial)] of the (hdeg, d) slice, with
    its index."""
    out = []
    for w in model.dg_monomials(hdeg):
        wd = model.dgmon_intdeg(w)
        for m in model.ring.monomials_of_degree(d - wd):
            out.append((m, w))
    return out, {b: p for p, b in enumerate(out)}


def reference_slice_dim(model, hdeg, d):
    return len(reference_slice_basis(model, hdeg, d)[0])


def reference_element_coords(model, elem, hdeg, d):
    _, index = reference_slice_basis(model, hdeg, d)
    row = [0] * len(index)
    for key, c in elem.terms.items():
        row[index[key]] = c
    return row


def reference_element_from_coords(model, coords, hdeg, d):
    basis, _ = reference_slice_basis(model, hdeg, d)
    return dgmodel.DgElement(
        model, {basis[p]: c for p, c in coords.items() if c})


def reference_differential_rows(model, hdeg, d):
    basis, _ = reference_slice_basis(model, hdeg, d)
    rows = []
    for m, w in basis:
        shifted = dgmodel.DgElement(
            model,
            {(monomial_mul(m, dm), dww): dc for (dm, dww), dc in model._dw(w).terms.items()},
        )
        rows.append(reference_element_coords(model, shifted, hdeg - 1, d))
    return sparse(rows)


def reference_cycle_slice(model, hdeg, d):
    basis, _ = reference_slice_basis(model, hdeg, d)
    if not basis:
        return []
    rows = reference_differential_rows(model, hdeg, d)
    matrix = linalg.transpose(rows, reference_slice_dim(model, hdeg - 1, d))
    return linalg.nullspace(matrix, len(basis), model.field)


def reference_boundary_rows(model, hdeg, d):
    if reference_slice_dim(model, hdeg + 1, d) == 0:
        return []
    rows = reference_differential_rows(model, hdeg + 1, d)
    return [r for r in rows if any(r.values())]


def reference_adjoin_stage(model, n):
    """_adjoin_stage as it was, on the slice code above and a second
    FreeSlices listing its basis in the same order."""
    field = model.field
    nvars = model.ring.nvars
    h = n - 1
    cycle_slices = {}
    new_vars = []
    h_slices = gr.FreeSlices(model.ring, [model.dgmon_intdeg(w) for w in model.dg_monomials(h)])
    for d in range(0, model.intdeg_bound + 1):
        basis, _ = reference_slice_basis(model, h, d)
        if not basis:
            cycle_slices[d] = []
            continue
        cycles = linalg.rref(reference_cycle_slice(model, h, d), field)[0]
        cycle_slices[d] = cycles
        if not cycles:
            continue
        linear_positions = [
            pos
            for pos, (m, w) in enumerate(basis)
            if not any(m) and model.dgmon_length(w) == 1
        ]
        for z in cycles:
            for pos in linear_positions:
                if z.get(pos, 0):
                    raise dgmodel.ModelError(
                        f"cycle with unit linear term at stage {n}, degree {d}"
                    )
        denom = list(reference_boundary_rows(model, h, d))
        prev = cycle_slices.get(d - 1, [])
        for zvec in prev:
            for var in range(nvars):
                denom.append(h_slices.multiply_coords_by_var(zvec, d - 1, var))
        chosen = linalg.independent_subset(denom, cycles, field)
        for c in chosen:
            new_vars.append((d, reference_element_from_coords(model, cycles[c], h, d)))
    for intdeg, cycle in new_vars:
        model.add_variable(n, intdeg, cycle)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_model_matches_the_r_x_slice_reference(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    model = build_minimal_model(I, 3, 6)
    with mock.patch.object(dgmodel, "_adjoin_stage", reference_adjoin_stage):
        reference = build_minimal_model(I, 3, 6)
    assert model.dump() == reference.dump()
    for h in range(1, model.hdeg_bound + 2):
        for d in range(model.intdeg_bound + 1):
            assert (model.differential_matrix(h).span_slice_rows(d)
                    == reference_differential_rows(model, h, d))


# -- the rank-table acyclicity check against the body it replaced -------------


def reference_model_acyclicity(model):
    """verify_model_acyclicity as it was, with each d ranked once as the map
    out of a slice and again as the boundaries into the slice below."""
    field = model.field

    def homology_dim(hdeg, d):
        dim_here = reference_slice_dim(model, hdeg, d)
        if dim_here == 0:
            return 0
        if reference_slice_dim(model, hdeg - 1, d) == 0:
            cycle_dim = dim_here
        else:
            cycle_dim = dim_here - linalg.rank(reference_differential_rows(model, hdeg, d), field)
        return cycle_dim - linalg.rank(reference_boundary_rows(model, hdeg, d), field)

    failures = []
    target_hf = gr.quotient_hilbert_by_monomials(model.ideal, model.intdeg_bound)
    for d in range(model.intdeg_bound + 1):
        h0 = model.ring.slice_dim(d) - linalg.rank(reference_boundary_rows(model, 0, d), field)
        if h0 != target_hf[d]:
            failures.append(f"H_0 mismatch at degree {d}: {h0} vs {target_hf[d]}")
    for i in range(1, model.hdeg_bound):
        for d in range(model.intdeg_bound + 1):
            hd = homology_dim(i, d)
            if hd != 0:
                failures.append(f"H_{i} nonzero at degree {d}: dim {hd}")
    return failures


def without_variable(model, index):
    """A copy of the model without one variable: the terms through it are
    dropped from every differential and later indices shift down."""
    copy = dgmodel.DgAlgebraModel(model.ring, model.ideal, model.hdeg_bound,
                                  model.intdeg_bound)

    def shift(w):
        return tuple((v - (v > index), e) for v, e in w)

    for v in model.variables:
        if v.index != index:
            terms = {(m, shift(w)): c for (m, w), c in model.differentials[v.index].terms.items()
                     if all(u != index for u, _ in w)}
            copy.add_variable(v.hdeg, v.intdeg, dgmodel.DgElement(copy, terms))
    return copy


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_model_acyclicity_matches_reference(ring_gens):
    ring, gens = ring_gens
    model = build_minimal_model(gr.Ideal(ring, gens), 3, 6)
    assert verify_model_acyclicity(model) == reference_model_acyclicity(model) == []
    # one stage-2 variable removed leaves a class of H_1 alive
    stage2 = model.variables_of_hdeg(2)
    if stage2:
        broken = without_variable(model, stage2[-1].index)
        ref = reference_model_acyclicity(broken)
        assert ref and verify_model_acyclicity(broken) == ref


# -- the reduced Kaehler complex against the full Omega_{A|R} it was cut from --


def reference_ring_part(elem):
    """The variable-free component of a DgElement, as a ring polynomial."""
    return Polynomial(elem.model.ring, {m: c for (m, w), c in elem.terms.items() if not w})


def reference_universal_derivative(model, elem):
    """d(elem) in Omega_{A/R}, as {variable index: A-coefficient}.

    Terms a*dt are stored with dt on the right; extracting the factor at
    position j costs the Koszul sign (-1)^(|t| * |suffix|).
    """
    F = model.field
    out = {}
    for (m, w), c in elem.terms.items():
        word = model._expand_word(w)
        suffix_degs = [0] * (len(word) + 1)
        for pos in range(len(word) - 1, -1, -1):
            suffix_degs[pos] = suffix_degs[pos + 1] + model.variables[word[pos]].hdeg
        for pos, v in enumerate(word):
            vdeg = model.variables[v].hdeg
            sign = -1 if (vdeg % 2) and (suffix_degs[pos + 1] % 2) else 1
            rest = model._collapse_word(word[:pos] + word[pos + 1 :])
            coeff = F.mul(c, F.of_int(sign))
            entry = out.get(v, model.zero())
            out[v] = entry + dgmodel.DgElement(model, {(m, rest): coeff})
    return {v: e for v, e in out.items() if not e.is_zero()}


def reference_omega_differential(model, deltas, omega_elem):
    """Differential of sum(a_t dt): del(a) dt + (-1)^|a| a * d(del t), with
    ``deltas[t]`` the universal derivative of d(t)."""
    out = {}

    def add(v, elem):
        s = out.get(v, model.zero()) + elem
        if s.is_zero():
            out.pop(v, None)
        else:
            out[v] = s

    for t, a in omega_elem.items():
        da = model.differential(a)
        if not da.is_zero():
            add(t, da)
        adeg = homological_degree(a)
        sign = -1 if (adeg >= 0 and adeg % 2) else 1
        for t2, b in deltas[t].items():
            term = a * b
            if sign < 0:
                term = -term
            if not term.is_zero():
                add(t2, term)
    return out


def reference_reduced_matrix(model, deltas, i):
    """The reduced Kaehler matrix as it was first computed: the variable-free
    part of each coefficient of d(del t) in Omega_{A/R}, reduced mod I."""
    gb = model.ideal.groebner()
    rows = model.variables_of_hdeg(i - 1)
    row_pos = {v.index: p for p, v in enumerate(rows)}
    columns = []
    for c in model.variables_of_hdeg(i):
        col = [model.ring.zero()] * len(rows)
        for tvar, coeff in deltas[c.index].items():
            if tvar in row_pos:
                col[row_pos[tvar]] = gb.normal_form(reference_ring_part(coeff))
        columns.append(tuple(col))
    return gr.ModulePresentation(model.ring, model.ideal, [v.intdeg for v in rows], columns)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_reduced_matrix_is_the_linear_part_of_omega(ring_gens):
    ring, gens = ring_gens
    model = build_minimal_model(gr.Ideal(ring, gens), 4, 8)
    deltas = {v.index: reference_universal_derivative(model, model.differentials[v.index])
              for v in model.variables}
    for i in range(2, model.hdeg_bound + 1):
        ref = reference_reduced_matrix(model, deltas, i)
        got = model.reduced_kahler_matrix(i)
        assert got.row_degrees == ref.row_degrees and got.columns == ref.columns
    # the full Omega differential squares to zero on each basis element dt,
    # whose image deltas[t] is the universal derivative of d(t)
    for v in model.variables:
        assert reference_omega_differential(model, deltas, deltas[v.index]) == {}
    assert verify_kahler_complex(model) == []


def test_reduced_d_squared_check_can_fail():
    R3 = PolyRing(QQ, ["x", "y", "z"])
    model = build_minimal_model(ideal(R3, "x*y", "x*z", "y*z"), 3, 8)
    t2_1 = model.variables_of_hdeg(2)[0]
    t3_1 = model.variables_of_hdeg(3)[0]
    z = model.embed(R3.from_string("z"))
    model.differentials[t3_1.index] += z * model.var_element(t2_1.index)
    assert verify_kahler_complex(model) == ["reduced d^2 != 0 at degree 3"]
