"""Slice rows on packed monomial keys against the tuple-keyed rows they
replaced.  The reference bodies below are the former tuple-keyed ones, read
off Ideal.quotient_slice, kept here only to check the packed path."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import homogeneous_ideals

from cikit import groebner as gr
from cikit.conormal import kahler_s_over_k
from cikit.fields import GF, QQ
from cikit.poly import PolyRing, monomial_mul


def ref_slice(slices, d):
    """Reference: the former FreeSlices._slice, (basis, blocks) with
    blocks[i] = (offset of row i, tuple-keyed table of S_{d - row_degrees[i]})."""
    basis, blocks = [], []
    for i, rd in enumerate(slices.row_degrees):
        mons, table = slices.modulus.quotient_slice(d - rd)
        blocks.append((len(basis), table))
        basis.extend((i, m) for m in mons)
    return basis, blocks


def ref_support(vec):
    return [(i, poly.terms) for i, poly in enumerate(vec) if poly.terms]


def ref_drop_zeros(row):
    return {k: v for k, v in row.items() if v} if 0 in row.values() else row


def ref_add_multiple(row, blocks, support, m, c, p):
    """Reference: the former _add_multiple, every product a fresh tuple."""
    for i, terms in support:
        offset, table = blocks[i]
        for pm, pc in terms.items():
            pc *= c
            for pos, a in table[monomial_mul(pm, m)]:
                k = offset + pos
                row[k] = (row.get(k, 0) + pc * a) % p if p else row.get(k, 0) + pc * a


def ref_multiples(slices, vec, monomials, d):
    """Reference: the former FreeSlices.multiples."""
    blocks = ref_slice(slices, d)[1]
    p = slices.ring.field.p
    support = ref_support(vec)
    rows = []
    for m in monomials:
        row = {}
        ref_add_multiple(row, blocks, support, m, 1, p)
        rows.append(ref_drop_zeros(row))
    return rows


def ref_multiply_coords_by_var(slices, coords, d, var):
    """Reference: the former FreeSlices.multiply_coords_by_var."""
    src = ref_slice(slices, d)[0]
    blocks = ref_slice(slices, d + 1)[1]
    p = slices.ring.field.p
    out = {}
    for pos, c in coords.items():
        i, m = src[pos]
        mm = list(m)
        mm[var] += 1
        offset, table = blocks[i]
        for q, a in table[tuple(mm)]:
            k = offset + q
            out[k] = (out.get(k, 0) + c * a) % p if p else out.get(k, 0) + c * a
    return ref_drop_zeros(out)


def ref_compose_is_zero(upper, lower):
    """Reference: the former compose_is_zero."""
    p = upper.ring.field.p
    target = upper.slices()
    supports = [ref_support(ucol) for ucol in upper.columns]
    for col, cd in zip(lower.columns, lower.col_degrees):
        blocks = ref_slice(target, cd)[1]
        image = {}
        for entry, support in zip(col, supports):
            for m, c in entry.terms.items():
                ref_add_multiple(image, blocks, support, m, c, p)
        if any(image.values()):
            return False
    return True


def ref_span_slice_rows(pres, d, proper_only=False):
    """Reference: the former ModulePresentation.span_slice_rows."""
    rows = []
    for col, cd in zip(pres.columns, pres.col_degrees):
        if cd > d or (proper_only and cd == d):
            continue
        monomials, _ = pres.modulus.quotient_slice(d - cd)
        rows.extend(ref_multiples(pres.slices(), col, monomials, d))
    return rows


def _presentations(I, bound):
    """Modules over R (I, its syzygies Z_1) and over S = R/I (k, I/I^2,
    Omega_{S/K})."""
    ring = I.ring
    gb = I.groebner()
    z1 = I.generator_syzygies(bound)
    conormal = gr.ModulePresentation(
        ring, I, z1.row_degrees, [tuple(gb.normal_form(p) for p in c) for c in z1.columns])
    return [gr.ideal_as_module(I), z1, gr.residue_field_presentation(ring, I), conormal,
            kahler_s_over_k(I)]


def _perturbed(pres, data):
    """pres with one nonzero entry of one column plus a monomial."""
    k = data.draw(st.integers(0, pres.ncols - 1))
    col = list(pres.columns[k])
    j = data.draw(st.sampled_from([j for j, p in enumerate(col) if not p.is_zero()]))
    ring = pres.ring
    col[j] = col[j] + ring.monomial(
        data.draw(st.sampled_from(ring.monomials_of_degree(col[j].homogeneous_degree()))))
    return gr.ModulePresentation(ring, pres.modulus, pres.row_degrees,
                                 pres.columns[:k] + [tuple(col)] + pres.columns[k + 1:])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(), st.data())
def test_packed_rows_match_the_tuple_keyed_rows(ring_gens, data):
    # span rows (all and proper), column coordinates, bases and products
    # with each variable, over R and over S, over Q and GF(32003); and the
    # d^2 = 0 verdict on a presentation and its syzygies, intact and with
    # one syzygy entry perturbed
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _presentations(I, bound):
        slices = pres.slices()
        for d in range(bound + 1):
            assert slices.basis(d) == ref_slice(slices, d)[0]
            assert slices.dim(d) == len(slices.basis(d))
            for proper in (False, True):
                assert pres.span_slice_rows(d, proper) == ref_span_slice_rows(pres, d, proper)
            for row in pres.span_slice_rows(d):
                for var in range(ring.nvars):
                    assert (slices.multiply_coords_by_var(row, d, var)
                            == ref_multiply_coords_by_var(slices, row, d, var))
        for col, cd in zip(pres.columns, pres.col_degrees):
            assert slices.coords(col, cd) == ref_multiples(slices, col, [(0,) * ring.nvars], cd)[0]
        syz = gr.syzygies(pres, bound)
        assert gr.compose_is_zero(pres, syz) and ref_compose_is_zero(pres, syz)
        if syz.ncols:
            broken = _perturbed(syz, data)
            assert gr.compose_is_zero(pres, broken) == ref_compose_is_zero(pres, broken)


def test_compose_is_zero_matches_the_reference_on_a_broken_pair():
    # over S = R/(x^2) the variables present the maximal ideal: x.x lies in
    # I, x.y does not
    R = PolyRing(GF(32003), ["x", "y"])
    x, y = R.gens()
    upper = gr.residue_field_presentation(R, gr.Ideal(R, [x * x]))
    for p, want in ((x, True), (y, False)):
        lower = gr.ModulePresentation(R, upper.modulus, [1, 1], [(p, R.zero())])
        assert gr.compose_is_zero(upper, lower) == ref_compose_is_zero(upper, lower) == want


def test_packed_quotient_refuses_degrees_beyond_the_packing_width(monkeypatch):
    R = PolyRing(QQ, ["x", "y"])
    I = gr.Ideal(R, [R.from_string("x*y")])
    width = 1 << gr._PACK_BITS

    def listed(self, d):
        raise AssertionError(f"monomials of degree {d} listed")

    monkeypatch.setattr(PolyRing, "monomials_of_degree", listed)
    for e in (width, width + 1):
        with pytest.raises(ValueError):
            I.packed_quotient(e)
