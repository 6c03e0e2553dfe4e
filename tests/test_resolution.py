from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import homogeneous_ideals

from cikit import groebner as gr
from cikit.fields import GF, QQ
from cikit.poly import PolyRing
from cikit.resolution import (
    FreeResolution,
    ext_betti,
    ext_degree_bound,
    minimal_free_resolution,
    projdim_probe,
    verify_composites,
    verify_resolution,
)


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


def test_koszul_resolution_of_k(R):
    pres = gr.residue_field_presentation(R, None)
    res = minimal_free_resolution(pres, 6, 10)
    assert res.betti_totals() == [1, 2, 1]
    assert res.status == ("terminated", 2)
    assert verify_resolution(res, pres) == []
    assert verify_composites(res) == []


def test_periodic_resolution_over_hypersurface():
    Rx = PolyRing(QQ, ["x"])
    I = ideal(Rx, "x^2")
    pres = gr.residue_field_presentation(Rx, I)
    res = minimal_free_resolution(pres, 6, 10)
    assert res.betti_totals() == [1] * 7
    assert res.status == ("truncated", 6)
    assert verify_resolution(res, pres) == []
    # first three steps match the syzygy oracle: each map is (x)
    for m in res.maps[:3]:
        assert [str(p) for c in m.columns for p in c] == ["x"]


def test_free_module_resolves_itself(R):
    free = gr.ModulePresentation(R, None, [0, 1], [])
    res = minimal_free_resolution(free, 4, 8)
    assert res.status == ("terminated", 0)
    assert res.betti_totals() == [2]


def test_zero_module_probe(R):
    zero = gr.ModulePresentation(R, None, [0], [(R.one(),)])
    cert = projdim_probe(zero, 6)
    assert cert.is_finite() and cert.value == 0
    assert cert.resolution.betti_totals() == [0]


def test_binomial_betti_numbers():
    for n in range(1, 5):
        Rn = PolyRing(QQ, [f"x{i}" for i in range(n)])
        res = minimal_free_resolution(gr.residue_field_presentation(Rn, None), n + 1, n + 2)
        assert res.betti_totals() == [comb(n, i) for i in range(n + 1)]
        assert res.status == ("terminated", n if n > 0 else 0)


def test_ext_betti_examples(R):
    Rx = PolyRing(QQ, ["x"])
    assert ext_betti(Rx, ideal(Rx, "x^2"), 5) == [1, 1, 1, 1, 1, 1]
    assert ext_betti(R, ideal(R), 4) == [1, 2, 1, 0, 0]
    m2 = ideal(R, "x^2", "x*y", "y^2")
    assert ext_betti(R, m2, 4) == [1, 2, 4, 8, 16]


def test_ext_betti_linear_modulus_uses_rate_one():
    # S = Q[x,y,z]/(x) is a polynomial ring: m = 1, yet the rate is 1, not
    # m - 1 = 0, and Ext^2 lives in internal degree 2
    R3 = PolyRing(QQ, ["x", "y", "z"])
    assert ext_degree_bound(ideal(R3, "x"), 5) == 5
    assert ext_betti(R3, ideal(R3, "x"), 5) == [1, 2, 1, 0, 0, 0]


def test_ext_of_k_past_the_corpus_frontier():
    # four quadrics in four variables over GF(32003): HF_S is 1, 4, 6, 4, 2,
    # 2, ... against HF_R 1, 4, 10, 20, 35, ..., and Backelin's bound is 10
    # at n = 4, so slices in quotient coordinates stay small; in ring
    # coordinates this took seconds
    R4 = PolyRing(GF(32003), ["x", "y", "z", "w"])
    I = ideal(R4, "x^2 + y*z", "y^2 + z*w", "z^2 + x*w", "x*y + z*w")
    assert ext_betti(R4, I, 4) == [1, 4, 10, 21, 41]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_backelin_bound_leaves_nothing_above_it(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    n = 3
    bound = ext_degree_bound(I, n)
    res = minimal_free_resolution(gr.residue_field_presentation(ring, I), n, bound + 2)
    rate = (bound - 1) // (n - 1)
    for i, m in enumerate(res.maps, start=1):
        assert all(d <= 1 + rate * (i - 1) for d in m.col_degrees), (i, m.col_degrees)
    totals = res.betti_totals() + [0] * (n + 1 - len(res.betti_totals()))
    assert ext_betti(ring, I, n) == totals[: n + 1]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=4))
def test_taylor_bound_leaves_nothing_above_it(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    cap, length = 9, ring.nvars + 1
    res = minimal_free_resolution(gr.ideal_as_module(I), length, cap)
    # reference: every step, and the final scan, run to the cap
    maps = res.maps[:1]
    status = ("terminated", len(maps))
    while maps:
        if len(maps) == length:
            if gr.first_syzygy_degree(maps[-1], cap) is not None:
                status = ("truncated", length)
            break
        nxt = gr.syzygies(maps[-1], cap)
        if nxt.ncols == 0:
            break
        maps.append(nxt)
        status = ("terminated", len(maps))
    assert res.status == status
    assert [m.columns for m in res.maps] == [m.columns for m in maps]
    assert res.degree_bound == cap
    taylor = I.taylor_degree_bounds()
    assert res.length < len(taylor)
    for i, m in enumerate(res.maps, start=1):
        assert all(d <= taylor[i] for d in m.col_degrees), (i, m.col_degrees, taylor)


@pytest.mark.parametrize(
    "vars_, gens, taylor, betti",
    [
        (["x", "y"], ["x^2", "y^3"], (0, 3, 5), {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}),
        (["x", "y", "z"], ["x*y", "x*z", "y*z"], (0, 2, 3, 3),
         {(0, 0): 1, (1, 2): 3, (2, 3): 2}),
        (["x", "y"], ["x^2*y + y^3"], (0, 3), {(0, 0): 1, (1, 3): 1}),
    ],
)
def test_taylor_degree_bounds_examples(vars_, gens, taylor, betti):
    ring = PolyRing(QQ, vars_)
    I = ideal(ring, *gens)
    assert I.taylor_degree_bounds() == taylor
    res = minimal_free_resolution(gr.ideal_as_module(I), 6, 12)
    assert res.betti_bigraded() == betti
    assert res.status == ("terminated", max(i for i, _ in betti))
    assert res.degree_bound == 12
    assert verify_resolution(res, gr.ideal_as_module(I)) == []


def test_only_theorem_bounded_resolutions_stop_below_the_cap(R, monkeypatch):
    from cikit import resolution

    bounds = []
    for name in ("syzygies", "first_syzygy_degree"):
        real = getattr(resolution, name)
        monkeypatch.setattr(resolution, name,
                            lambda pres, bound, real=real: bounds.append(bound) or real(pres, bound))
    I = ideal(R, "x^2", "y^3")
    minimal_free_resolution(gr.ideal_as_module(I), 6, 12)
    assert bounds == [5]  # F_2 to T_2; F_3 = 0 needs no scan
    bounds.clear()
    minimal_free_resolution(gr.residue_field_presentation(R, I), 6, 12)
    # k over S: F_i to Backelin's 1 + 2(i - 1), the cubic's rate bound
    assert bounds == [ext_degree_bound(I, i) for i in range(2, 7)] == [3, 5, 7, 9, 11]
    for pres in (
        gr.ModulePresentation(R, I, [0], [(R.gen(0),)]),  # one row over S, S/(x), not k
        gr.ModulePresentation(R, None, [0, 0], [(R.gen(0), R.gen(1))]),  # two rows, over R
    ):
        bounds.clear()
        minimal_free_resolution(pres, 6, 12)
        assert bounds and set(bounds) == {12}


def uniform_betti_totals(pres, n, bound):
    """Reference: b_0..b_n of coker(pres), every syzygy step run to
    ``bound``, by iterating :func:`gr.syzygies` on the minimal
    presentation, with no per-step cap."""
    pruned = gr.minimalize_presentation(pres)
    _, selected = gr.minimal_generators(pruned)
    maps = [gr.ModulePresentation(pres.ring, pres.modulus, pruned.row_degrees,
                                  [pruned.columns[j] for j in selected])]
    while len(maps) < n and maps[-1].ncols:
        maps.append(gr.syzygies(maps[-1], bound))
    totals = [pruned.nrows] + [m.ncols for m in maps]
    return (totals + [0] * n)[: n + 1]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3), st.integers(1, 4))
def test_ext_betti_per_step_caps_match_the_uniform_bound(ring_gens, n):
    # step i of k's resolution capped at Backelin's bound at i gives the
    # totals of the resolution with every step run to the bound at n
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    k = gr.residue_field_presentation(ring, I)
    assert ext_betti(ring, I, n) == uniform_betti_totals(k, n, ext_degree_bound(I, n))


def test_only_status_readers_pay_for_the_termination_scan(R, monkeypatch):
    # the scan at the length bound runs on the first read of status: the
    # infinite branch of projdim_probe and ext_betti, which reads Betti
    # totals only, make no scan
    from cikit import resolution

    calls = []
    real = resolution.first_syzygy_degree
    monkeypatch.setattr(resolution, "first_syzygy_degree",
                        lambda pres, bound: calls.append(bound) or real(pres, bound))
    I = ideal(R, "x^2", "x*y", "y^2")
    cert = projdim_probe(gr.residue_field_presentation(R, I), 8)
    assert cert.is_infinite() and calls == []
    assert ext_betti(R, I, 4) == [1, 2, 4, 8, 16] and calls == []
    # k over S: the scan for F_2 stops at Backelin's bound, below the cap 8
    assert cert.resolution.status == ("truncated", 1) and calls == [ext_degree_bound(I, 2)] == [2]
    assert cert.resolution.is_terminated() is False and calls == [2]


def test_conormal_probes(R):
    from cikit.conormal import conormal_route_a

    ci = conormal_route_a(ideal(R, "x^2", "y^2"), 10)
    cert = projdim_probe(ci, 12)
    assert cert.is_finite() and cert.value == 0

    # dim S = 0: a nonzero F_1 certifies infinite projective dimension
    m2 = conormal_route_a(ideal(R, "x^2", "x*y", "y^2"), 12)
    cert2 = projdim_probe(m2, 12)
    assert cert2.is_infinite()
    assert cert2.value == 1
    assert len(cert2.resolution.betti_totals()) == 2
    assert all(b > 0 for b in cert2.resolution.betti_totals())
    assert verify_composites(cert2.resolution) == []


def test_bigraded_table(R):
    res = minimal_free_resolution(gr.residue_field_presentation(R, None), 4, 8)
    table = res.betti_bigraded()
    assert table == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_euler_characteristic_slicewise(R):
    # alternating sums of slice dims reproduce the module Hilbert function
    I = ideal(R, "x^2", "x*y")
    pres = gr.ideal_as_module(I)  # resolves S = R/I over R
    res = minimal_free_resolution(pres, 6, 10)
    assert res.status[0] == "terminated"
    hf = pres.hilbert_function(10)
    from cikit.groebner import FreeSlices

    for d in range(11):
        total = 0
        sign = 1
        for i in range(res.length + 1):
            total += sign * FreeSlices(R, res.free_module(i)).dim(d)
            sign = -sign
        assert total == hf[d]


# -- the rank-table check against the body it replaced ------------------------


def reference_verify_resolution(res, module_pres=None):
    """verify_resolution as it was: each map ranked as the upper and again as
    the lower map of a pair, free dimensions from column-less presentations
    and the cokernel of maps[0] built anew."""
    failures = []
    bound = res.degree_bound
    for i, m in enumerate(res.maps, start=1):
        for col in m.columns:
            for p in col:
                if not p.is_zero() and p.homogeneous_degree() == 0:
                    failures.append(f"non-minimal entry in step {i}")
    for i in range(len(res.maps) - 1):
        upper, lower = res.maps[i], res.maps[i + 1]
        dom = gr.ModulePresentation(res.ring, res.modulus, upper.col_degrees, [])
        for d in range(bound + 1):
            dom_dim = dom.cokernel_slice_dim(d)
            if dom_dim == 0:
                continue
            ker_dim = dom_dim - upper.image_slice_dim(d)
            im_dim = lower.image_slice_dim(d)
            if ker_dim != im_dim:
                failures.append(
                    f"exactness fails at step {i + 1}, degree {d}: ker {ker_dim} vs im {im_dim}"
                )
    if res.is_terminated() and res.maps:
        last = res.maps[-1]
        dom = gr.ModulePresentation(res.ring, res.modulus, last.col_degrees, [])
        for d in range(bound + 1):
            dom_dim = dom.cokernel_slice_dim(d)
            if dom_dim and dom_dim != last.image_slice_dim(d):
                failures.append(f"terminated resolution not injective at degree {d}")
    if module_pres is not None:
        target = module_pres.hilbert_function(bound)
        if res.maps:
            got = [
                gr.ModulePresentation(
                    res.ring, res.modulus, res.row_degrees, res.maps[0].columns
                ).cokernel_slice_dim(d)
                for d in range(bound + 1)
            ]
        else:
            got = gr.ModulePresentation(
                res.ring, res.modulus, res.row_degrees, []).hilbert_function(bound)
        if got != target:
            failures.append(f"module Hilbert mismatch: {got} vs {target}")
    return failures


def broken_resolutions(res, pres, other):
    """(resolution, module presentation) pairs that each break one thing:
    the last column dropped from maps[1], the last map dropped with the
    status still terminated, another module's presentation, a unit entry."""
    def like(maps, status=res.status):
        return FreeResolution(res.ring, res.modulus, res.row_degrees, maps, status,
                              res.degree_bound)

    def with_columns(m, columns):
        return gr.ModulePresentation(m.ring, m.modulus, m.row_degrees, columns)

    out = [(res, other)]
    if res.length >= 2:
        out.append((like(res.maps[:1] + [with_columns(res.maps[1], res.maps[1].columns[:-1])]
                         + res.maps[2:]), pres))
    if res.maps:
        out.append((like(res.maps[:-1], ("terminated", res.length - 1)), pres))
        first = res.maps[0]
        unit = tuple(res.ring.one() if r == 0 else res.ring.zero() for r in range(first.nrows))
        out.append((like([with_columns(first, first.columns + [unit])] + res.maps[1:]), pres))
    return out


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3))
def test_verify_resolution_matches_reference(ring_gens):
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    # R/I over R terminates (Taylor bounds); k over S has I*F rows and mostly truncates
    r_mod_i = gr.ideal_as_module(I)
    k_over_s = gr.residue_field_presentation(ring, I)
    for pres, other in (
        (r_mod_i, gr.ModulePresentation(ring, None, [0], [])),
        (k_over_s, gr.ModulePresentation(ring, I, [0], [])),
    ):
        res = minimal_free_resolution(pres, ring.nvars + 1, 6)
        assert verify_composites(res) == []
        assert verify_resolution(res, pres) == reference_verify_resolution(res, pres) == []
        assert verify_resolution(res) == []
        for broken, module in broken_resolutions(res, pres, other):
            ref = reference_verify_resolution(broken, module)
            assert verify_resolution(broken, module) == ref
            if pres is r_mod_i:
                assert ref, broken.maps  # every breakage of R/I shows
