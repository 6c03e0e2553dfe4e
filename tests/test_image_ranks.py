"""Image ranks are memoized by content on the ring: each distinct matrix is
ranked at most once per computation, a presentation that differs anywhere
gets its own rank, and the memo does not outlive the computation's ring.
A slice the grading settles is not ranked: over a standard graded S, an
image that fills F_{d-1} with d - 1 at least every row degree fills
F_d = S_1 F_{d-1}, so its rank is read off as dim F_d."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import CORPUS_PATH, homogeneous_ideals

from cikit import harness, linalg
from cikit.conormal import RouteDisagreement, conormal, conormal_route_a
from cikit.dgmodel import build_minimal_model
from cikit.fields import QQ
from cikit.groebner import (
    Ideal,
    ModulePresentation,
    _zero_ideal,
    ideal_as_module,
    residue_field_presentation,
)
from cikit.koszul import koszul_complex, koszul_h1
from cikit.poly import PolyRing, parse_poly_list
from cikit.resolution import minimal_free_resolution, verify_resolution


def corpus_entry(name, field_spec):
    with open(CORPUS_PATH) as fh:
        entry = next(e for e in harness.parse_corpus(fh.read()) if e.name == name)
    return harness.CorpusEntry(entry.name, field_spec, entry.ring_vars, entry.ideal_strs,
                               entry.bounds, entry.expect)


def with_column(pres, j, col):
    """A copy of the presentation with column j replaced."""
    cols = list(pres.columns)
    cols[j] = col
    return ModulePresentation(pres.ring, pres.modulus, pres.row_degrees, cols)


@pytest.mark.parametrize("name, field_spec, read_off", [
    ("aci_x2_xy", "Fp 32003", False), ("socle_square", "Q", True)])
def test_no_distinct_matrix_is_ranked_twice(name, field_spec, read_off, monkeypatch):
    keys, ranked, current = set(), [], []
    image_slice_dim, rank = ModulePresentation.image_slice_dim, linalg.rank

    def counting_image_slice_dim(self, d):
        key = (self.ring, self.modulus, tuple(self.row_degrees),
               tuple(map(tuple, self.columns)), d)
        keys.add(key)
        current.append(key)
        try:
            return image_slice_dim(self, d)
        finally:
            current.pop()

    def counting_rank(rows, field):
        if current:
            ranked.append(current[-1])
        return rank(rows, field)

    monkeypatch.setattr(ModulePresentation, "image_slice_dim", counting_image_slice_dim)
    monkeypatch.setattr(linalg, "rank", counting_rank)
    result = harness.evaluate_entry(corpus_entry(name, field_spec))
    assert all(c["status"] == "pass" for c in result["checks"]), result["checks"]
    assert keys
    assert len(ranked) == len(set(ranked))
    # a slice answered without an elimination is read off the rank memoized
    # one degree below it
    read = keys - set(ranked)
    assert all(key[:-1] + (key[-1] - 1,) in keys for key in read)
    if read_off:
        assert read


def _presentations(ideal, cap):
    """The H1 presentation, conormal route A, k over S, the maps of the
    resolution of R/I over R, the Koszul maps, and I beside a free summand
    R(-5): where I fills R_4, F_5 is not S_1 F_4, so its rank is not read
    off."""
    ring = ideal.ring
    res = minimal_free_resolution(ideal_as_module(ideal), 4, cap)
    beside = ModulePresentation(ring, None, [0, 5], [(g, ring.zero()) for g in ideal.generators])
    return ([koszul_h1(ideal, cap).presentation, conormal_route_a(ideal, cap),
             residue_field_presentation(ring, ideal), beside]
            + list(res.maps) + list(koszul_complex(ideal).maps))


def _assert_ranks_match(pres, cap):
    for d in range(cap + 1):
        direct = linalg.rank(pres.span_slice_rows(d), pres.ring.field)
        assert pres.image_slice_dim(d) == direct
        assert pres.image_slice_dim(d) == direct


_R3 = PolyRing(QQ, ["x", "y", "z"])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3, max_degree=2), st.just(5))
# m-primary, so above degree 3 the images over R and over S fill their free
# modules and ranks are read off one degree below
@example((_R3, parse_poly_list(_R3, "x^2, y^2, z^2")), 12)
def test_memoized_ranks_match_a_fresh_elimination(ring_gens, cap):
    ring, gens = ring_gens
    ideal = Ideal(ring, gens)
    presentations = _presentations(ideal, cap)
    for pres in presentations:
        _assert_ranks_match(pres, cap)
    x = ring.gen(0)
    for pres in presentations:
        if pres.columns:
            _assert_ranks_match(with_column(pres, 0, tuple(x * p for p in pres.columns[0])), cap)
    # on d_1 the change always shows: a minimal generator f leaves the span
    # of the others in degree deg f, and x*f does not reach that degree
    d1 = koszul_complex(ideal).maps[0]
    if d1.columns:
        changed = with_column(d1, 0, (x * d1.columns[0][0],))
        d = d1.col_degrees[0]
        assert changed.image_slice_dim(d) == d1.image_slice_dim(d) - 1


def test_the_memo_lives_as_long_as_its_ring(monkeypatch):
    rings = []
    build = harness.CorpusEntry.build

    def recording_build(self):
        ring, ideal = build(self)
        assert not ring._memo
        rings.append(ring)
        return ring, ideal

    monkeypatch.setattr(harness.CorpusEntry, "build", recording_build)
    entry = corpus_entry("aci_x2_xy", "Q")
    first_result = harness.evaluate_entry(entry)
    first = rings[0]
    snapshot = {k: dict(v) for k, v in first._memo.items() if k[0] == "image_ranks"}
    assert snapshot
    # the process-wide zero ideal keeps no rank and no computation's ring
    zero = _zero_ideal(first)
    assert not any(k[0] == "image_ranks" for k in zero._memo)
    assert zero.ring is not first and not zero.ring._memo

    assert harness.evaluate_entry(entry) == first_result
    second = rings[1]
    assert second is not first and second == first
    assert {k: v for k, v in first._memo.items() if k[0] == "image_ranks"} == snapshot
    assert sum(k[0] == "image_ranks" for k in second._memo) == len(snapshot)
    assert not any(k[0] == "image_ranks" for k in zero._memo)
    assert _zero_ideal(second) is zero and not zero.ring._memo


# The two checks below read only public behaviour, so they hold with and
# without the memo: an altered map or route ranks its own matrix.


def test_altered_resolution_map_still_fails_the_module_check():
    ring = PolyRing(QQ, ["x", "y"])
    ideal = Ideal(ring, parse_poly_list(ring, "x^2, x*y"))
    module = ideal_as_module(ideal)
    res = minimal_free_resolution(module, 4, 6)
    assert verify_resolution(res, module) == []
    first = res.maps[0]
    res.maps[0] = with_column(first, 0, (ring.from_string("x*y"),))
    assert any(f.startswith("module Hilbert mismatch") for f in verify_resolution(res, module))


def test_route_b_differing_in_one_relation_still_disagrees(monkeypatch):
    ring = PolyRing(QQ, ["x", "y"])
    ideal = Ideal(ring, parse_poly_list(ring, "x^2, x*y"))
    model = build_minimal_model(ideal, 2, 6)
    conormal(ideal, 6, model)
    x = ring.gen(0)
    # the first call cached route B's matrix on the model, so the alteration
    # is applied to what the cache serves
    cached = model.reduced_kahler_matrix

    def altered(i):
        pres = cached(i)
        return with_column(pres, 0, (x, ring.zero())) if i == 2 else pres

    monkeypatch.setattr(model, "reduced_kahler_matrix", altered)
    with pytest.raises(RouteDisagreement, match="Hilbert functions differ"):
        conormal(ideal, 6, model)

