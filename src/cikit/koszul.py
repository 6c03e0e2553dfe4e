"""Koszul complexes on minimal generators and the first Koszul homology.

H1 is the test module for the Koszul-side rigidity theorem: it vanishes
exactly when the generators form a regular sequence, and its S-module
presentation here is (syzygies of the generators) modulo the Koszul
boundaries f_i e_j - f_j e_i.  The free-summand probe reads
Hom(H1, S) = ker P^T for that presentation P, as syzygy slices of the
transposed presentation.
"""

from __future__ import annotations

import itertools
import math

from .groebner import (
    FreeSlices,
    Ideal,
    ModulePresentation,
    _syzygy_slice,
    compose_is_zero,
    minimal_generators,
    syzygies,
)


class KoszulComplex:
    """Exterior complex on c generators; degree-i bases are the sorted
    i-subsets of the generator indices, differential sign (-1)^(j+1) on
    removal of the j-th factor."""

    __slots__ = ("ideal", "generators", "gen_degrees", "maps")

    def __init__(self, ideal: Ideal, generators):
        self.ideal = ideal
        self.generators = list(generators)
        self.gen_degrees = [g.homogeneous_degree() for g in self.generators]
        self.maps = [self._differential(i) for i in range(1, len(self.generators) + 1)]

    def basis(self, i: int):
        return list(itertools.combinations(range(len(self.generators)), i))

    def rank(self, i: int) -> int:
        c = len(self.generators)
        if i < 0 or i > c:
            return 0
        return math.comb(c, i)

    def subset_degree(self, subset) -> int:
        return sum(self.gen_degrees[t] for t in subset)

    def _differential(self, i: int) -> ModulePresentation:
        """Matrix of Lambda^i -> Lambda^(i-1) as a module presentation."""
        ring = self.ideal.ring
        rows = self.basis(i - 1)
        row_pos = {s: p for p, s in enumerate(rows)}
        columns = []
        for subset in self.basis(i):
            col = [ring.zero()] * len(rows)
            for j, t in enumerate(subset):
                rest = subset[:j] + subset[j + 1 :]
                f = self.generators[t]
                col[row_pos[rest]] = f if j % 2 == 0 else -f
            columns.append(tuple(col))
        return ModulePresentation(
            ring, None, [self.subset_degree(s) for s in rows], columns
        )

    def verify_d_squared(self) -> bool:
        return all(
            compose_is_zero(self.maps[i], self.maps[i + 1]) for i in range(len(self.maps) - 1)
        )

    def rank_profile(self):
        return [self.rank(i) for i in range(len(self.generators) + 1)]


def koszul_complex(ideal: Ideal) -> KoszulComplex:
    """Koszul complex on a minimal generating set of the ideal."""
    return KoszulComplex(ideal, ideal.minimal_generators())


class KoszulH1:
    """First Koszul homology with its S-module presentation.

    ``cycle_reps`` are vectors a with sum(a_j f_j) = 0 representing the
    chosen minimal generators; ``presentation`` has one row per chosen
    cycle, in its degree, and columns generating all relations among their
    classes.
    ``complete`` says the relations reached :func:`_h1_relation_bound`.
    """

    __slots__ = ("complex", "cycle_reps", "presentation", "degree_bound", "complete")

    def __init__(self, complex, cycle_reps, presentation, degree_bound, complete):
        self.complex = complex
        self.cycle_reps = cycle_reps
        self.presentation = presentation
        self.degree_bound = degree_bound
        self.complete = complete

    def is_zero(self) -> bool:
        return not self.cycle_reps

    def minimal_generator_count(self) -> int:
        return len(self.cycle_reps)

    def hilbert_function(self, bound: int):
        """dim_k H1 in each degree, computed from the presentation."""
        return self.presentation.hilbert_function(bound)

    def direct_hilbert_function(self, bound: int):
        """dim Z_1 - dim B_1 per degree, as dim Lambda^1 - rank d_1 - rank d_2
        with both ranks taken from the Koszul complex's own maps, and
        dim Lambda^1_d = sum of dim R_{d-a} over the generator degrees a.
        It reads neither Z_1's syzygies nor H1's relations, so it is an
        independent route to the numbers :meth:`hilbert_function` reads off
        the presentation.  It still ranks the Koszul maps themselves; the
        ranks memo (:meth:`ModulePresentation.image_slice_dim`) shares a
        value only with an identical matrix, such as d_1 against d_1 of the
        resolution of R/I, never with H1's presentation."""
        cx = self.complex
        ring = cx.ideal.ring
        return [
            sum(ring.slice_dim(d - a) for a in cx.gen_degrees)
            - sum(m.image_slice_dim(d) for m in cx.maps[:2])
            for d in range(bound + 1)
        ]


def koszul_h1(ideal: Ideal, degree_bound: int) -> KoszulH1:
    """H1 of the ideal's Koszul complex; computed once per ideal and bound
    (the ideal's memo).

    The generators come from Z_1, which runs to Schreyer's bound
    (:meth:`Ideal.generator_syzygies`) with ``degree_bound`` as a cap, so
    they, ``is_zero()`` and the minimal generator count are complete
    unless the cap is below that bound.  H1's own relations, the syzygies
    over R of [reps | boundaries], run to :func:`_h1_relation_bound` with
    the same cap, so the presentation is complete unless the cap is below
    that bound.  ``degree_bound`` records the cap."""
    return ideal.memo(("koszul_h1", degree_bound), lambda: _koszul_h1(ideal, degree_bound))


def _h1_relation_bound(ideal: Ideal) -> int:
    """b = max(T_3, B, d_i + d_j for i < j) bounds the degrees of a
    generating set of the syzygies over R of [reps | boundaries], and so of
    H1's relations, their first block.  T_3 comes from
    :meth:`Ideal.taylor_degree_bounds` (left out when in(I) has fewer than
    3 leads), B is :meth:`Ideal.generator_syzygy_bound`, and the d_i are
    the degrees of the minimal generators.

    The bound binds only below the cap, and b >= B, so Z_1 is complete
    there.  Then [reps | boundaries] generates Z_1: the reps were kept
    outside boundaries + m*Z_1, so the two span Z_1 modulo m*Z_1, and
    graded Nakayama lifts that to Z_1.  A homogeneous generating set G of
    a graded module contains a minimal one, G_0.  Every g in G outside G_0
    is a combination of G_0, which gives one syzygy of G in the degree of
    g; subtracting multiples of these clears the coordinates outside G_0
    of any syzygy, so they and Syz(G_0) generate Syz(G).  G_0 minimally
    generates Z_1, the image of F_2 in the minimal resolution of R/I, so
    Syz(G_0) is generated in the degrees of F_3, at most T_3, and F_3 = 0
    when in(I) has fewer than 3 leads.  A rep has degree at most B, and
    the boundary f_i e_j - f_j e_i has degree d_i + d_j."""
    degrees = [g.homogeneous_degree() for g in ideal.minimal_generators()]
    return max([ideal.generator_syzygy_bound(), *ideal.taylor_degree_bounds()[3:4]]
               + [a + b for i, a in enumerate(degrees) for b in degrees[i + 1:]])


def _koszul_h1(ideal: Ideal, degree_bound: int) -> KoszulH1:
    cx = koszul_complex(ideal)
    ring = ideal.ring
    c = len(cx.generators)
    if c == 0:
        pres = ModulePresentation(ring, ideal, [], [])
        return KoszulH1(cx, [], pres, degree_bound, True)

    # the cycles Z_1 live in the free module on the generator degrees
    cycles = ideal.generator_syzygies(degree_bound)
    cycle_cols = cycles.columns
    cycle_degs = cycles.col_degrees

    # the boundaries B_1 are the columns of d_2: Lambda^2 -> Lambda^1
    boundary_cols = cx.maps[1].columns if c > 1 else []

    # minimal generators of Z/B over S: graded Nakayama on [boundaries | Z_1]
    # keeps the cycles outside boundaries + m * Z, since within a degree the
    # boundaries, listed first, join the span ahead of the cycles
    nb = len(boundary_cols)
    _, selected = minimal_generators(
        ModulePresentation(ring, None, cx.gen_degrees, boundary_cols + cycle_cols))
    reps = [cycle_cols[j - nb] for j in selected if j >= nb]
    rep_degs = [cycle_degs[j - nb] for j in selected if j >= nb]

    # relations among the chosen classes: syzygies over R of [reps | boundaries],
    # complete at the derived bound, first block of coordinates, reduced mod I
    combined = ModulePresentation(ring, None, cx.gen_degrees, list(reps) + boundary_cols)
    bound = _h1_relation_bound(ideal)
    rel = syzygies(combined, min(bound, degree_bound))
    # (heads that are zero mod I are dropped as zero columns)
    gb = ideal.groebner()
    heads = [tuple(gb.normal_form(p) for p in col[:len(reps)]) for col in rel.columns]
    presentation = ModulePresentation(ring, ideal, rep_degs, heads)
    return KoszulH1(cx, reps, presentation, degree_bound, bound <= degree_bound)


def h1_free_summand_probe(h1: KoszulH1) -> str:
    """Detect a free S-summand of H1 within the computed degree range.

    Searches for a graded map H1 -> S sending some minimal generator g_i to
    1; such a map splits off a free summand.  With P the presentation,
    Hom(H1, S) = ker P^T: the transposed presentation has one column per
    generator, in degree -a_j, and one row per relation, in degree -c, so
    Hom(H1, S)_{-a_i} is its degree -a_i syzygy slice, and the map exists
    iff some basis vector there has a nonzero coordinate at (g_i, 1).
    Returns "FreeSummand" or "NoneFoundWithinBound".
    """
    if h1.is_zero():
        return "NoneFoundWithinBound"
    pres = h1.presentation
    ring = pres.ring
    degrees = pres.row_degrees
    gens = range(len(degrees))
    # a generator in no relation is a summand by itself (and P^T would drop
    # its zero column)
    if any(all(col[j].is_zero() for col in pres.columns) for j in gens):
        return "FreeSummand"
    transposed = ModulePresentation(
        ring, pres.modulus, [-c for c in pres.col_degrees],
        [tuple(col[j] for col in pres.columns) for j in gens])
    domain = FreeSlices(ring, transposed.col_degrees, pres.modulus)
    for a in sorted(set(degrees)):
        homs = _syzygy_slice(transposed, -a)
        basis = domain.basis(-a)
        units = [basis.index((i, 0)) for i in gens if degrees[i] == a]
        if any(p in v for v in homs for p in units):
            return "FreeSummand"
    return "NoneFoundWithinBound"
