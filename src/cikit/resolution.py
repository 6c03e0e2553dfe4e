"""Minimal graded free resolutions, Betti tables, projective dimension probes.

Resolutions are built from minimal generators of successive syzygy modules,
so every matrix is minimal by construction (entries in the irrelevant
maximal ideal); pruning of the input presentation happens first.  All
statements above the internal degree bound are reported as truncation, never
extrapolated.

Four resolutions stop where a theorem says they may, not at a user bound:

* ``minimal_free_resolution`` of k over S = R/I runs step i only to
  internal degree 1 + r(i-1) with r = max(1, m-1), m the top degree of the
  reduced Groebner basis of I (:func:`ext_degree_bound`).  Backelin (LNM
  1183, 1986) bounds rate(S) by m-1 when m >= 2, and a polynomial ring has
  rate 1, so the i-th free module of k is generated in degrees
  <= 1 + r(i-1).  :func:`_generator_degree_caps` derives these caps, and
  ``ext_betti``, the probes and ``cikit resolve --module k`` all resolve k
  through :func:`minimal_free_resolution` itself.
* ``projdim_probe`` runs at most dim S + 1 steps: by Auslander-Buchsbaum
  (Bruns-Herzog, Thm 1.3.3) a finite pd_S M is at most depth S <= dim S, so
  a nonzero F_{dim S + 1} certifies infinite projective dimension.
* ``minimal_free_resolution`` of R/I over R runs step i only to the Taylor
  bound T_i of in(I), and no step past F_r, r the number of leads of the
  reduced Groebner basis: graded Betti numbers only grow under Groebner
  degeneration (Peeva 2004), and the Taylor resolution of in(I) has length r
  with F_i in the lcm degrees of i-subsets of the leads
  (:meth:`Ideal.taylor_degree_bounds`).
* Koszul H1's relations (:func:`cikit.koszul.koszul_h1`), a syzygy step
  over R, run to max(T_3, Schreyer's bound, d_i + d_j over pairs of
  generator degrees), with T_3 the Taylor bound of F_3 of R/I.
"""

from __future__ import annotations

from functools import partial

from .groebner import (
    Ideal,
    ModulePresentation,
    _reject_unit,
    compose_is_zero,
    first_syzygy_degree,
    krull_dimension,
    minimal_generators,
    minimalize_presentation,
    residue_field_presentation,
    syzygies,
)


class FreeResolution:
    """maps[i] is the matrix of F_{i+1} -> F_i; row degrees of maps[0] are
    the generator degrees of the resolved module.

    ``status`` is ("terminated", d) or ("truncated", L).  It may be given
    as a zero-argument callable, which runs on first read of ``status``:
    :func:`minimal_free_resolution` defers its termination scan that way,
    so callers that read only maps and Betti numbers never pay for it."""

    __slots__ = ("ring", "modulus", "row_degrees", "maps", "_status", "degree_bound")

    def __init__(self, ring, modulus, row_degrees, maps, status, degree_bound):
        self.ring = ring
        self.modulus = modulus
        self.row_degrees = list(row_degrees)
        self.maps = maps
        self._status = status
        self.degree_bound = degree_bound

    @property
    def status(self):
        if callable(self._status):
            self._status = self._status()
        return self._status

    @property
    def length(self) -> int:
        return len(self.maps)

    def is_terminated(self) -> bool:
        return self.status[0] == "terminated"

    def betti_bigraded(self):
        """{(homological i, internal j): rank}."""
        table: dict = {}
        for j in self.row_degrees:
            table[(0, j)] = table.get((0, j), 0) + 1
        for i, m in enumerate(self.maps, start=1):
            for j in m.col_degrees:
                table[(i, j)] = table.get((i, j), 0) + 1
        return table

    def betti_totals(self):
        """[b_0, b_1, ...] including trailing zeros up to the build length."""
        out = [len(self.row_degrees)]
        out.extend(m.ncols for m in self.maps)
        return out

    def free_module(self, i: int):
        """Row degrees of F_i."""
        if i == 0:
            return list(self.row_degrees)
        return list(self.maps[i - 1].col_degrees)


class ProjDimCertificate:
    """Projective dimension verdict of a probe, one of two:

    * ``finite``: the resolution terminated at step ``value`` within its
      recorded internal degree bound (``resolution.degree_bound``);
    * ``infinite``: F_value != 0 with value = dim S + 1, which
      Auslander-Buchsbaum certifies (no bound involved).

    ``certified`` tells which verdicts hold for the presented module
    without a degree bound (see its docstring).
    """

    __slots__ = ("verdict", "value", "resolution")

    def __init__(self, verdict: str, value: int, resolution: FreeResolution):
        self.verdict = verdict  # "finite" | "infinite"
        self.value = value
        self.resolution = resolution

    def is_finite(self) -> bool:
        return self.verdict == "finite"

    def is_infinite(self) -> bool:
        return self.verdict == "infinite"

    @property
    def certified(self) -> bool:
        """An infinite verdict (its Betti numbers lie in degrees where any
        presentation complete to the bound is exact); a finite one over R
        (Hilbert's syzygy theorem), or at step 0, where no degree-bounded
        syzygy step ran: the pruned presentation has no relations.  Any
        other finite verdict is bounded by ``resolution.degree_bound``."""
        if self.is_infinite():
            return True
        return self.resolution.modulus.is_zero() or self.value == 0

    def __repr__(self):
        if self.is_finite():
            return f"Finite({self.value}; intdeg<={self.resolution.degree_bound})"
        return f"Infinite(F_{self.value} != 0; dim={self.value - 1})"


def _generator_degree_caps(first: ModulePresentation, length_bound: int, degree_bound: int):
    """caps[i] bounds the generator degrees of F_i in the resolution of
    coker(first), a minimal presentation, and F_i = 0 for i >= len(caps);
    no cap exceeds ``degree_bound``.  With one row, in degree a:

    * over R the cokernel is R/I(-a), and :meth:`Ideal.taylor_degree_bounds`
      of the column ideal, shifted by a, gives both;
    * over S, when the columns span S_1 in degree a + 1, the cokernel is
      k(-a), and F_i is generated at or below a + ``ext_degree_bound``
      (Backelin); the resolution need not end.

    Otherwise every step runs to ``degree_bound``."""
    if first.nrows == 1:
        shift = first.row_degrees[0]
        if not first.over_quotient():
            ideal = Ideal(first.ring, [col[0] for col in first.columns])
            return [min(degree_bound, t + shift) for t in ideal.taylor_degree_bounds()]
        if first.cokernel_slice_dim(shift + 1) == 0:
            return [min(degree_bound, shift + ext_degree_bound(first.modulus, i))
                    for i in range(length_bound + 2)]
    return [degree_bound] * (length_bound + 2)


def minimal_free_resolution(
    pres: ModulePresentation, length_bound: int, degree_bound: int
) -> FreeResolution:
    """Minimal resolution of coker(pres) up to the given bounds.

    A syzygy step runs to ``degree_bound``, except where a theorem bounds
    it lower (:func:`_generator_degree_caps`): for R/I over R (one row, zero
    modulus) step i stops at the Taylor bound T_i of in(I), and no step runs
    past F_r (see :meth:`Ideal.taylor_degree_bounds`); for k over S step i
    stops at Backelin's bound :func:`ext_degree_bound`.  Either way the
    result is the one the cap gives, and ``degree_bound`` records the cap.
    Length 0 gives F_0 alone, truncated at 0 unless the pruned presentation
    has no relations.  Over R/I with 1 in I it raises UnitIdeal."""
    _reject_unit(pres.modulus)
    pruned = minimalize_presentation(pres)
    if pruned.nrows == 0:
        return FreeResolution(pres.ring, pres.modulus, [], [], ("terminated", 0), degree_bound)
    _, selected = minimal_generators(pruned)
    if len(selected) == pruned.ncols:
        first = pruned
    else:
        first = ModulePresentation(
            pres.ring, pres.modulus, pruned.row_degrees, [pruned.columns[j] for j in selected])
    if first.ncols == 0 or length_bound == 0:
        status = ("terminated", 0) if first.ncols == 0 else ("truncated", 0)
        return FreeResolution(pres.ring, pres.modulus, pruned.row_degrees, [], status,
                              degree_bound)
    caps = _generator_degree_caps(first, length_bound, degree_bound)
    maps = [first]
    while len(maps) < length_bound and len(maps) + 1 < len(caps):
        nxt = syzygies(maps[-1], caps[len(maps) + 1])
        if nxt.ncols == 0:
            break
        maps.append(nxt)
    n = len(maps)
    status = ("terminated", n)
    if n >= length_bound and n + 1 < len(caps):
        status = partial(_status_at_length_bound, maps[-1], caps[n + 1], n, length_bound)
    return FreeResolution(pres.ring, pres.modulus, pruned.row_degrees, maps, status, degree_bound)


def _status_at_length_bound(last: ModulePresentation, cap: int, n: int, length_bound: int):
    """The status of a resolution with n >= length_bound maps, the last one
    ``last``: a single early-exit scan to ``cap`` decides termination."""
    if first_syzygy_degree(last, cap) is not None:
        return ("truncated", length_bound)
    return ("terminated", n)


def projdim_probe(pres: ModulePresentation, degree_bound: int) -> ProjDimCertificate:
    """Resolve coker(pres) for at most dim S + 1 steps, each to the degree
    bound, or, for R/I over R, to the Taylor bound below it (see
    :func:`minimal_free_resolution`).  A resolution that ran all dim S + 1
    steps is infinite; any shorter one terminated."""
    dim = krull_dimension(pres.modulus)
    res = minimal_free_resolution(pres, dim + 1, degree_bound)
    # F_{dim+1} != 0 outranks the final termination scan, which can only
    # come back empty there because syzygies lie above the degree bound, so
    # this reads no status there
    if res.length > dim:
        return ProjDimCertificate("infinite", res.length, res)
    return ProjDimCertificate("finite", res.status[1], res)


def ext_degree_bound(modulus, n: int) -> int:
    """Backelin's bound 1 + max(1, m-1)(n-1) on the generator degrees of
    F_1..F_n in the minimal resolution of k over S = R/modulus, with m the
    top degree of the reduced Groebner basis (1 for a zero modulus)."""
    m = 1
    if not modulus.is_zero():
        m = max(g.homogeneous_degree() for g in modulus.groebner())
    return 1 + max(1, m - 1) * max(n - 1, 0)


def ext_betti(ring, modulus, n: int):
    """dim_k Ext^i_S(k, k) for i <= n, read off the minimal resolution of k
    with Backelin's bound at n as the cap: step i runs to
    ``ext_degree_bound(modulus, i)``, so the dimensions are exact, not
    truncated."""
    res = minimal_free_resolution(residue_field_presentation(ring, modulus), n,
                                  ext_degree_bound(modulus, n))
    totals = res.betti_totals()
    totals = totals + [0] * (n + 1 - len(totals))
    return totals[: n + 1]


# ---------------------------------------------------------------------------
# invariant checks


def verify_composites(res: FreeResolution):
    """d^2 = 0 across every consecutive pair of resolution maps, by
    :func:`compose_is_zero`; returns failure strings."""
    return [
        f"d2 != 0 between steps {i + 1} and {i + 2}"
        for i in range(len(res.maps) - 1)
        if not compose_is_zero(res.maps[i], res.maps[i + 1])
    ]


def verify_resolution(res: FreeResolution, module_pres: ModulePresentation | None = None):
    """Exact invariant suite for a computed resolution.

    Returns a list of failure strings (empty = all good): minimality of
    every entry, then rank counts in degrees 0..degree_bound, read off two
    tables.  free[i][d] is dim_k (F_i)_d over S, summed from
    dim S_e = dim R_e - dim I_e with no elimination; images[i][d] is the
    rank of d_{i+1}: F_{i+1} -> F_i in degree d, each ranked once, with an
    all-zero row after the last map.  They give exactness at F_1..F_{n-1},
    injectivity of the last map when the resolution terminated, and the
    Hilbert function of coker(d_1) against the resolved module's when given.
    Each rank comes from the map's own matrix
    (:meth:`ModulePresentation.image_slice_dim`), never from another route
    such as ``Ideal.slice_dim``; the ranks memo shares a value only with an
    identical matrix, so a d_1 that differs from the module's presentation
    in any column is ranked afresh and the module check keeps its power.
    The counts assume d^2 = 0, which :func:`verify_composites` checks.
    """
    failures = []
    degrees = range(res.degree_bound + 1)

    for i, m in enumerate(res.maps, start=1):
        for col in m.columns:
            for p in col:
                if not p.is_zero() and p.homogeneous_degree() == 0:
                    failures.append(f"non-minimal entry in step {i}")

    n = len(res.maps)
    ideal_dim = res.modulus.slice_dim
    free = [
        [sum(res.ring.slice_dim(d - r) - ideal_dim(d - r) for r in res.free_module(i))
         for d in degrees]
        for i in range(n + 1)
    ]
    images = [
        [m.image_slice_dim(d) if free[i + 1][d] else 0 for d in degrees]
        for i, m in enumerate(res.maps)
    ] + [[0] * len(degrees)]
    # exactness at F_i for i < n; at F_n, where im = 0, it is injectivity
    for i in range(1, n + res.is_terminated()):
        for d in degrees:
            ker_dim = free[i][d] - images[i - 1][d]
            if not free[i][d] or ker_dim == images[i][d]:
                continue
            if i < n:
                failures.append(
                    f"exactness fails at step {i}, degree {d}: ker {ker_dim} vs im {images[i][d]}"
                )
            else:
                failures.append(f"terminated resolution not injective at degree {d}")

    if module_pres is not None:
        target = module_pres.hilbert_function(res.degree_bound)
        got = [free[0][d] - images[0][d] for d in degrees]
        if got != target:
            failures.append(f"module Hilbert mismatch: {got} vs {target}")
    return failures
