"""The conormal module I/I^2 by two independent routes, Kaehler
differentials of S over the base field, and the four-term Jacobi-Zariski
sequence.

Route A presents I/I^2 as Z_1 (x) S: I/I^2 = I (x) S and (x) S is right
exact, so the syzygies Z_1 of the minimal generators of I, reduced mod I,
are its relations.  Route B reads the presentation off the minimal model
A = R[X]: the coefficients of the bare variables of X_1 in d(X_2), reduced
mod I, which is the degree-2 map of the reduced Kaehler complex
S (x)_A Omega_{A|R} (:meth:`cikit.dgmodel.DgAlgebraModel.reduced_kahler_matrix`).
Both must agree in Hilbert function and minimal generator count; a
disagreement is a bug, not a result.

The Jacobi-Zariski check reads the dimension of ker(d: I/I^2 -> S^n(-1))
off the rank of one linear map on R_d (:func:`differential_columns`), whose
columns are read off the quotient tables of S_d and S_{d-1}
(:meth:`Ideal.quotient_slice`) through d x^a = sum_i a_i x^(a - e_i) dx_i,
with x^(a - e_i) looked up by packed key.
"""

from __future__ import annotations

import warnings

from . import linalg
from .dgmodel import DgAlgebraModel, build_minimal_model
from .groebner import (
    _PACK_BITS,
    Ideal,
    ModulePresentation,
    _pack,
    ideal_as_module,
    minimalize_presentation,
    quotient_hilbert_by_monomials,
)
from .koszul import koszul_h1


class RouteDisagreement(RuntimeError):
    pass


class ConormalModule:
    """Route A's presentation of I/I^2 and the invariants both routes share."""

    __slots__ = ("route_a", "hilbert", "mu")

    def __init__(self, route_a, hilbert, mu):
        self.route_a = route_a
        self.hilbert = hilbert
        self.mu = mu


def conormal_route_a(ideal: Ideal, degree_bound: int) -> ModulePresentation:
    """I/I^2 as Z_1 (x) S: the minimal generators of I with the generator
    syzygies Z_1 reduced mod I as relations.  Z_1 runs to Schreyer's bound
    (:meth:`Ideal.generator_syzygies`), so the presentation is complete
    unless the degree bound, a cap, is below it; computed once per ideal
    and Z_1 bound (the ideal's memo)."""
    bound = min(ideal.generator_syzygy_bound(), degree_bound)
    return ideal.memo(("conormal_route_a", bound), lambda: _conormal_route_a(ideal, bound))


def _conormal_route_a(ideal: Ideal, degree_bound: int) -> ModulePresentation:
    z1 = ideal.generator_syzygies(degree_bound)
    gb = ideal.groebner()
    rel_cols = [tuple(gb.normal_form(p) for p in col) for col in z1.columns]
    return ModulePresentation(ideal.ring, ideal, z1.row_degrees, rel_cols)


def conormal(ideal: Ideal, degree_bound: int, model: DgAlgebraModel | None = None) -> ConormalModule:
    """Both routes with the agreement certificate; raises RouteDisagreement
    on any mismatch (which would be an implementation bug).  Route B reads
    X_1 and X_2 only, and X_2 (spanning pi^3 in Ext^3) lies within
    Backelin's bound at 3, so a model built to stage 2 suffices."""
    route_a = conormal_route_a(ideal, degree_bound)
    if model is None:
        model = build_minimal_model(ideal, 2, degree_bound)
    route_b = model.reduced_kahler_matrix(2)
    hf_a = route_a.hilbert_function(degree_bound)
    hf_b = route_b.hilbert_function(degree_bound)
    mu_a = minimalize_presentation(route_a).nrows
    mu_b = minimalize_presentation(route_b).nrows
    if hf_a != hf_b:
        raise RouteDisagreement(f"conormal Hilbert functions differ: {hf_a} vs {hf_b}")
    if mu_a != mu_b:
        raise RouteDisagreement(f"conormal mu differs: {mu_a} vs {mu_b}")
    return ConormalModule(route_a, hf_a, mu_a)


# ---------------------------------------------------------------------------
# Kaehler differentials of S over the base field


def jacobian_columns(ideal: Ideal):
    """Columns (df/dx_1, ..., df/dx_n) for each generator, entries over R.

    In characteristic p a partial derivative can vanish identically; that is
    surfaced as a warning, not an error.
    """
    ring = ideal.ring
    cols = []
    for g in ideal.generators:
        col = tuple(g.partial_derivative(i) for i in range(ring.nvars))
        if g.homogeneous_degree() >= 1 and all(p.is_zero() for p in col):
            warnings.warn(
                f"all partial derivatives of {g} vanish (characteristic "
                f"{ring.field.characteristic} effect)",
                RuntimeWarning,
            )
        cols.append(col)
    return cols


def kahler_s_over_k(ideal: Ideal) -> ModulePresentation:
    """Omega_{S/K} as the cokernel over S of the Jacobian matrix
    d: generators of I -> sum (df/dx_i) dx_i."""
    ring = ideal.ring
    gb = ideal.groebner()
    cols = [
        tuple(gb.normal_form(p) for p in col) for col in jacobian_columns(ideal)
    ]
    return ModulePresentation(ring, ideal, [1] * ring.nvars, cols)


# ---------------------------------------------------------------------------
# slice helpers for the kernel of d: I/I^2 -> S (x) Omega_{R/K}


def _square(ideal: Ideal) -> Ideal:
    """I^2 from the products g_i g_j (i <= j) of the minimal generators,
    built once per ideal (the ideal's memo)."""
    gens = ideal.minimal_generators()
    return ideal.memo(("square",), lambda: Ideal(
        ideal.ring, [g * h for i, g in enumerate(gens) for h in gens[i:]]))


def differential_columns(ideal: Ideal, d: int):
    """The map v -> (v, dv/dx_1, ..., dv/dx_n) from R_d into S (+) S^n(-1),
    one column per monomial of R_d, in quotient coordinates.  Its kernel is
    {v in I_d : all partials of v lie in I}, the degree-d slice of the
    kernel of d: I/I^2 -> S^n(-1) before dividing by I^2.

    The column of x^a is read off the quotient tables of S_d and S_{d-1}
    (:meth:`Ideal.quotient_slice`) through d x^a = sum_i a_i x^(a - e_i)
    dx_i: block 0 is the table entry of x^a, and block i, at offset
    dim S_d + i dim S_{d-1}, is a_i times that of x^(a - e_i), empty when
    the characteristic divides a_i.  On packed keys (:func:`_pack`) the key
    of x^(a - e_i) is that of x^a less 2^(_PACK_BITS i)."""
    p = ideal.ring.field.p
    top_keys, top = ideal.quotient_slice(d)
    low_keys, low = ideal.quotient_slice(d - 1)
    cols = []
    for a in ideal.ring.monomials_of_degree(d):
        key = _pack(a)
        col = dict(top[key])
        for i, ai in enumerate(a):
            if p:
                ai %= p
            if not ai:
                continue
            offset = len(top_keys) + i * len(low_keys)
            for pos, c in low[key - (1 << (_PACK_BITS * i))]:
                col[offset + pos] = ai * c % p if p else ai * c
        cols.append(col)
    return cols


# ---------------------------------------------------------------------------
# Jacobi-Zariski four-term exactness


class JacobiZariskiReport:
    """Slice-dimension table of 0 -> D1(S/K,S) -> I/I^2 -> S^n(-1) ->
    Omega_{S/K} -> 0; exact iff every alternating sum vanishes."""

    __slots__ = ("degrees", "d1", "conormal", "free", "omega", "failures")

    def __init__(self, degrees, d1, conormal, free, omega, failures):
        self.degrees = degrees
        self.d1 = d1
        self.conormal = conormal
        self.free = free
        self.omega = omega
        self.failures = failures

    @property
    def exact(self) -> bool:
        return not self.failures

    def rows(self):
        return list(zip(self.degrees, self.d1, self.conormal, self.free, self.omega))


def jacobi_zariski_check(ideal: Ideal, degree_bound: int) -> JacobiZariskiReport:
    """Each of the four modules is computed by its own machinery; the
    alternating slice sums vanishing in every degree is the consistency
    statement.  D1_d = dim ker(d)_d - dim I^2_d (I^2 is in ker(d) by the
    Leibniz rule), with dim ker(d)_d = dim R_d - rank of the gradients of
    all of R_d (:func:`differential_columns`), apart from the Jacobian
    columns that present Omega_{S/K}, and dim I^2_d the rank of the
    products of the generators."""
    ring = ideal.ring
    hf_conormal = conormal_route_a(ideal, degree_bound).hilbert_function(degree_bound)
    hf_s = quotient_hilbert_by_monomials(ideal, degree_bound)
    hf_free = [0] + [ring.nvars * hf_s[d - 1] for d in range(1, degree_bound + 1)]
    omega = kahler_s_over_k(ideal)
    hf_omega = omega.hilbert_function(degree_bound)

    sq = ideal_as_module(_square(ideal))
    hf_d1 = [ring.slice_dim(d) - linalg.rank(differential_columns(ideal, d), ring.field)
             - sq.image_slice_dim(d) for d in range(degree_bound + 1)]

    failures = []
    for d in range(degree_bound + 1):
        alt = hf_d1[d] - hf_conormal[d] + hf_free[d] - hf_omega[d]
        if alt != 0:
            failures.append(f"degree {d}: alternating sum {alt}")
    return JacobiZariskiReport(
        list(range(degree_bound + 1)), hf_d1, hf_conormal, hf_free, hf_omega, failures
    )


# ---------------------------------------------------------------------------
# cross-checks used by the harness


def koszul_strand_crosscheck(ideal: Ideal, degree_bound: int, model: DgAlgebraModel):
    """The module presented by the degree-3 map of the reduced Kaehler
    complex, ``model.reduced_kahler_matrix(3)`` (the coefficients of the
    bare variables of X_2 in d(X_3), reduced mod I), matches the first
    Koszul homology in mu and Hilbert function."""
    h1 = koszul_h1(ideal, degree_bound)
    strand = model.reduced_kahler_matrix(3)
    mu_h1 = h1.minimal_generator_count()
    mu_strand = minimalize_presentation(strand).nrows
    hf_h1 = h1.presentation.hilbert_function(degree_bound)
    hf_strand = strand.hilbert_function(degree_bound)
    ok = (mu_h1 == mu_strand) and (hf_h1 == hf_strand)
    return ok, {
        "mu_koszul": mu_h1,
        "mu_strand": mu_strand,
        "hf_koszul": hf_h1,
        "hf_strand": hf_strand,
    }
