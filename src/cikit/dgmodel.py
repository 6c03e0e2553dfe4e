"""Graded-commutative dg algebras R[X] and degree-by-degree minimal models.

A model is built stage by stage: X_1 kills a minimal generating set of the
ideal, and each X_n (n >= 2) kills a minimal generating set of the homology
H_{n-1} of the previous stage, chosen slice-by-slice in increasing internal
degree through exact linear algebra.  Odd-degree variables square to zero,
even ones are polynomial.  The Koszul signs live in two places: the
monomial merge :meth:`DgAlgebraModel.dgmon_mul` (products) and the prefix
sign in :meth:`DgAlgebraModel._leibniz` (derivations, d among them).

Each A_h is a free R-module on the dg monomials of homological degree h, one
row each in its internal degree, and is sliced by internal degree through
:class:`cikit.groebner.FreeSlices` (:meth:`DgAlgebraModel.slices`).  The
differential's slice rows are the multiples of each d(w), so cycles, the
Nakayama selection of new variables and the acyclicity ranks are all read in
those coordinates.

The construction refuses characteristic 2 (globally) and prime fields with
p <= the homological bound: even-variable p-th powers would create spurious
homology that a strictly graded-commutative model cannot kill minimally.
"""

from __future__ import annotations

from bisect import bisect_right

from . import linalg
from .fields import Field
from .groebner import (
    FreeSlices,
    Ideal,
    ModulePresentation,
    _reject_unit,
    compose_is_zero,
    quotient_hilbert_by_monomials,
    scatter_multiples,
)
from .poly import PolyRing, Polynomial, _join_terms, monomial_mul
from .resolution import ext_degree_bound


class ModelError(RuntimeError):
    pass


class CharacteristicTooSmall(ModelError):
    pass


class DgVariable:
    __slots__ = ("name", "hdeg", "intdeg", "index")

    def __init__(self, name: str, hdeg: int, intdeg: int, index: int):
        self.name = name
        self.hdeg = hdeg
        self.intdeg = intdeg
        self.index = index

    @property
    def is_odd(self) -> bool:
        return self.hdeg % 2 == 1

    def __repr__(self):
        return f"{self.name}[{self.hdeg},{self.intdeg}]"


class DgElement:
    """Normal-form element of R[X]: {(ring exponents, dg monomial): coeff}.

    A dg monomial is a tuple of (variable index, exponent) pairs sorted by
    index, odd variables with exponent one.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: "DgAlgebraModel", terms: dict):
        self.model = model
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, DgElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        F = self.model.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            F.add_into(out, key, c)
        return DgElement(self.model, out)

    def __neg__(self):
        F = self.model.field
        return DgElement(self.model, {k: F.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        F = self.model.field
        if F.is_zero(c):
            return self.model.zero()
        return DgElement(self.model, {k: F.mul(c, v) for k, v in self.terms.items()})

    def __mul__(self, other):
        model = self.model
        F = model.field
        out: dict = {}
        for (m1, w1), c1 in self.terms.items():
            for (m2, w2), c2 in other.terms.items():
                merged = model.dgmon_mul(w1, w2)
                if merged is None:
                    continue
                sign, w = merged
                m = monomial_mul(m1, m2)
                c = F.mul(c1, c2)
                if sign < 0:
                    c = F.neg(c)
                F.add_into(out, (m, w), c)
        return DgElement(model, out)

    # -- degree bookkeeping ------------------------------------------------

    def in_augmentation_square(self) -> bool:
        """Every term in m_R*A + m_A^2 (no unit coefficient on a bare
        variable and no constant term)."""
        for (m, w), _ in self.terms.items():
            if any(m):
                continue
            if self.model.dgmon_length(w) < 2:
                return False
        return True

    # -- printing ------------------------------------------------------------

    def to_string(self) -> str:
        model = self.model

        def factors(m, w):
            powers = [(n, e) for n, e in zip(model.ring.names, m) if e]
            powers += [(model.variables[v].name, e) for v, e in w]
            return [n if e == 1 else f"{n}^{e}" for n, e in powers]

        items = sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][1], tuple(-e for e in kv[0][0])),
        )
        return _join_terms((factors(m, w), model.field.to_str(c)) for (m, w), c in items)

    def __repr__(self):
        return f"<dg {self.to_string()}>"


class DgDerivation:
    """R-linear derivation determined by its values on the dg variables.

    ``degree`` is the homological degree; the Leibniz sign when passing a
    degree-j element is (-1)^(degree*j).
    """

    __slots__ = ("model", "degree", "values")

    def __init__(self, model: "DgAlgebraModel", degree: int, values: dict):
        self.model = model
        self.degree = degree
        self.values = values  # var index -> DgElement

    def apply(self, elem: DgElement) -> DgElement:
        odd = self.degree % 2 == 1
        return self.model._extend(
            lambda w: self.model._leibniz(self.values.get, odd, w), elem)

    def is_chain(self) -> bool:
        """Commutes with the differential (checked on generators, which
        suffices: the graded commutator with d is itself a derivation)."""
        model = self.model
        sign_flip = self.degree % 2 == 1
        for v in range(len(model.variables)):
            theta_t = self.values.get(v, model.zero())
            lhs = model.differential(theta_t)
            rhs = self.apply(model.differentials[v])
            if sign_flip:
                rhs = -rhs
            if lhs != rhs:
                return False
        return True

    def lands_in_augmentation(self) -> bool:
        return all(
            val.is_zero() or _in_augmentation(val) for val in self.values.values()
        )


def _in_augmentation(elem: DgElement) -> bool:
    """Element of m_A = (m_R, X)A: no nonzero constant term."""
    for (m, w), _ in elem.terms.items():
        if not any(m) and not w:
            return False
    return True


class DgAlgebraModel:
    """R[X] with differential, truncated at (hdeg_bound, intdeg_bound).

    ``complete`` is false, and ``warnings`` says so, when a cap stopped the
    model below the degree bound that makes it complete (see
    :func:`build_minimal_model`).
    """

    def __init__(self, ring: PolyRing, ideal: Ideal, hdeg_bound: int, intdeg_bound: int):
        self.ring = ring
        self.field: Field = ring.field
        self.ideal = ideal
        self.hdeg_bound = hdeg_bound
        self.intdeg_bound = intdeg_bound
        self.variables: list[DgVariable] = []
        self.differentials: list[DgElement] = []
        self.complete = True
        self.warnings: list[str] = []
        # the current stage's data by degree, cleared by add_variable; d of
        # a dg monomial never changes, so _dw_cache is kept for the model
        self._mon_cache: dict = {}
        self._slices: dict = {}
        self._dw_cache: dict = {}
        self._dvec_cache: dict = {}
        self._diff_cache: dict = {}
        self._kahler_cache: dict = {}

    # -- construction ------------------------------------------------------

    def add_variable(self, hdeg: int, intdeg: int, differential: DgElement) -> DgVariable:
        index = len(self.variables)
        count = sum(1 for v in self.variables if v.hdeg == hdeg)
        var = DgVariable(f"t{hdeg}_{count + 1}", hdeg, intdeg, index)
        self.variables.append(var)
        self.differentials.append(differential)
        for cache in (self._mon_cache, self._slices, self._dvec_cache, self._diff_cache,
                      self._kahler_cache):
            cache.clear()
        return var

    def zero(self) -> DgElement:
        return DgElement(self, {})

    def one(self) -> DgElement:
        return DgElement(self, {((0,) * self.ring.nvars, ()): self.field.one()})

    def embed(self, p: Polynomial) -> DgElement:
        return DgElement(self, {(m, ()): c for m, c in p.terms.items()})

    def var_element(self, index: int) -> DgElement:
        return DgElement(
            self, {((0,) * self.ring.nvars, ((index, 1),)): self.field.one()}
        )

    # -- monomial algebra ----------------------------------------------------

    def dgmon_intdeg(self, w) -> int:
        return sum(self.variables[v].intdeg * e for v, e in w)

    def dgmon_length(self, w) -> int:
        return sum(e for _, e in w)

    def dgmon_mul(self, w1, w2):
        """Merge sorted dg monomials; returns (sign, monomial) or None when
        an odd variable squares."""
        if not w1:
            return 1, w2
        if not w2:
            return 1, w1
        odd1 = [v for v, _ in w1 if self.variables[v].hdeg % 2]
        merged = dict(w1)
        sign = 1
        for v, e in w2:
            if self.variables[v].hdeg % 2:
                if v in merged:
                    return None
                if (len(odd1) - bisect_right(odd1, v)) % 2:
                    sign = -sign
            merged[v] = merged.get(v, 0) + e
        return sign, tuple(sorted(merged.items()))

    def _expand_word(self, w):
        word = []
        for v, e in w:
            word.extend([v] * e)
        return word

    def _collapse_word(self, word):
        out = []
        for v in word:
            if out and out[-1][0] == v:
                out[-1] = (v, out[-1][1] + 1)
            else:
                out.append((v, 1))
        return tuple(out)

    # -- derivations ---------------------------------------------------------

    def _leibniz(self, value_of, odd: bool, w) -> DgElement:
        """The derivation with value ``value_of(v)`` (None for zero) on each
        variable v, applied to the dg monomial w by the graded Leibniz rule:
        passing a prefix of homological degree j costs (-1)^j when the
        derivation is ``odd``."""
        F = self.field
        out = self.zero()
        word = self._expand_word(w)
        unit = (0,) * self.ring.nvars
        prefix_deg = 0
        for pos, v in enumerate(word):
            val = value_of(v)
            if val is not None and val.terms:
                coeff = F.neg(F.one()) if (odd and prefix_deg % 2) else F.one()
                head = DgElement(self, {(unit, self._collapse_word(word[:pos])): coeff})
                tail = DgElement(self, {(unit, self._collapse_word(word[pos + 1 :])): F.one()})
                out = out + head * val * tail
            prefix_deg += self.variables[v].hdeg
        return out

    def _extend(self, image_of, elem: DgElement) -> DgElement:
        """The R-linear map sending c*x^m*w to c*x^m*image_of(w)."""
        F = self.field
        result = self.zero()
        for (m, w), c in elem.terms.items():
            if not w:
                continue
            for (dm, dww), dc in image_of(w).terms.items():
                F.add_into(result.terms, (monomial_mul(m, dm), dww), F.mul(c, dc))
        return result

    def _dw(self, w) -> DgElement:
        """d of the dg monomial w, cached per model."""
        dw = self._dw_cache.get(w)
        if dw is None:
            dw = self._dw_cache[w] = self._leibniz(self.differentials.__getitem__, True, w)
        return dw

    def differential(self, elem: DgElement) -> DgElement:
        """d extended from the variables by the graded Leibniz rule."""
        return self._extend(self._dw, elem)

    # -- graded slices ---------------------------------------------------------

    def dg_monomials(self, hdeg: int):
        """All dg monomials of the given homological degree with internal
        degree within the truncation, over the current variables."""
        if hdeg not in self._mon_cache:
            out = []
            self._gen_monomials(0, hdeg, self.intdeg_bound, [], out)
            out.sort()
            self._mon_cache[hdeg] = tuple(out)
        return self._mon_cache[hdeg]

    def _gen_monomials(self, i, h_left, d_left, current, out):
        if h_left == 0:
            out.append(tuple(current))
            return
        if i >= len(self.variables):
            return
        v = self.variables[i]
        if v.hdeg > h_left:
            return  # variables are hdeg-sorted
        max_e = 1 if v.is_odd else h_left // v.hdeg
        max_e = min(max_e, d_left // v.intdeg)
        for e in range(max_e, -1, -1):
            if e:
                current.append((v.index, e))
            self._gen_monomials(
                i + 1, h_left - e * v.hdeg, d_left - e * v.intdeg, current, out
            )
            if e:
                current.pop()

    def slices(self, hdeg: int) -> FreeSlices:
        """A_hdeg as a free R-module on the dg monomials of that degree, one
        row each in its internal degree, sliced by internal degree (cached
        per stage)."""
        if hdeg not in self._slices:
            self._slices[hdeg] = FreeSlices(
                self.ring, [self.dgmon_intdeg(w) for w in self.dg_monomials(hdeg)])
        return self._slices[hdeg]

    def element_from_coords(self, coords, hdeg: int, d: int) -> DgElement:
        """The element of A_hdeg with these coordinates in the degree-d slice."""
        vec = self.slices(hdeg).from_coords(coords, d)
        return DgElement(self, {(m, w): c for w, p in zip(self.dg_monomials(hdeg), vec)
                                for m, c in p.terms.items()})

    def _differential_vectors(self, hdeg: int):
        """d(w) for each dg monomial w of degree hdeg, as a vector over the
        dg monomials of degree hdeg - 1 (cached per stage)."""
        if hdeg not in self._dvec_cache:
            position = {w: i for i, w in enumerate(self.dg_monomials(hdeg - 1))}
            vecs = []
            for w in self.dg_monomials(hdeg):
                polys = [{} for _ in position]
                for (m, ww), c in self._dw(w).terms.items():
                    polys[position[ww]][m] = c
                vecs.append(tuple(Polynomial(self.ring, t) for t in polys))
            self._dvec_cache[hdeg] = vecs
        return self._dvec_cache[hdeg]

    def differential_rows(self, hdeg: int, d: int):
        """Images of the (hdeg, d) slice basis under d, as coordinate rows in
        the (hdeg-1, d) slice (cached per stage)."""
        key = (hdeg, d)
        if key not in self._diff_cache:
            target = self.slices(hdeg - 1)
            rows = []
            for w, vec in zip(self.dg_monomials(hdeg), self._differential_vectors(hdeg)):
                wd = self.dgmon_intdeg(w)
                if wd <= d:
                    rows.extend(scatter_multiples(target, vec, wd, d))
            self._diff_cache[key] = rows
        return self._diff_cache[key]

    # -- reduced Kaehler complex ---------------------------------------------

    def reduced_kahler_matrix(self, i: int) -> ModulePresentation:
        """S-matrix of (S (x) Omega)_i -> (S (x) Omega)_{i-1}, the degree-i
        map of the reduced Kaehler complex S (x)_A Omega_{A|R}: rows are
        X_{i-1}, columns X_i, and the entry at (u, t) is the coefficient of u
        in d(t), reduced mod I (cached per stage).

        For a semi-free A = R[X], Omega_{A|R} is the free A-module on dX and
        its differential reduced to S is the linear part of d (Avramov,
        "Infinite free resolutions", 1998).  The degree-2 cokernel presents
        I/I^2, the degree-3 cokernel the first Koszul homology."""
        if i in self._kahler_cache:
            return self._kahler_cache[i]
        gb = self.ideal.groebner()
        rows = self.variables_of_hdeg(i - 1)
        row_pos = {v.index: p for p, v in enumerate(rows)}
        columns = []
        for c in self.variables_of_hdeg(i):
            linear = [{} for _ in rows]
            for (m, w), coeff in self.differentials[c.index].terms.items():
                if len(w) == 1 and w[0][1] == 1:
                    linear[row_pos[w[0][0]]][m] = coeff
            columns.append(tuple(gb.normal_form(Polynomial(self.ring, t)) for t in linear))
        pres = ModulePresentation(self.ring, self.ideal, [v.intdeg for v in rows], columns)
        self._kahler_cache[i] = pres
        return pres

    # -- variable bookkeeping ------------------------------------------------

    def variables_of_hdeg(self, h: int):
        return [v for v in self.variables if v.hdeg == h]

    def deviations(self):
        """epsilon_i = |X_i| for i = 1..hdeg_bound."""
        out = [0] * (self.hdeg_bound + 1)
        for v in self.variables:
            out[v.hdeg] += 1
        return out[1:]

    def dump(self) -> str:
        """One line per variable: `name : hdeg intdeg : differential`."""
        lines = []
        for v in self.variables:
            lines.append(
                f"{v.name} : {v.hdeg} {v.intdeg} : {self.differentials[v.index].to_string()}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# model construction


def build_minimal_model(ideal: Ideal, hdeg_bound: int, intdeg_bound: int) -> DgAlgebraModel:
    """Minimal model of R -> R/I with variables in degrees 1..hdeg_bound.

    The variables X_n span a copy of pi^{n+1}(S) inside Ext^{n+1}_S(k, k),
    so Backelin's bound ``ext_degree_bound(ideal, n + 1)`` bounds their
    internal degrees: the model is built to that bound at n = hdeg_bound,
    with ``intdeg_bound`` as a cap, and is ``complete`` unless the cap is
    below it (then ``warnings`` says so).  Stage n searches for new
    variables only up to its own bound ``ext_degree_bound(ideal, n + 1)``
    (within the cap), which grows with n.  After stage n the model kills
    H_{n-1}, so on completion H_i vanishes for 0 < i < hdeg_bound within
    the model's ``intdeg_bound``.
    """
    ring = ideal.ring
    field = ring.field
    if field.p is not None and field.p <= hdeg_bound:
        raise CharacteristicTooSmall(
            f"GF({field.p}) with homological bound {hdeg_bound}: even-variable "
            f"p-th powers are not handled without divided powers"
        )
    if hdeg_bound < 2:
        raise ModelError("homological bound must be at least 2")
    _reject_unit(ideal)

    derived = ext_degree_bound(ideal, hdeg_bound + 1)
    model = DgAlgebraModel(ring, ideal, hdeg_bound, min(derived, intdeg_bound))
    model.complete = intdeg_bound >= derived
    if not model.complete:
        model.warnings.append(
            f"internal degree cap {intdeg_bound} is below Backelin's bound "
            f"{derived}; variables above the cap are missing"
        )

    for g in ideal.minimal_generators():
        model.add_variable(1, g.homogeneous_degree(), model.embed(g))

    for stage in range(2, hdeg_bound + 1):
        _adjoin_stage(model, stage)
    return model


def _adjoin_stage(model: DgAlgebraModel, n: int):
    """Adjoin X_n killing minimal generators of H_{n-1} of the current stage.

    X_n spans pi^{n+1}(S) in Ext^{n+1}_S(k, k), so its internal degrees are
    at most Backelin's ``ext_degree_bound(ideal, n + 1)``: the search runs
    over the degrees up to that bound or the model's ``intdeg_bound``,
    whichever is lower."""
    field = model.field
    nvars = model.ring.nvars
    h = n - 1
    h_slices = model.slices(h)
    mons = model.dg_monomials(h)
    cycle_slices: dict[int, list] = {}
    new_vars = []  # (intdeg, cycle element)
    top = min(model.intdeg_bound, ext_degree_bound(model.ideal, n + 1))

    for d in range(0, top + 1):
        cycles = linalg.kernel(model.differential_rows(h, d), field)
        cycle_slices[d] = cycles
        if not cycles:
            continue
        # a minimal model never produces cycles through a bare variable (unit
        # coefficient on one variable), which we assert
        linear_positions = [
            pos
            for pos, (i, m) in enumerate(h_slices.basis(d))
            if not any(m) and model.dgmon_length(mons[i]) == 1
        ]
        for z in cycles:
            for pos in linear_positions:
                if pos in z:
                    raise ModelError(
                        f"cycle with unit linear term at stage {n}, degree {d}"
                    )
        denom = list(model.differential_rows(n, d))
        for zvec in cycle_slices.get(d - 1, []):
            for var in range(nvars):
                denom.append(h_slices.multiply_coords_by_var(zvec, d - 1, var))
        chosen = linalg.independent_subset(denom, cycles, field)
        for c in chosen:
            new_vars.append((d, model.element_from_coords(cycles[c], h, d)))

    # X_n joins only now: the loop above reads the stage caches, which
    # add_variable clears
    for intdeg, cycle in new_vars:
        model.add_variable(n, intdeg, cycle)


# ---------------------------------------------------------------------------
# verification


def verify_model_differential(model: DgAlgebraModel):
    """d^2 = 0 on every variable and minimality of every differential."""
    failures = []
    for v in model.variables:
        if not model.differential(model.differentials[v.index]).is_zero():
            failures.append(f"d^2 != 0 on {v.name}")
        if not model.differentials[v.index].in_augmentation_square():
            failures.append(f"differential of {v.name} not in m_R*A + m_A^2")
    return failures


def verify_model_acyclicity(model: DgAlgebraModel):
    """H_0 = S (against the Groebner standard-monomial count) and H_i = 0
    for 0 < i < hdeg_bound, within the internal degree bound, read off one
    table: rank[i][d] is the rank of d: A_i -> A_{i-1} in internal degree d,
    for 1 <= i <= hdeg_bound, and H_i = dim A_i - rank[i] - rank[i + 1].

    Every H_i is read up to the model's full ``intdeg_bound``, although
    :func:`_adjoin_stage` searches stage n only up to Backelin's bound at
    n + 1: a variable missed by that shorter search leaves a class of
    H_{n-1} alive, which shows here, so the check does not rest on the
    bound it checks."""
    failures = []
    degrees = range(model.intdeg_bound + 1)
    rank = [None] + [
        [linalg.rank(model.differential_rows(i, d), model.field) for d in degrees]
        for i in range(1, model.hdeg_bound + 1)
    ]
    target_hf = quotient_hilbert_by_monomials(model.ideal, model.intdeg_bound)
    for d in degrees:
        h0 = model.slices(0).dim(d) - rank[1][d]
        if h0 != target_hf[d]:
            failures.append(f"H_0 mismatch at degree {d}: {h0} vs {target_hf[d]}")
    for i in range(1, model.hdeg_bound):
        for d in degrees:
            hd = model.slices(i).dim(d) - rank[i][d] - rank[i + 1][d]
            if hd != 0:
                failures.append(f"H_{i} nonzero at degree {d}: dim {hd}")
    return failures



def verify_kahler_complex(model: DgAlgebraModel):
    """d^2 = 0 on the reduced Kaehler complex
    (:meth:`DgAlgebraModel.reduced_kahler_matrix`).  Its minimality needs no
    check of its own: a unit entry is a unit coefficient on a bare variable
    of some d(t), which :func:`verify_model_differential` rejects."""
    matrix = model.reduced_kahler_matrix
    return [
        f"reduced d^2 != 0 at degree {i}"
        for i in range(3, model.hdeg_bound + 1)
        if not compose_is_zero(matrix(i - 1), matrix(i))
    ]
