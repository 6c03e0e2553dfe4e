"""The homotopy Lie algebra of R -> S up to a degree bound.

pi^i has a basis dual to the stage-(i-1) model variables; the bracket is
dual to the quadratic part of the differential on the derived fiber.  The
commutator derivation theta_z = [d, d/dz] gives a second, independent route
to ad(z): the two are asserted equal entry-exact (up to the predicted sign)
as an internal sign-convention tripwire.

Ext_S(k, k) is checked against pi through the deviations eps_i = dim pi^i:
its Poincare series is the product prod_{i odd} (1 + t^i)^eps_i /
prod_{i even} (1 - t^i)^eps_i, compared with the Betti numbers of a
minimal free resolution of k over S.

Degrees in this module are pi-degrees i (basis of pi^i dual to X_{i-1});
with this grading the bracket satisfies [u,v] = -(-1)^{ij} [v,u].
"""

from __future__ import annotations

from .dgmodel import DgAlgebraModel, DgDerivation, ModelError
from .resolution import ext_betti


class MismatchWithBracket(RuntimeError):
    """Sign-convention tripwire: the induced map of theta_z must be -ad(z)."""


class DimensionMismatch(RuntimeError):
    """Resolution-side Ext dimensions disagree with the deviation product."""


class PiBasisElement:
    """Dual of one model variable; pi-degree is hdeg + 1."""

    __slots__ = ("var_index", "name", "degree")

    def __init__(self, var_index: int, name: str, degree: int):
        self.var_index = var_index
        self.name = name
        self.degree = degree

    def __repr__(self):
        return self.name


class HomotopyLieTruncation:
    """Basis and full bracket table of pi^i for 2 <= i <= N."""

    __slots__ = ("model", "N", "basis", "by_degree", "bracket")

    def __init__(self, model: DgAlgebraModel, N: int, basis, by_degree, bracket):
        self.model = model
        self.N = N
        self.basis = basis          # var index -> PiBasisElement
        self.by_degree = by_degree  # pi-degree -> [PiBasisElement]
        self.bracket = bracket      # (u_var, v_var) -> {target_var: coeff}

    def dim(self, i: int) -> int:
        return len(self.by_degree.get(i, []))

    def element_by_name(self, name: str) -> PiBasisElement:
        for e in self.basis.values():
            if e.name == name:
                return e
        names = ", ".join(e.name for e in self.basis.values()) or "none"
        raise ModelError(f"no element {name} in pi (basis: {names})")

    def bracket_of(self, u: PiBasisElement, v: PiBasisElement) -> dict:
        return self.bracket.get((u.var_index, v.var_index), {})

    def ad_block(self, z: PiBasisElement, m: int):
        """Matrix of [z, -]: pi^m -> pi^(m+z.degree), rows = target basis,
        cols = source basis."""
        src = self.by_degree.get(m, [])
        tgt = self.by_degree.get(m + z.degree, [])
        tpos = {e.var_index: p for p, e in enumerate(tgt)}
        mat = [[0] * len(src) for _ in tgt]
        for c, s in enumerate(src):
            for tv, coeff in self.bracket_of(z, s).items():
                mat[tpos[tv]][c] = coeff
        return mat

    def bracket_table_dump(self) -> str:
        """Canonical text form: one `[u, v] = ...` line per ordered pair."""
        lines = []
        elems = [self.basis[v.index] for v in self.model.variables if v.index in self.basis]
        for u in elems:
            for v in elems:
                key = (u.var_index, v.var_index)
                if key not in self.bracket:
                    continue
                val = self.bracket[key]
                if not val:
                    rhs = "0"
                else:
                    parts = []
                    for tv in sorted(val, key=lambda t: self.basis[t].name):
                        parts.append(f"{val[tv]}*{self.basis[tv].name}")
                    rhs = " + ".join(parts).replace("+ -", "- ")
                lines.append(f"[{u.name}, {v.name}] = {rhs}")
        return "\n".join(lines)


def compute_pi(model: DgAlgebraModel) -> HomotopyLieTruncation:
    """Basis of pi^i for 2 <= i <= N = hdeg_bound + 1 with the full bracket
    table.

    The bracket is dual to the quadratic part of the differential on the
    derived fiber: the terms c*t_a*t_b (a <= b) of d(x) with coefficient c
    outside m_R.  With t_a dual to u_a in pi^i and t_b to u_b in pi^j, such
    a term adds (-1)^i c to [u_b, u_a] and (-1)^((i+1)(j+1) + j) c to
    [u_a, u_b] at the dual of x; for t_a^2 the two add up.
    """
    N = model.hdeg_bound + 1
    F = model.field

    basis = {}
    by_degree: dict[int, list] = {}
    for v in model.variables:
        i = v.hdeg + 1
        e = PiBasisElement(v.index, f"p{i}_{len(by_degree.get(i, [])) + 1}", i)
        basis[v.index] = e
        by_degree.setdefault(i, []).append(e)

    bracket: dict = {}
    for u in basis.values():
        for v in basis.values():
            if u.degree + v.degree <= N:
                bracket[(u.var_index, v.var_index)] = {}

    for x in model.variables:
        for (m, w), coeff in model.differentials[x.index].terms.items():
            if any(m) or model.dgmon_length(w) != 2:
                continue  # a coefficient in m_R dies in the fiber
            a, b = w[0][0], w[-1][0]
            i = model.variables[a].hdeg + 1
            j = model.variables[b].hdeg + 1
            # both keys are (a, a) for t_a^2, and the two terms add up
            for key, sign in (((b, a), i), ((a, b), (i + 1) * (j + 1) + j)):
                if key in bracket:
                    F.add_into(bracket[key], x.index, F.neg(coeff) if sign % 2 else coeff)
    return HomotopyLieTruncation(model, N, basis, by_degree, bracket)


# ---------------------------------------------------------------------------
# Lie identities


def check_antisymmetry(pi: HomotopyLieTruncation):
    """[u,v] = -(-1)^{deg u * deg v} [v,u] across the whole table."""
    F = pi.model.field
    failures = []
    for (uv, vv), tbl in pi.bracket.items():
        u = pi.basis[uv]
        v = pi.basis[vv]
        other = pi.bracket.get((vv, uv), {})
        sign = -1 if (u.degree * v.degree) % 2 == 0 else 1
        for t in set(tbl) | set(other):
            lhs = tbl.get(t, 0)
            rhs = F.mul(F.of_int(sign), other.get(t, 0))
            if lhs != rhs:
                failures.append(f"antisymmetry fails for [{u.name},{v.name}] at {t}")
    return failures


def check_jacobi(pi: HomotopyLieTruncation):
    """Graded Jacobi in derivation form on all basis triples in range:
    [u,[v,w]] = [[u,v],w] + (-1)^{deg u deg v} [v,[u,w]]."""
    F = pi.model.field
    failures = []
    elems = list(pi.basis.values())
    for u in elems:
        for v in elems:
            for w in elems:
                if u.degree + v.degree + w.degree > pi.N:
                    continue
                lhs = _bracket_combos(pi, {u.var_index: 1}, pi.bracket_of(v, w))
                t1 = _bracket_combos(pi, pi.bracket_of(u, v), {w.var_index: 1})
                t2 = _bracket_combos(pi, {v.var_index: 1}, pi.bracket_of(u, w))
                sign = F.of_int(-1 if (u.degree * v.degree) % 2 else 1)
                total: dict = {}
                for src, sgn in ((lhs, F.of_int(1)), (t1, F.of_int(-1)),
                                 (t2, F.neg(sign))):
                    for t, c in src.items():
                        F.add_into(total, t, F.mul(sgn, c))
                if total:
                    failures.append(
                        f"Jacobi fails on ({u.name},{v.name},{w.name}): {total}"
                    )
    return failures


def _bracket_combos(pi, left: dict, right: dict) -> dict:
    """[left, right] for combinations {var index: coeff} of basis elements,
    extended bilinearly from the table; pairs outside it contribute 0."""
    F = pi.model.field
    out: dict = {}
    for a, ca in left.items():
        for b, cb in right.items():
            c = F.mul(ca, cb)
            for t, ct in pi.bracket.get((a, b), {}).items():
                F.add_into(out, t, F.mul(c, ct))
    return out


# ---------------------------------------------------------------------------
# the commutator derivation theta_z


def theta(model: DgAlgebraModel, z: PiBasisElement, lift: dict | None = None) -> DgDerivation:
    """theta_z = [d, d/dz] for z in pi^2: a chain derivation of degree -2
    landing in the augmentation ideal, whose ``values`` hold its nonzero
    values by variable index (a variable missing there maps to 0).
    ``lift`` maps stage-1 variable indices to ring polynomials; the default
    sends z's variable to 1 and the rest to 0.  The result does not record
    z: :func:`induced_ad` takes it beside the derivation.
    """
    if z.degree != 2:
        raise ModelError("theta is defined for degree-2 elements")
    if lift is None:
        lift = {}
        for v in model.variables_of_hdeg(1):
            lift[v.index] = (
                model.ring.one() if v.index == z.var_index else model.ring.zero()
            )
    dz_values = {idx: model.embed(p) for idx, p in lift.items()}
    dz = DgDerivation(model, -1, dz_values)

    values = {}
    for v in model.variables:
        val = model.differential(dz.apply(model.var_element(v.index))) + dz.apply(
            model.differentials[v.index]
        )
        if not val.is_zero():
            values[v.index] = val
    deriv = DgDerivation(model, -2, values)
    if not deriv.is_chain():
        raise ModelError("theta_z failed the chain-derivation check")
    if not deriv.lands_in_augmentation():
        raise ModelError("theta_z does not land in the augmentation ideal")
    return deriv


def induced_ad(theta_z: DgDerivation, z: PiBasisElement, pi: HomotopyLieTruncation) -> dict:
    """Pass theta_z (:func:`theta` of z) to the derived fiber, take
    indecomposables, dualise: the blocks {m: matrix of pi^m -> pi^(m+2)}
    for 2 <= m <= N-2.

    Each block is asserted equal to -ad(z) (:meth:`HomotopyLieTruncation.ad_block`)
    entry-exact; a mismatch signals a sign-convention bug.
    """
    model = pi.model
    F = model.field
    # linear fiber coefficients: theta(t) = sum c[t, t'] t' modulo m_R and
    # decomposables
    lin: dict = {}
    for v, val in theta_z.values.items():
        for (m, w), c in val.terms.items():
            if any(m):
                continue
            if model.dgmon_length(w) != 1:
                continue
            lin[(v, w[0][0])] = c

    blocks = {}
    for m in range(2, pi.N - 1):
        src = pi.by_degree.get(m, [])       # duals of X_{m-1}
        tgt = pi.by_degree.get(m + 2, [])   # duals of X_{m+1}
        mat = [[0] * len(src) for _ in tgt]
        for r, te in enumerate(tgt):
            for c, se in enumerate(src):
                v = lin.get((te.var_index, se.var_index))
                if v is not None:
                    mat[r][c] = v
        neg_ad = [[F.neg(v) for v in row] for row in pi.ad_block(z, m)]
        if mat != neg_ad:
            raise MismatchWithBracket(
                f"induced map of theta_{z.name} differs from -ad at pi^{m}"
            )
        blocks[m] = mat
    return blocks


# ---------------------------------------------------------------------------
# radical probes (truncation-stamped; never an unbounded claim)


class RadicalVerdict:
    __slots__ = ("kind", "data", "bound")

    def __init__(self, kind: str, data, bound: int):
        self.kind = kind  # "radical_witness" | "nonradical_evidence" | "inconclusive"
        self.data = data
        self.bound = bound

    def __repr__(self):
        if self.kind == "radical_witness":
            return f"RadicalWitness({self.data}; up to truncation {self.bound})"
        if self.kind == "nonradical_evidence":
            return f"NonRadicalEvidence(degrees {self.data}; bound {self.bound})"
        return f"Inconclusive({self.bound})"


def radical_probe(pi: HomotopyLieTruncation, z: PiBasisElement) -> RadicalVerdict:
    """Bounded radical test for z in pi^2 via the vanishing of ad(z) in
    high degrees."""
    N = pi.N
    if z.degree != 2:
        raise ModelError("the radical probe is defined for degree-2 elements")
    nonzero_degrees = []
    for m in range(2, N - 1):
        block = pi.ad_block(z, m)
        if any(v for row in block for v in row):
            nonzero_degrees.append(m)
    tail_empty = all(pi.dim(m) == 0 for m in (N - 1, N))
    if not nonzero_degrees:
        if tail_empty:
            return RadicalVerdict("radical_witness", 1, N)
        return RadicalVerdict("inconclusive", None, N)
    if tail_empty and nonzero_degrees[-1] < N - 2:
        return RadicalVerdict("radical_witness", nonzero_degrees[-1], N)
    return RadicalVerdict("nonradical_evidence", nonzero_degrees, N)


# ---------------------------------------------------------------------------
# Ext cross-check via the deviation product formula


def expected_ext_dims(model: DgAlgebraModel, N: int):
    """Coefficients of t^0..t^N in the deviation product

        P(t) = prod_{i odd} (1 + t^i)^eps_i / prod_{i even} (1 - t^i)^eps_i,

    the Poincare series of Ext_S(k, k) (Avramov, "Infinite free
    resolutions", Ch. 7).  eps_i = dim pi^i for i >= 3, while eps_1 =
    nvars - l and eps_2 = dim pi^2 - l for the l linear minimal generators
    of I, which lower the embedding dimension of S and are no relations of S.
    """
    ell = sum(1 for v in model.variables_of_hdeg(1) if v.intdeg == 1)
    eps = model.deviations()
    eps = [model.ring.nvars - ell, eps[0] - ell] + eps[1:]
    series = [1] + [0] * N
    for i, count in enumerate(eps[:N], start=1):
        # in place: top-down reads each series[k - i] before its update,
        # times (1 + t^i); bottom-up reads it after, times 1/(1 - t^i)
        degrees = range(N, i - 1, -1) if i % 2 else range(i, N + 1)
        for _ in range(count):
            for k in degrees:
                series[k] += series[k - i]
    return series


def ext_crosscheck(model: DgAlgebraModel):
    """Resolution-side Ext^i_S(k,k) dims must equal the deviation product
    coefficients for i <= N = hdeg_bound, which read pi only up to pi^N, the
    dual of X_{N-1}.  Returns the common list; raises otherwise."""
    N = model.hdeg_bound
    resolved = ext_betti(model.ring, model.ideal, N)
    predicted = expected_ext_dims(model, N)
    if resolved != predicted:
        raise DimensionMismatch(f"Ext dims {resolved} vs deviation product {predicted}")
    return resolved
