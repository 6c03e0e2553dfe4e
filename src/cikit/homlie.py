"""The homotopy Lie algebra of R -> S up to a degree bound.

pi^i has a basis dual to the stage-(i-1) model variables; the bracket is
dual to the quadratic part of the differential on the derived fiber.  The
commutator derivation theta_z = [d, d/dz] gives a second, independent route
to ad(z): the two are asserted equal entry-exact (up to the predicted sign)
as an internal sign-convention tripwire.

Degrees in this module are pi-degrees i (basis of pi^i dual to X_{i-1});
with this grading the bracket satisfies [u,v] = -(-1)^{ij} [v,u].
"""

from __future__ import annotations

from .dgmodel import DgAlgebraModel, DgDerivation, DgElement, ModelError
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
        F = self.model.field
        src = self.by_degree.get(m, [])
        tgt = self.by_degree.get(m + z.degree, [])
        tpos = {e.var_index: p for p, e in enumerate(tgt)}
        mat = [[F.zero()] * len(src) for _ in tgt]
        for c, s in enumerate(src):
            for tv, coeff in self.bracket_of(z, s).items():
                mat[tpos[tv]][c] = coeff
        return mat

    def bracket_table_dump(self) -> str:
        """Canonical text form: one `[u, v] = ...` line per ordered pair."""
        F = self.model.field
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
                        c = F.to_str(val[tv])
                        parts.append(f"{c}*{self.basis[tv].name}")
                    rhs = " + ".join(parts).replace("+ -", "- ")
                lines.append(f"[{u.name}, {v.name}] = {rhs}")
        return "\n".join(lines)


def compute_pi(model: DgAlgebraModel) -> HomotopyLieTruncation:
    """Basis of pi^i for 2 <= i <= N = hdeg_bound + 1 with the full bracket
    table.

    The bracket pairs basis duals against the quadratic part of the
    differential on the derived fiber: terms of d(x) with coefficient
    outside m_R and monomial length exactly two.
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
        target_deg = x.hdeg + 1  # [u, v] lands in pi^(hdeg + 1) paired against x
        for coeff, a, b in _quadratic_terms(model, model.differentials[x.index]):
            da = model.variables[a].hdeg + 1
            db = model.variables[b].hdeg + 1
            pairs = []
            if a != b:
                # <v, t_a><u, t_b> picks (u, v) = (dual b, dual a)
                pairs.append((b, a, F.one()))
                # the signed term picks (u, v) = (dual a, dual b)
                i, j = da, db
                s = F.of_int(-1 if ((i + 1) * (j + 1)) % 2 else 1)
                pairs.append((a, b, s))
            else:
                i = j = da
                s = F.of_int(-1 if ((i + 1) * (j + 1)) % 2 else 1)
                pairs.append((a, a, F.add(F.one(), s)))
            for (uv, vv, val) in pairs:
                if F.is_zero(val):
                    continue
                key = (uv, vv)
                if key not in bracket:
                    continue
                j_deg = model.variables[vv].hdeg + 1
                c = F.mul(coeff, val)
                if j_deg % 2:
                    c = F.neg(c)
                F.add_into(bracket[key], x.index, c)
    return HomotopyLieTruncation(model, N, basis, by_degree, bracket)


def _quadratic_terms(model: DgAlgebraModel, elem: DgElement):
    """(coeff, a, b) with a <= b for the length-two fiber terms of elem."""
    out = []
    for (m, w), c in elem.terms.items():
        if any(m):
            continue  # coefficient in m_R dies in the fiber
        if model.dgmon_length(w) != 2:
            continue
        if len(w) == 1:
            out.append((c, w[0][0], w[0][0]))
        else:
            out.append((c, w[0][0], w[1][0]))
    return out


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
            lhs = tbl.get(t, F.zero())
            rhs = F.mul(F.of_int(sign), other.get(t, F.zero()))
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
                lhs = _bracket_combos(pi, {u.var_index: F.one()}, pi.bracket_of(v, w))
                t1 = _bracket_combos(pi, pi.bracket_of(u, v), {w.var_index: F.one()})
                t2 = _bracket_combos(pi, {v.var_index: F.one()}, pi.bracket_of(u, w))
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


class ThetaDerivation:
    """theta_z = [d, d/dz] for z in pi^2, a chain derivation of degree -2
    landing in the augmentation ideal."""

    __slots__ = ("z", "lift", "derivation")

    def __init__(self, z: PiBasisElement, lift: dict, derivation: DgDerivation):
        self.z = z
        self.lift = lift
        self.derivation = derivation

    def value_on(self, var_index: int) -> DgElement:
        return self.derivation.values.get(var_index, self.derivation.model.zero())


def theta(model: DgAlgebraModel, pi: HomotopyLieTruncation, z: PiBasisElement,
          lift: dict | None = None) -> ThetaDerivation:
    """Construct theta_z.  ``lift`` maps stage-1 variable indices to ring
    polynomials; the default sends z's variable to 1 and the rest to 0.
    """
    if z.degree != 2:
        raise ModelError("theta is defined for degree-2 elements")
    F = model.field
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
    return ThetaDerivation(z, lift, deriv)


class AdMatrix:
    """Blocks of ad(z): pi^m -> pi^(m+2) for 2 <= m <= N-2."""

    __slots__ = ("z", "blocks")

    def __init__(self, z: PiBasisElement, blocks: dict):
        self.z = z
        self.blocks = blocks

    def is_zero(self) -> bool:
        return all(
            all(not v for row in mat for v in row) for mat in self.blocks.values()
        )


def ad_matrix(pi: HomotopyLieTruncation, z: PiBasisElement) -> AdMatrix:
    blocks = {}
    for m in range(2, pi.N - 1):
        blocks[m] = pi.ad_block(z, m)
    return AdMatrix(z, blocks)


def induced_ad(theta_z: ThetaDerivation, pi: HomotopyLieTruncation) -> AdMatrix:
    """Pass theta_z to the derived fiber, take indecomposables, dualise.

    The resulting blocks are asserted equal to -ad(z) entry-exact; a
    mismatch signals a sign-convention bug.
    """
    model = pi.model
    F = model.field
    # linear fiber coefficients: theta(t) = sum c[t, t'] t' modulo m_R and
    # decomposables
    lin: dict = {}
    for v in model.variables:
        val = theta_z.value_on(v.index)
        for (m, w), c in val.terms.items():
            if any(m):
                continue
            if model.dgmon_length(w) != 1:
                continue
            lin[(v.index, w[0][0])] = c

    blocks = {}
    for m in range(2, pi.N - 1):
        src = pi.by_degree.get(m, [])       # duals of X_{m-1}
        tgt = pi.by_degree.get(m + 2, [])   # duals of X_{m+1}
        mat = [[F.zero()] * len(src) for _ in tgt]
        for r, te in enumerate(tgt):
            for c, se in enumerate(src):
                v = lin.get((te.var_index, se.var_index))
                if v is not None:
                    mat[r][c] = v
        blocks[m] = mat

    induced = AdMatrix(theta_z.z, blocks)
    direct = ad_matrix(pi, theta_z.z)
    for m, mat in induced.blocks.items():
        neg_ad = [[F.neg(v) for v in row] for row in direct.blocks[m]]
        if mat != neg_ad:
            raise MismatchWithBracket(
                f"induced map of theta_{theta_z.z.name} differs from -ad at pi^{m}"
            )
    return induced


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


def radical_probe(pi: HomotopyLieTruncation, z: PiBasisElement | None) -> RadicalVerdict:
    """Bounded radical test for z in pi^2 via the vanishing of ad(z) in
    high degrees.  z = None means the zero element."""
    N = pi.N
    F = pi.model.field
    if z is None:
        return RadicalVerdict("radical_witness", 1, N)
    nonzero_degrees = []
    for m in range(2, N - 1):
        block = pi.ad_block(z, m)
        if any(not F.is_zero(v) for row in block for v in row):
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


def _series_mul(a, b, N):
    out = [0] * (N + 1)
    for i, av in enumerate(a[: N + 1]):
        if not av:
            continue
        for j, bv in enumerate(b[: N + 1 - i]):
            out[i + j] += av * bv
    return out


def _series_pow(base, e, N):
    out = [1] + [0] * N
    for _ in range(e):
        out = _series_mul(out, base, N)
    return out


def _geometric(k, N):
    out = [0] * (N + 1)
    for i in range(0, N + 1, k):
        out[i] = 1
    return out


def expected_ext_dims(model: DgAlgebraModel, N: int):
    """Ext_S(k,k) dimensions predicted by graded PBW bookkeeping.

    pi^(j+1) contributes polynomial generators for j odd and exterior ones
    for j even; the embedding-dimension factor (1+t)^e and the correction
    for linear generators of I make the count match Ext over S itself.
    """
    eps = model.deviations()
    ell = sum(1 for v in model.variables_of_hdeg(1) if v.intdeg == 1)
    e = model.ring.nvars - ell
    series = _series_pow([1, 1], e, N)
    # pi^2: polynomial generators, minus the ell linear ones already
    # cancelled against the Koszul factor
    eps1 = eps[0] - ell if eps else 0
    series = _series_mul(series, _series_pow(_geometric(2, N), eps1, N), N)
    # pi^(j+1) sits in degree j + 1, so only j <= N - 1 reaches the series
    for j in range(2, min(len(eps), N - 1) + 1):
        count = eps[j - 1]
        if not count:
            continue
        if j % 2 == 0:  # pi^(j+1) odd: exterior
            gen = [0] * (N + 1)
            gen[0] = 1
            gen[j + 1] = 1
            series = _series_mul(series, _series_pow(gen, count, N), N)
        else:  # pi^(j+1) even: polynomial
            series = _series_mul(
                series, _series_pow(_geometric(j + 1, N), count, N), N
            )
    return series


def ext_crosscheck(model: DgAlgebraModel, N: int = 5):
    """Resolution-side Ext^i_S(k,k) dims must equal the deviation product
    coefficients for i <= N.  Returns the common list; raises otherwise."""
    resolved = ext_betti(model.ring, model.ideal, N)
    predicted = expected_ext_dims(model, N)
    if resolved != predicted[: N + 1]:
        raise DimensionMismatch(
            f"Ext dims {resolved} vs deviation product {predicted[: N + 1]}"
        )
    return resolved
