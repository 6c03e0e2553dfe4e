"""Modules over S = R/I sliced in quotient coordinates, against the former
slicing in ring monomial coordinates, which added (I*F)_d back into every
slice.  The reference bodies below are the replaced ones, kept here only to
check the quotient path."""

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import bruteforce_kernel, dense, homogeneous_ideals, sparse

from cikit import groebner as gr
from cikit import linalg
from cikit.conormal import kahler_s_over_k
from cikit.fields import GF, QQ
from cikit.koszul import koszul_h1
from cikit.poly import PolyRing, Polynomial, monomial_mul
from cikit.resolution import minimal_free_resolution


class _RingSlices:
    """Reference: the former FreeSlices, every slice in ring monomial
    coordinates whatever the modulus."""

    def __init__(self, ring, row_degrees):
        self.ring = ring
        self.row_degrees = list(row_degrees)
        self._basis: dict = {}
        self._index: dict = {}

    def basis(self, d):
        if d not in self._basis:
            out = [(i, m) for i, rd in enumerate(self.row_degrees)
                   for m in self.ring.monomials_of_degree(d - rd)]
            self._basis[d] = out
            self._index[d] = {bm: pos for pos, bm in enumerate(out)}
        return self._basis[d]

    def index(self, d):
        self.basis(d)
        return self._index[d]

    def dim(self, d):
        return len(self.basis(d))

    def coords(self, vec, d):
        idx = self.index(d)
        row = [0] * len(self.basis(d))
        for i, p in enumerate(vec):
            for m, c in p.terms.items():
                row[idx[(i, m)]] = c
        return row

    def from_coords(self, coords, d):
        polys = [dict() for _ in self.row_degrees]
        for pos, c in enumerate(coords):
            if c:
                i, m = self.basis(d)[pos]
                polys[i][m] = c
        return tuple(Polynomial(self.ring, t) for t in polys)

    def multiply_coords_by_var(self, coords, d, var):
        src = self.basis(d)
        idx = self.index(d + 1)
        out = [0] * self.dim(d + 1)
        for pos, c in enumerate(coords):
            if not c:
                continue
            i, m = src[pos]
            mm = list(m)
            mm[var] += 1
            out[idx[(i, tuple(mm))]] = c
        return out


def _ideal_echelon(pres, slices, d):
    """Reference: the former ModulePresentation.ideal_echelon, the RREF of
    (I*F)_d assembled from the ideal's slice echelons."""
    if not pres.over_quotient():
        return [], []
    total = slices.dim(d)
    out_rows, out_pivs = [], []
    offset = 0
    for rd in slices.row_degrees:
        e = d - rd
        width = pres.ring.slice_dim(e)
        if width:
            local_rows, local_pivs = pres.modulus.slice_rref(e)
            for lr, lp in zip(dense(local_rows, width), local_pivs):
                row = [0] * total
                row[offset: offset + width] = lr
                out_rows.append(row)
                out_pivs.append(offset + lp)
        offset += width
    return out_rows, out_pivs


def _scatter_multiples(slices, vec, vec_degree, d, proper_only=False):
    """Reference: the former scatter_multiples, over every ring monomial."""
    ring = slices.ring
    idx = slices.index(d)
    rows = []
    for m in ring.monomials_of_degree(d - vec_degree):
        if proper_only and not any(m):
            continue
        row = [0] * slices.dim(d)
        for i, p in enumerate(vec):
            for pm, pc in p.terms.items():
                row[idx[(i, monomial_mul(pm, m))]] = pc
        rows.append(row)
    return rows


def _span_slice_rows(pres, slices, d, proper_only=False):
    rows = []
    for col, cd in zip(pres.columns, pres.col_degrees):
        if cd <= d:
            rows.extend(_scatter_multiples(slices, col, cd, d, proper_only))
    return rows + _ideal_echelon(pres, slices, d)[0]


def _hilbert_function(pres, bound):
    slices = _RingSlices(pres.ring, pres.row_degrees)
    return [slices.dim(d) - linalg.rank(sparse(_span_slice_rows(pres, slices, d)), pres.ring.field)
            for d in range(bound + 1)]


def _minimal_generators(pres):
    field = pres.ring.field
    slices = _RingSlices(pres.ring, pres.row_degrees)
    selected = []
    for d in sorted(set(pres.col_degrees)):
        denom = _span_slice_rows(pres, slices, d, proper_only=True)
        cand_idx = [j for j, cd in enumerate(pres.col_degrees) if cd == d]
        candidates = [slices.coords(pres.columns[j], d) for j in cand_idx]
        selected.extend(cand_idx[c] for c in linalg.independent_subset(
            sparse(denom), sparse(candidates), field))
    selected.sort()
    return len(selected), selected


def _syzygy_slice(pres, target, domain, d):
    """Reference: the former _syzygy_slice, kernel modulo (I*F)_d."""
    field = pres.ring.field
    dom_basis = domain.basis(d)
    if not dom_basis:
        return []
    idx = target.index(d)
    cols = []
    for j, m in dom_basis:
        row = [0] * target.dim(d)
        for i, p in enumerate(pres.columns[j]):
            for pm, pc in p.terms.items():
                pos = idx[(i, monomial_mul(pm, m))]
                row[pos] = field.add(row[pos], pc)
        cols.append(row)
    return bruteforce_kernel(cols, _ideal_echelon(pres, target, d)[0], field)


def _syzygies(pres, degree_bound):
    """Reference: the former syzygy loop, Nakayama against m*(degree d-1)
    plus the I-multiples of the domain."""
    ring, field = pres.ring, pres.ring.field
    gens = []
    if pres.columns:
        target = _RingSlices(ring, pres.row_degrees)
        domain = _RingSlices(ring, pres.col_degrees)
        dom_pres = gr.ModulePresentation(ring, pres.modulus, pres.col_degrees, [])
        prev = []
        for d in range(min(pres.col_degrees), degree_bound + 1):
            basis_rows = _syzygy_slice(pres, target, domain, d)
            if basis_rows:
                denom = [domain.multiply_coords_by_var(v, d - 1, var)
                         for v in prev for var in range(ring.nvars)]
                denom.extend(_ideal_echelon(dom_pres, domain, d)[0])
                chosen = linalg.independent_subset(sparse(denom), sparse(basis_rows), field)
                gens.extend(domain.from_coords(basis_rows[c], d) for c in chosen)
            prev = basis_rows
    return gr.ModulePresentation(ring, pres.modulus, pres.col_degrees, gens)


def _compose_is_zero(upper, lower):
    """Reference: the former compose_is_zero, images tested against the
    (I*F) echelon in ring coordinates."""
    field = upper.ring.field
    target = _RingSlices(upper.ring, upper.row_degrees)
    by_degree: dict = {}
    for col, cd in zip(lower.columns, lower.col_degrees):
        by_degree.setdefault(cd, []).append(col)
    for d, cols in sorted(by_degree.items()):
        idx = target.index(d)
        images = []
        for col in cols:
            w = [0] * target.dim(d)
            for p, ucol in zip(col, upper.columns):
                for pm, pc in p.terms.items():
                    for i, q in enumerate(ucol):
                        for qm, qc in q.terms.items():
                            pos = idx[(i, monomial_mul(qm, pm))]
                            w[pos] = field.add(w[pos], field.mul(pc, qc))
            images.append(w)
        if linalg.independent_subset(sparse(_ideal_echelon(upper, target, d)[0]), sparse(images),
                                     field):
            return False
    return True


def _betti(pres, length, degree_bound):
    """Reference: the bigraded Betti table of coker(pres) over S from the
    reference syzygy loop, as minimal_free_resolution builds it over S."""
    pruned = gr.minimalize_presentation(pres)
    if pruned.nrows == 0:
        return {}
    _, selected = _minimal_generators(pruned)
    maps = [gr.ModulePresentation(pres.ring, pres.modulus, pruned.row_degrees,
                                  [pruned.columns[j] for j in selected])]
    if not maps[0].ncols:
        maps = []
    while maps and len(maps) < length:
        nxt = _syzygies(maps[-1], degree_bound)
        if not nxt.ncols:
            break
        maps.append(nxt)
    table: dict = {}
    for i, degrees in enumerate([pruned.row_degrees] + [m.col_degrees for m in maps]):
        for j in degrees:
            table[(i, j)] = table.get((i, j), 0) + 1
    return table


def _modules_over_s(I, bound):
    """k, I/I^2 (Z_1 mod I), Koszul H1, Omega_{S/K} and S itself."""
    ring = I.ring
    gb = I.groebner()
    z1 = I.generator_syzygies(bound)
    conormal = gr.ModulePresentation(
        ring, I, z1.row_degrees, [tuple(gb.normal_form(p) for p in c) for c in z1.columns])
    return [gr.residue_field_presentation(ring, I), conormal, koszul_h1(I, bound).presentation,
            kahler_s_over_k(I), gr.ModulePresentation(ring, I, [0], [])]


def _perturbed(pres, data):
    """pres with one nonzero entry of one column plus a monomial, or None."""
    if not pres.ncols:
        return None
    k = data.draw(st.integers(0, pres.ncols - 1))
    col = list(pres.columns[k])
    j = data.draw(st.sampled_from([j for j, p in enumerate(col) if not p.is_zero()]))
    ring = pres.ring
    col[j] = col[j] + ring.monomial(
        data.draw(st.sampled_from(ring.monomials_of_degree(col[j].homogeneous_degree()))))
    return gr.ModulePresentation(ring, pres.modulus, pres.row_degrees,
                                 pres.columns[:k] + [tuple(col)] + pres.columns[k + 1:])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(), st.data())
def test_quotient_coordinates_match_ring_coordinates(ring_gens, data):
    # Betti tables, Hilbert functions, Nakayama selections and d^2 = 0
    # verdicts of modules over S, over Q and GF(32003)
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _modules_over_s(I, bound):
        assert pres.hilbert_function(bound) == _hilbert_function(pres, bound)
        assert gr.minimal_generators(pres) == _minimal_generators(pres)
        assert (minimal_free_resolution(pres, 3, bound).betti_bigraded()
                == _betti(pres, 3, bound))
        ours, theirs = gr.syzygies(pres, bound), _syzygies(pres, bound)
        for lower in (ours, theirs, _perturbed(ours, data)):
            if lower is not None:
                assert gr.compose_is_zero(pres, lower) == _compose_is_zero(pres, lower)


# -- the sparse slice rows against the dense rows they replaced ------------------


def dense_add_multiple(row, blocks, support, m, c, p):
    """Reference: the former _add_multiple, on a dense row."""
    for i, terms in support:
        offset, table = blocks[i]
        for pm, pc in terms.items():
            pc *= c
            for pos, a in table[monomial_mul(pm, m)]:
                k = offset + pos
                row[k] = (row[k] + pc * a) % p if p else row[k] + pc * a


def tuple_blocks(slices, d):
    """(basis, blocks) of the degree-d slice as the former FreeSlices._slice
    held them, read off Ideal.quotient_slice: blocks[i] is (offset of row i,
    the tuple-keyed table of S_{d - row_degrees[i]})."""
    basis, blocks = [], []
    for i, rd in enumerate(slices.row_degrees):
        mons, table = slices.modulus.quotient_slice(d - rd)
        blocks.append((len(basis), table))
        basis.extend((i, m) for m in mons)
    return basis, blocks


def dense_multiples(slices, vec, monomials, d):
    """Reference: the former FreeSlices.multiples, one dense row per
    monomial."""
    basis, blocks = tuple_blocks(slices, d)
    p = slices.ring.field.p
    support = [(i, poly.terms) for i, poly in enumerate(vec) if poly.terms]
    rows = []
    for m in monomials:
        row = [0] * len(basis)
        dense_add_multiple(row, blocks, support, m, 1, p)
        rows.append(row)
    return rows


def dense_multiply_coords_by_var(slices, coords, d, var):
    """Reference: the former FreeSlices.multiply_coords_by_var, dense."""
    src = tuple_blocks(slices, d)[0]
    basis, blocks = tuple_blocks(slices, d + 1)
    p = slices.ring.field.p
    out = [0] * len(basis)
    for pos, c in enumerate(coords):
        if not c:
            continue
        i, m = src[pos]
        mm = list(m)
        mm[var] += 1
        offset, table = blocks[i]
        for q, a in table[tuple(mm)]:
            k = offset + q
            out[k] = (out[k] + c * a) % p if p else out[k] + c * a
    return out


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals())
def test_sparse_slice_rows_match_the_dense_rows(ring_gens):
    # every multiple m*col of every column, over S and over R, with m over
    # all ring monomials (so that products reduce through the tables), is
    # the dense row written sparsely, with no zero entry; so are its
    # products with each variable, and from_coords inverts coords
    ring, gens = ring_gens
    I = gr.Ideal(ring, gens)
    bound = max(g.homogeneous_degree() for g in I.generators) + 2
    for pres in _modules_over_s(I, bound) + [gr.ideal_as_module(I)]:
        slices = pres.slices()
        for col, cd in zip(pres.columns, pres.col_degrees):
            for d in range(cd, bound + 1):
                mons = ring.monomials_of_degree(d - cd)
                rows = slices.multiples(col, mons, d)
                want = dense_multiples(slices, col, mons, d)
                assert rows == sparse(want) and all(v for r in rows for v in r.values())
                for row, full in zip(rows, want):
                    assert slices.coords(slices.from_coords(row, d), d) == row
                    for var in range(ring.nvars):
                        got = slices.multiply_coords_by_var(row, d, var)
                        assert dense([got], slices.dim(d + 1)) == \
                            [dense_multiply_coords_by_var(slices, full, d, var)]
                        assert all(got.values())


def test_quotient_slice_is_the_rref_complement():
    # S = Q[x, y]/(x^2 - y^2, x*y): S_2 has basis y^2, x^2 = y^2 in S, and
    # x*y = 0; over R the table is the identity
    R = PolyRing(QQ, ["x", "y"])
    I = gr.Ideal(R, [R.from_string("x^2 - y^2"), R.from_string("x*y")])
    basis, table = I.quotient_slice(2)
    assert basis == ((0, 2),)
    assert table == {(2, 0): ((0, 1),), (1, 1): (), (0, 2): ((0, 1),)}
    assert I.quotient_slice(3) == ((), {(3, 0): (), (2, 1): (), (1, 2): (), (0, 3): ()})
    F = gr.FreeSlices(R, [0, 1], I)
    assert F.basis(2) == [(0, (0, 2)), (1, (1, 0)), (1, (0, 1))]
    x, y = R.gens()
    assert F.coords((x * x + x * y, x + y), 2) == {0: 1, 1: 1, 2: 1}
    assert gr.FreeSlices(R, [0]).basis(2) == [(0, m) for m in R.monomials_of_degree(2)]
    # over GF(7), x^2 = -y^2 in S, so 3x^2 + y^2 = -2y^2 = 5y^2
    R7 = PolyRing(GF(7), ["x", "y"])
    F7 = gr.FreeSlices(R7, [0], gr.Ideal(R7, [R7.from_string("x^2 + y^2")]))
    assert F7.coords((R7.from_string("3*x^2 + y^2"),), 2) == {1: 5}
