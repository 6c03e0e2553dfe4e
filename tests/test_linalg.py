import copy
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bruteforce_kernel, dense, sparse

from cikit import _rowred_py, linalg
from cikit.fields import QQ, GF


def frac_rows(rows):
    return [[Fraction(v) for v in r] for r in rows]


def test_rref_canonical():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = linalg.rref(sparse(rows), QQ)
    assert pivots == [0, 1]
    assert dense(red, 3) == [[1, 0, 1], [0, 1, 1]]


def test_rank_and_nullspace():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(sparse(rows), QQ) == 2
    ns = dense(linalg.nullspace(sparse(rows), 3, QQ), 3)
    assert len(ns) == 1
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_fp_rref():
    F = GF(5)
    red, pivots = linalg.rref(sparse([[1, 2], [3, 4]]), F)
    assert dense(red, 2) == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert linalg.rank(sparse([[1, 2], [2, 4]]), F) == 1


def test_independent_subset_greedy():
    rows = sparse(frac_rows([[1, 0], [0, 1]]))
    cands = sparse(frac_rows([[1, 1], [1, 2], [0, 5]]))
    assert linalg.independent_subset(rows, cands, QQ) == []
    assert linalg.independent_subset([], cands, QQ) == [0, 1]


def sparse_columns(rng, field_values, ncols, tdim):
    """Up to ``ncols`` sparse columns of length ``tdim``: random ones of a
    random density, with zero columns and repeats (copies or multiples of
    earlier columns) mixed in."""
    density = rng.choice([0.1, 0.3, 0.6])
    cols = []
    for _ in range(ncols):
        kind = rng.choice(["random", "random", "zero", "repeat"])
        if kind == "zero":
            cols.append([0] * tdim)
        elif kind == "repeat" and cols:
            c = rng.choice([1, 1, 2, -3])
            cols.append([c * v for v in rng.choice(cols)])
        else:
            cols.append([field_values() if rng.random() < density else 0 for _ in range(tdim)])
    return cols


def test_kernel_matches_bruteforce():
    # {x : sum x_i cols[i] = 0} against the nullspace reference with W = []:
    # no columns, columns of length zero, then random columns over GF(7) and
    # over Q with int, Fraction and mixed rows
    def kernel(cols, field):
        return dense(linalg.kernel(sparse(cols), field), len(cols))

    rng = random.Random(3)
    for field in (QQ, GF(7)):
        assert kernel([], field) == bruteforce_kernel([], [], field) == []
        for ncols in range(1, 4):
            cols = [[] for _ in range(ncols)]
            assert kernel(cols, field) == bruteforce_kernel(cols, [], field)
    for _ in range(25):
        tdim, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = [[rng.randrange(7) for _ in range(tdim)] for _ in range(ncols)]
        assert kernel(cols, GF(7)) == bruteforce_kernel(cols, [], GF(7)), cols
    for _ in range(25):
        tdim, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        values = [[Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3])) for _ in range(tdim)]
                  for _ in range(ncols)]
        want = bruteforce_kernel(values, [], QQ)
        as_int = [[canonical(v) for v in col] for col in values]
        mixed = [[v if rng.random() < 0.5 else canonical(v) for v in col] for col in values]
        for cols in (as_int, values, mixed):
            assert kernel(cols, QQ) == want, cols
    # wide sparse draws: up to 12 columns with zero and repeated ones, so
    # that free columns fall anywhere, over GF(7), GF(32003), GF(2^31 - 1)
    # and Q; the Q results keep `int` wherever they are integral
    rng = random.Random(20)
    for field in (GF(7), GF(32003), GF(2**31 - 1)):
        p = field.p
        for _ in range(60):
            cols = sparse_columns(rng, lambda: rng.randrange(1, p), rng.randrange(1, 13),
                                  rng.randrange(1, 9))
            cols = [[v % p for v in col] for col in cols]
            assert kernel(cols, field) == bruteforce_kernel(cols, [], field), cols

    def q_value():
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.choice([1, 1, 2, 3, 7]))

    for _ in range(60):
        values = sparse_columns(rng, q_value, rng.randrange(1, 13), rng.randrange(1, 9))
        values = [[Fraction(v) for v in col] for col in values]
        want = bruteforce_kernel(values, [], QQ)
        as_int = [[canonical(v) for v in col] for col in values]
        mixed = [[v if rng.random() < 0.5 else canonical(v) for v in col] for col in values]
        for cols in (as_int, values, mixed):
            got = kernel(cols, QQ)
            assert got == want, cols
            assert all(type(v) is int or v.denominator != 1 for row in got for v in row)


# -- the dense kernel and linalg, kept as the reference --------------------------
# The bodies of the dense row-reduction kernel and of the dense `linalg`
# functions that the sparse ones replaced, verbatim apart from the names.
# Every output is canonical, so the sparse path must match these exactly,
# once its rows are written out densely.


def ref_first_nonzero(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


def ref_strip_row_int(row):
    """Divide by the content and make the leading entry positive."""
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
    if g > 1:
        for j, v in enumerate(row):
            row[j] = v // g
    piv = ref_first_nonzero(row)
    if piv is not None and row[piv] < 0:
        for j, v in enumerate(row):
            row[j] = -v
    return piv


def ref_combine_int(row, prow, pc):
    """row := (a/g)*row - (b/g)*prow so that row[pc] becomes 0."""
    a = prow[pc]
    b = row[pc]
    g = gcd(a, b)
    ca = a // g
    cb = b // g
    for j in range(len(row)):
        row[j] = ca * row[j] - cb * prow[j]


def ref_rref_int(rows):
    echelon = []  # (pivot col, row), kept sorted by pivot col
    for src in rows:
        row = list(src)
        for pc, prow in echelon:
            if row[pc]:
                ref_combine_int(row, prow, pc)
        piv = ref_strip_row_int(row)
        if piv is None:
            continue
        echelon.append((piv, row))
        echelon.sort(key=lambda t: t[0])
    # backward (Jordan) pass
    for i in range(len(echelon) - 1, -1, -1):
        pc, row = echelon[i]
        for j in range(i + 1, len(echelon)):
            qc, qrow = echelon[j]
            if row[qc]:
                ref_combine_int(row, qrow, qc)
        ref_strip_row_int(row)
    return [row for _, row in echelon], [pc for pc, _ in echelon]


def ref_indep_int(d_rows, c_rows):
    echelon = []
    for src in d_rows:
        ref_indep_add_int(echelon, list(src))
    selected = []
    for idx, src in enumerate(c_rows):
        if ref_indep_add_int(echelon, list(src)):
            selected.append(idx)
    return selected


def ref_indep_add_int(echelon, row):
    for pc, prow in echelon:
        if row[pc]:
            ref_combine_int(row, prow, pc)
    piv = ref_strip_row_int(row)
    if piv is None:
        return False
    echelon.append((piv, row))
    echelon.sort(key=lambda t: t[0])
    return True


def ref_rref_fp(rows, p):
    echelon = []
    for src in rows:
        row = [v % p for v in src]
        piv = ref_fp_reduce(echelon, row, p)
        if piv is None:
            continue
        echelon.append((piv, row))
        echelon.sort(key=lambda t: t[0])
    for i in range(len(echelon) - 1, -1, -1):
        pc, row = echelon[i]
        for j in range(i + 1, len(echelon)):
            qc, qrow = echelon[j]
            b = row[qc]
            if b:
                for k in range(qc, len(row)):
                    row[k] = (row[k] - b * qrow[k]) % p
    return [row for _, row in echelon], [pc for pc, _ in echelon]


def ref_fp_reduce(echelon, row, p):
    """Reduce row against normalized echelon rows; normalize if nonzero."""
    for pc, prow in echelon:
        b = row[pc]
        if b:
            for k in range(pc, len(row)):
                row[k] = (row[k] - b * prow[k]) % p
    piv = ref_first_nonzero(row)
    if piv is None:
        return None
    inv = pow(row[piv], p - 2, p)
    for k in range(piv, len(row)):
        row[k] = (row[k] * inv) % p
    return piv


def ref_indep_fp(d_rows, c_rows, p):
    echelon = []
    for src in d_rows:
        row = [v % p for v in src]
        piv = ref_fp_reduce(echelon, row, p)
        if piv is not None:
            echelon.append((piv, row))
            echelon.sort(key=lambda t: t[0])
    selected = []
    for idx, src in enumerate(c_rows):
        row = [v % p for v in src]
        piv = ref_fp_reduce(echelon, row, p)
        if piv is not None:
            echelon.append((piv, row))
            echelon.sort(key=lambda t: t[0])
            selected.append(idx)
    return selected


def ref_scale_row_to_int(row):
    if set(map(type, row)) == {int}:
        return row
    den = lcm(*[v.denominator for v in row])
    return [v.numerator * (den // v.denominator) for v in row]


def ref_rref(rows, field):
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    if field.is_rationals:
        int_rows = [ref_scale_row_to_int(r) for r in rows]
        red, pivots = ref_rref_int(int_rows)
        out = []
        for row, pc in zip(red, pivots):
            piv = row[pc]
            if piv != 1:
                row = [v // piv if v % piv == 0 else Fraction(v, piv) for v in row]
            out.append(row)
        return out, pivots
    return ref_rref_fp(rows, field.p)


def ref_rank(rows, field):
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    if field.is_rationals:
        return len(ref_indep_int([], [ref_scale_row_to_int(r) for r in rows]))
    return len(ref_indep_fp([], rows, field.p))


def ref_independent_subset(d_rows, c_rows, field):
    if not c_rows:
        return []
    if field.is_rationals:
        return ref_indep_int(
            [ref_scale_row_to_int(r) for r in d_rows],
            [ref_scale_row_to_int(r) for r in c_rows],
        )
    return ref_indep_fp(d_rows, c_rows, field.p)


def ref_nullspace(rows, ncols, field):
    red, pivots = ref_rref(rows, field)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][f])
        basis.append(vec)
    return basis


def ref_kernel(cols, field):
    if not cols:
        return []
    rows = [r for r in ref_transpose(cols[::-1], len(cols[0]), field) if any(r)]
    return [v[::-1] for v in reversed(ref_nullspace(rows, len(cols), field))]


def ref_transpose(rows, ncols, field):
    if not rows:
        return [[] for _ in range(ncols)]
    out = [[0] * len(rows) for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                out[j][i] = v
    return out


# -- the sparse path against the dense reference ---------------------------------


@st.composite
def kernel_rows(draw, lo, hi):
    """Dense rows shaped like the kernel's inputs: small or wide (3 x 80), of a
    density from 0 to 1 (the corpus runs at about 3%), with all-zero rows and
    integer combinations of earlier rows mixed in, so that elimination
    cancels exactly and, over GF(p), leaves multiples of p."""
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 3)), 80
    else:
        m, n = draw(st.integers(0, 7)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.6, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            a, b = rnd.choice(rows), rnd.choice(rows)
            ca, cb = rnd.randint(lo, hi), rnd.randint(lo, hi)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append([rnd.randint(lo, hi) if rnd.random() < density else 0 for _ in range(n)])
    return rows


def assert_kernel_matches(name, args, reference, ncols):
    """The kernel function on the sparse form of the dense ``args`` (lists of
    rows, and p) against the reference on the dense ones; an rref's rows are
    compared written out densely."""
    sparse_args = [sparse(a) if isinstance(a, list) else a for a in args]
    before = copy.deepcopy(sparse_args)
    got = getattr(_rowred_py, name)(*sparse_args)
    if name.startswith("rref"):
        got = (dense(got[0], ncols), got[1])
    assert got == reference(*copy.deepcopy(args)), (name, args)
    assert sparse_args == before, f"{name} mutated its input"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_matches_dense_reference(data):
    bound = data.draw(st.sampled_from([30, 10**12]))
    rows = data.draw(kernel_rows(-bound, bound))
    n = len(rows[0]) if rows else 0
    split = data.draw(st.integers(0, len(rows)))
    assert_kernel_matches("rref_int", (rows,), ref_rref_int, n)
    assert_kernel_matches("indep_int", (rows[:split], rows[split:]), ref_indep_int, n)

    p = data.draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rows = data.draw(kernel_rows(-2 * p - 3, 2 * p + 3))
    n = len(rows[0]) if rows else 0
    split = data.draw(st.integers(0, len(rows)))
    d_rows, c_rows = rows[:split], rows[split:]
    assert_kernel_matches("rref_fp", (d_rows + c_rows, p), ref_rref_fp, n)
    assert_kernel_matches("indep_fp", (d_rows, c_rows, p), ref_indep_fp, n)


# -- raw pivot rows: kept as they come, normalised before they first clear -------


def explicit_zeros(rows, rnd, zeros):
    """The dense ``rows`` as dict rows that also hold some of their zero
    entries, each drawn from ``zeros``: one just outside each end of a row's
    nonzero span, so that its first and its last column read zero, and
    others at random."""
    out = []
    for row in rows:
        sparse_row = {j: v for j, v in enumerate(row) if v}
        ends = {min(sparse_row, default=0) - 1, max(sparse_row, default=len(row) - 1) + 1}
        for j, v in enumerate(row):
            if not v and (j in ends or rnd.random() < 0.3):
                sparse_row[j] = rnd.choice(zeros)
        out.append(sparse_row)
    return out


def scaled(rows, rnd):
    """Each dense row times a factor in [-6, 6] other than 0 and 1: rows
    with content above 1 and, half of the time, a negative lead."""
    return [[c * v for v in row] for row in rows
            for c in [rnd.choice([-6, -4, -3, -2, -1, 2, 3, 4, 6])]]


def assert_kernel_reads_rows(name, args, dense_args, reference, ncols):
    """The kernel function on dict rows ``args`` against the reference on
    ``dense_args``, the same rows written out densely.  An rref's rows hold
    no zero entry and none of them is an input row; no input is changed."""
    before = copy.deepcopy(args)
    got = getattr(_rowred_py, name)(*args)
    if name.startswith("rref"):
        inputs = [row for a in args if isinstance(a, list) for row in a]
        assert not any(out is row for out in got[0] for row in inputs), name
        assert all(v for out in got[0] for v in out.values()), name
        got = (dense(got[0], ncols), got[1])
    assert got == reference(*copy.deepcopy(dense_args)), (name, args)
    assert args == before, f"{name} mutated its input"


def assert_all_kernels(rows, split, p, make_rows):
    """All four kernel functions on ``make_rows`` of the dense ``rows``,
    split into spanning and candidate rows at ``split``."""
    n = len(rows[0]) if rows else 0
    d_rows, c_rows = rows[:split], rows[split:]
    sd, sc = make_rows(d_rows), make_rows(c_rows)
    assert_kernel_reads_rows("rref_int", (sd + sc,), (rows,), ref_rref_int, n)
    assert_kernel_reads_rows("indep_int", (sd, sc), (d_rows, c_rows), ref_indep_int, n)
    assert_kernel_reads_rows("rref_fp", (sd + sc, p), (rows, p), ref_rref_fp, n)
    assert_kernel_reads_rows("indep_fp", (sd, sc, p), (d_rows, c_rows, p), ref_indep_fp, n)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_reads_explicit_zero_entries(data):
    # zero entries in the rows, also at the lead column of either end (and
    # over GF(p) multiples of p there) give the reference's results
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    rows = data.draw(kernel_rows(-30, 30))
    split = data.draw(st.integers(0, len(rows)))
    p = data.draw(st.sampled_from([2, 3, 32003]))
    assert_all_kernels(rows, split, p, lambda rs: explicit_zeros(rs, rnd, [0]))
    n = len(rows[0]) if rows else 0
    for name, args, dense_args, reference in [
        ("rref_fp", (explicit_zeros(rows, rnd, [0, p, -p, 3 * p]), p), (rows, p), ref_rref_fp),
        ("indep_fp", ([], explicit_zeros(rows, rnd, [p, -2 * p]), p), ([], rows, p),
         ref_indep_fp),
    ]:
        assert_kernel_reads_rows(name, args, dense_args, reference, n)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_reads_rows_with_content_and_negative_leads(data):
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    rows = scaled(data.draw(kernel_rows(-30, 30)), rnd)
    split = data.draw(st.integers(0, len(rows)))
    p = data.draw(st.sampled_from([2, 3, 32003]))
    assert_all_kernels(rows, split, p, sparse)


def test_rref_hands_back_no_input_row():
    # rows that are already in normal form come back equal, as new dicts
    for rows in ([{0: 1, 2: 3}], [{0: 1}, {1: 2, 3: 1}], [{1: 1}, {0: 1, 1: 5}]):
        red, _ = _rowred_py.rref_int(rows)
        assert not any(out is row for out in red for row in rows)
        red, _ = _rowred_py.rref_fp(rows, 7)
        assert not any(out is row for out in red for row in rows)
        for field in (QQ, GF(7)):
            red, _ = linalg.rref(rows, field)
            assert not any(out is row for out in red for row in rows)


def test_pivot_rows_clear_only_in_normal_form(monkeypatch):
    # the guard against coefficient growth: every pivot row that clears an
    # entry is normalised first, with content 1 and a positive pivot over
    # the integers, and with pivot 1 (not stored) and its entries in [1, p)
    # over GF(p), also when the rows come with content, negative leads and
    # entries outside [0, p); no input row ever clears
    inputs, clears = [], []
    clear_int, clear_fp = _rowred_py._clear_int, _rowred_py._clear_fp

    def checked_int(row, srow, j, v):
        assert srow[j] > 0 and gcd(*srow.values()) == 1 and all(srow.values()), srow
        assert not any(srow is src for src in inputs)
        clears.append("int")
        clear_int(row, srow, j, v)

    def checked_fp(row, srow, b):
        assert 0 < b < p and all(0 < w < p for w in srow.values()), srow
        assert not any(srow is src for src in inputs)
        clears.append("fp")
        clear_fp(row, srow, b)

    monkeypatch.setattr(_rowred_py, "_clear_int", checked_int)
    monkeypatch.setattr(_rowred_py, "_clear_fp", checked_fp)
    rnd = random.Random(32)
    for _ in range(40):
        n = rnd.randrange(2, 10)
        rows = [[rnd.randint(-9, 9) if rnd.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(rnd.randrange(2, 8))]
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
        rows = scaled(rows, rnd)
        p = rnd.choice([3, 7, 32003])
        inputs[:] = sparse(rows)
        red, pivots = _rowred_py.rref_int(inputs)
        assert (dense(red, n), pivots) == ref_rref_int(rows)
        assert _rowred_py.indep_int(inputs[:2], inputs[2:]) == ref_indep_int(rows[:2], rows[2:])
        inputs[:] = [{j: v + rnd.choice([p, -p, 5 * p]) for j, v in row.items()}
                     for row in inputs]
        red, pivots = _rowred_py.rref_fp(inputs, p)
        assert (dense(red, n), pivots) == ref_rref_fp(rows, p)
        assert _rowred_py.indep_fp(inputs[:2], inputs[2:], p) == \
            ref_indep_fp(rows[:2], rows[2:], p)
    assert clears.count("int") > 100 and clears.count("fp") > 100


def test_linalg_above_2_31_matches_reference():
    F = GF(2147483659)
    p = F.p
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 40)
        rows = [[rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(n)]
                for _ in range(rng.randrange(0, 6))]
        rows += [[(a + 3 * b) % p for a, b in zip(rows[0], rows[-1])]] if rows else []
        red, pivots = linalg.rref(sparse(rows), F)
        assert (dense(red, n), pivots) == ref_rref_fp(rows, p)
        assert linalg.rank(sparse(rows), F) == len(pivots)
        assert linalg.independent_subset(sparse(rows[:2]), sparse(rows[2:]), F) == \
            ref_indep_fp(rows[:2], rows[2:], p)


@st.composite
def slice_matrices(draw, entry):
    """(dense rows, column count) shaped like the slice matrices: wide and
    sparse (up to 12 x 160 at 1-10% nonzero), block-diagonal under a random
    column permutation, or small and of any density; then zero rows, copies
    and multiples of earlier rows are put in at random places.  ``entry``
    draws one nonzero entry from a `random.Random`."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["wide", "blocks", "small"]))
    if shape == "blocks":
        sizes = [(rnd.randint(1, 4), rnd.randint(1, 5)) for _ in range(draw(st.integers(1, 5)))]
        n = sum(c for _, c in sizes)
        rows, offset = [], 0
        for height, width in sizes:
            for _ in range(height):
                row = [0] * n
                for j in range(offset, offset + width):
                    if rnd.random() < 0.6:
                        row[j] = entry(rnd)
                rows.append(row)
            offset += width
        perm = rnd.sample(range(n), n)
        rows = [[row[perm[j]] for j in range(n)] for row in rows]
    else:
        if shape == "wide":
            m, n = draw(st.integers(0, 12)), draw(st.integers(40, 160))
            density = draw(st.sampled_from([0.01, 0.03, 0.1]))
        else:
            m, n = draw(st.integers(0, 7)), draw(st.integers(1, 12))
            density = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
        rows = [[entry(rnd) if rnd.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        kind = rnd.choice(["zero", "copy", "multiple"])
        if kind == "zero" or not rows:
            new = [0] * n
        else:
            c = 1 if kind == "copy" else rnd.choice([-1, 2, 3])
            new = [c * v for v in rnd.choice(rows)]
        rows.insert(rnd.randint(0, len(rows)), new)
    return rows, n


def assert_linalg_matches(rows, n, extra, field):
    """Each of the six `linalg` functions on the sparse form of the dense
    ``rows`` (n columns) against its dense reference; ``extra`` rows span
    the subspace of `independent_subset`."""
    sp = sparse(rows)
    red, pivots = linalg.rref(sp, field)
    assert (dense(red, n), pivots) == ref_rref(rows, field)
    assert all(red_row[pc] == 1 for red_row, pc in zip(red, pivots))
    assert linalg.rank(sp, field) == ref_rank(rows, field)
    assert linalg.independent_subset(sparse(extra), sp, field) == \
        ref_independent_subset(extra, rows, field)
    assert dense(linalg.nullspace(sp, n, field), n) == ref_nullspace(rows, n, field)
    assert dense(linalg.kernel(sp, field), len(rows)) == ref_kernel(rows, field)
    assert linalg.transpose(sp, n) == sparse(ref_transpose(rows, n, field))
    # no zero entry is handed back
    for out in (red, linalg.nullspace(sp, n, field), linalg.kernel(sp, field)):
        assert all(v for row in out for v in row.values())


PRIMES = [3, 32003, 2147483587, 2147483629, 2147483647, 2147483659]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_linalg_matches_dense_reference_over_gf_p(data):
    # entries anywhere in [-2p - 3, 2p + 3], so some are negative, some
    # above p and some multiples of p, which read as zero
    p = data.draw(st.sampled_from(PRIMES))
    field = GF(p)
    rows, n = data.draw(slice_matrices(lambda rnd: rnd.choice(
        [rnd.randint(-2 * p - 3, 2 * p + 3), rnd.randint(1, 3), p])))
    extra, _ = data.draw(slice_matrices(lambda rnd: rnd.randrange(1, p)))
    extra = [(row + [0] * n)[:n] for row in extra]
    assert_linalg_matches(rows, n, extra, field)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linalg_matches_dense_reference_over_q(data):
    # one rational matrix as `int` where integral and `Fraction` elsewhere,
    # as all `Fraction`, and with integral entries mixed; all three give the
    # reference's results, and none a float
    def entry(rnd):
        return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.choice([1, 1, 2, 3, 7]))

    values, n = data.draw(slice_matrices(entry))
    extra, _ = data.draw(slice_matrices(lambda rnd: rnd.randint(1, 5)))
    extra = [(row + [0] * n)[:n] for row in extra]
    as_int = [[canonical(Fraction(v)) for v in row] for row in values]
    mixed = [[v if data.draw(st.booleans()) else canonical(Fraction(v)) for v in row]
             for row in values]
    for rows in (as_int, values, mixed):
        assert_linalg_matches(rows, n, extra, QQ)
        red, _ = linalg.rref(sparse(rows), QQ)
        assert all(type(v) is int or v.denominator != 1 for row in red for v in row.values())
        assert_no_float([list(row.values()) for row in linalg.kernel(sparse(rows), QQ)])


def fraction_rref(rows):
    """The all-`Fraction` rational RREF of dense rows: rows scaled to
    integers through `Fraction`, the kernel's rows divided back by their
    pivots, written out densely."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    n = len(rows[0])
    int_rows = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        int_rows.append([int(Fraction(v) * den) for v in row])
    red, pivots = _rowred_py.rref_int(sparse(int_rows))
    red = [{k: Fraction(v, row[pc]) for k, v in row.items()} for row, pc in zip(red, pivots)]
    return dense(red, n), pivots


def assert_no_float(value):
    if isinstance(value, (list, tuple)):
        for v in value:
            assert_no_float(v)
    else:
        assert not isinstance(value, float), value


def canonical(v):
    return v.numerator if v.denominator == 1 else v


q_entries = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4))


@st.composite
def q_matrix_forms(draw, nrows, ncols):
    """One rational matrix in three forms: `int` where integral and
    `Fraction` elsewhere, all `Fraction`, and integral entries mixed."""
    entries = st.integers(-4, 4) if draw(st.booleans()) else q_entries
    values = [[Fraction(draw(entries)) for _ in range(ncols)] for _ in range(nrows)]
    as_int = [[canonical(v) for v in row] for row in values]
    mixed = [[v if draw(st.booleans()) else canonical(v) for v in row] for row in values]
    return as_int, values, mixed


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_q_rows_give_equal_results_as_int_fraction_or_mixed(data):
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    forms = data.draw(q_matrix_forms(m, n))
    others = data.draw(q_matrix_forms(data.draw(st.integers(0, 3)), n))
    want_rref = fraction_rref(forms[1])
    results = []
    for rows, extra in zip(forms, others):
        rows, extra = sparse(rows), sparse(extra)
        red, pivots = linalg.rref(rows, QQ)
        assert (dense(red, n), pivots) == want_rref
        assert all(type(v) is int or v.denominator != 1 for row in red for v in row.values())
        out = (
            dense(red, n), pivots,
            linalg.rank(rows, QQ),
            dense(linalg.nullspace(rows, n, QQ), n),
            linalg.independent_subset(extra, rows, QQ),
            dense(linalg.kernel(rows, QQ), m),
        )
        assert_no_float(out)
        results.append(out)
    assert results[0] == results[1] == results[2]


KERNEL_CONTRACT = {"rref_int", "indep_int", "rref_fp", "indep_fp"}


def public_functions(module):
    return {a for a, o in vars(module).items()
            if callable(o) and not a.startswith("_")
            and getattr(o, "__module__", None) == module.__name__}


class _RecordingKernel:
    """A kernel module that records the names looked up on it."""

    def __init__(self, module, seen):
        self._module = module
        self._seen = seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._module, name)


def test_kernel_contract(monkeypatch):
    # the kernel defines exactly four functions; cibench's tracer looks each
    # name up on linalg._impl and records linalg.KERNEL, and linalg reaches
    # no other kernel name
    assert public_functions(_rowred_py) == KERNEL_CONTRACT
    assert linalg._impl is _rowred_py and linalg.KERNEL == "python"
    assert public_functions(linalg) == {
        "rref", "rank", "independent_subset", "nullspace", "kernel", "transpose"}
    seen = set()
    monkeypatch.setattr(linalg, "_impl", _RecordingKernel(linalg._impl, seen))
    rows = sparse([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    for field in (QQ, GF(7), GF(2147483659)):
        linalg.rref(rows, field)
        linalg.rank(rows, field)
        linalg.independent_subset(rows[:1], rows[1:], field)
        linalg.nullspace(rows, 3, field)
        linalg.kernel(rows, field)
        linalg.transpose(rows, 3)
    assert seen == KERNEL_CONTRACT
