import copy
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bruteforce_kernel

from cikit import _rowred_py, linalg
from cikit.fields import QQ, GF


def frac_rows(rows):
    return [[Fraction(v) for v in r] for r in rows]


def test_rref_canonical():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = linalg.rref(rows, QQ)
    assert pivots == [0, 1]
    assert red == [[1, 0, 1], [0, 1, 1]]


def test_rank_and_nullspace():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(rows, QQ) == 2
    ns = linalg.nullspace(rows, 3, QQ)
    assert len(ns) == 1
    for v in ns:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_fp_rref():
    F = GF(5)
    red, pivots = linalg.rref([[1, 2], [3, 4]], F)
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert linalg.rank([[1, 2], [2, 4]], F) == 1


def test_independent_subset_greedy():
    rows = frac_rows([[1, 0], [0, 1]])
    cands = frac_rows([[1, 1], [1, 2], [0, 5]])
    assert linalg.independent_subset(rows, cands, QQ) == []
    assert linalg.independent_subset([], cands, QQ) == [0, 1]


def test_kernel_matches_bruteforce():
    # {x : sum x_i cols[i] = 0} against the nullspace reference with W = []:
    # no columns, columns of length zero, then random columns over GF(7) and
    # over Q with int, Fraction and mixed rows
    rng = random.Random(3)
    for field in (QQ, GF(7)):
        assert linalg.kernel([], field) == bruteforce_kernel([], [], field) == []
        for ncols in range(1, 4):
            cols = [[] for _ in range(ncols)]
            assert linalg.kernel(cols, field) == bruteforce_kernel(cols, [], field)
    for _ in range(25):
        tdim, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = [[rng.randrange(7) for _ in range(tdim)] for _ in range(ncols)]
        assert linalg.kernel(cols, GF(7)) == bruteforce_kernel(cols, [], GF(7)), cols
    for _ in range(25):
        tdim, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        values = [[Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3])) for _ in range(tdim)]
                  for _ in range(ncols)]
        want = bruteforce_kernel(values, [], QQ)
        as_int = [[canonical(v) for v in col] for col in values]
        mixed = [[v if rng.random() < 0.5 else canonical(v) for v in col] for col in values]
        for cols in (as_int, values, mixed):
            assert linalg.kernel(cols, QQ) == want, cols


# -- the dense kernel, kept as the reference ----------------------------------
# The bodies of the dense row-reduction kernel that the sparse `_rowred_py`
# replaced, verbatim apart from the names.  Every output is canonical, so the
# sparse kernel must match these exactly.


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


@st.composite
def kernel_rows(draw, lo, hi):
    """Rows shaped like the kernel's inputs: small or wide (3 x 80), of a
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


def assert_kernel_matches(kernel, name, args, reference):
    before = copy.deepcopy(args)
    got = getattr(kernel, name)(*args)
    assert got == reference(*copy.deepcopy(args)), (kernel.__name__, name, args)
    assert args == before, f"{kernel.__name__}.{name} mutated its input"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_matches_dense_reference(data):
    bound = data.draw(st.sampled_from([30, 10**12]))
    rows = data.draw(kernel_rows(-bound, bound))
    split = data.draw(st.integers(0, len(rows)))
    assert_kernel_matches(_rowred_py, "rref_int", (rows,), ref_rref_int)
    assert_kernel_matches(_rowred_py, "indep_int", (rows[:split], rows[split:]), ref_indep_int)

    p = data.draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rows = data.draw(kernel_rows(-2 * p - 3, 2 * p + 3))
    split = data.draw(st.integers(0, len(rows)))
    d_rows, c_rows = rows[:split], rows[split:]
    assert_kernel_matches(_rowred_py, "rref_fp", (d_rows + c_rows, p), ref_rref_fp)
    assert_kernel_matches(_rowred_py, "indep_fp", (d_rows, c_rows, p), ref_indep_fp)


def test_linalg_above_2_31_matches_reference():
    F = GF(2147483659)
    p = F.p
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 40)
        rows = [[rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(n)]
                for _ in range(rng.randrange(0, 6))]
        rows += [[(a + 3 * b) % p for a, b in zip(rows[0], rows[-1])]] if rows else []
        red, pivots = linalg.rref(rows, F)
        assert (red, pivots) == ref_rref_fp(rows, p)
        assert linalg.rank(rows, F) == len(pivots)
        assert linalg.independent_subset(rows[:2], rows[2:], F) == \
            ref_indep_fp(rows[:2], rows[2:], p)


def fraction_rref(rows):
    """The all-`Fraction` rational RREF: rows scaled to integers through
    `Fraction`, the kernel's rows divided back by their pivots."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    int_rows = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        int_rows.append([int(Fraction(v) * den) for v in row])
    red, pivots = _rowred_py.rref_int(int_rows)
    return [[Fraction(v, row[pc]) for v in row] for row, pc in zip(red, pivots)], pivots


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
        red, pivots = linalg.rref(rows, QQ)
        assert (red, pivots) == want_rref
        assert all(type(v) is int or v.denominator != 1 for row in red for v in row)
        out = (
            red, pivots,
            linalg.rank(rows, QQ),
            linalg.nullspace(rows, n, QQ),
            linalg.independent_subset(extra, rows, QQ),
            linalg.kernel(rows, QQ),
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
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    for field in (QQ, GF(7), GF(2147483659)):
        linalg.rref(rows, field)
        linalg.rank(rows, field)
        linalg.independent_subset(rows[:1], rows[1:], field)
        linalg.nullspace(rows, 3, field)
        linalg.kernel(rows, field)
        linalg.transpose(rows, 3, field)
    assert seen == KERNEL_CONTRACT
