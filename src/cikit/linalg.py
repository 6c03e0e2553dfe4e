"""Exact dense linear algebra over Q and GF(p).

Six field-aware functions: `rref`, `rank`, `independent_subset`,
`nullspace`, `kernel` and `transpose`.  They reach only the four functions
of the row-reduction kernel `_rowred_py`: ``rref_int``, ``indep_int``,
``rref_fp`` and ``indep_fp``.  There is one kernel.  It is reached through
`_impl`, and `KERNEL` names it; both stay because the benchmark (`cibench`)
reads them, to trace the kernel's calls and to record which kernel ran.
Each eliminates at most once; `kernel` reads its RREF off one `nullspace`.

Over Q a row holds `int` entries where they are integral and `Fraction`
entries elsewhere (see `fields`).  Integral rows reach the integer kernel
unconverted; a row with `Fraction` entries is scaled by the lcm of their
denominators.  `rref` hands back the kernel's integer rows where the pivot
is 1 and divides the rest exactly, so its entries are `int` wherever they
are integral.  No function here returns a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import Field

from . import _rowred_py

_impl = _rowred_py

KERNEL = "python"


def _scale_row_to_int(row):
    """An integer row with the same span: ``row`` itself when every entry is
    an `int`, else ``row`` times the lcm of its denominators."""
    if set(map(type, row)) == {int}:
        return row
    den = lcm(*[v.denominator for v in row])
    return [v.numerator * (den // v.denominator) for v in row]


def rref(rows, field: Field):
    """Canonical reduced row echelon form. Returns (rows, pivot columns)."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    if field.is_rationals:
        int_rows = [_scale_row_to_int(r) for r in rows]
        red, pivots = _impl.rref_int(int_rows)
        out = []
        for row, pc in zip(red, pivots):
            piv = row[pc]
            if piv != 1:
                row = [v // piv if v % piv == 0 else Fraction(v, piv) for v in row]
            out.append(row)
        return out, pivots
    return _impl.rref_fp(rows, field.p)


def rank(rows, field: Field) -> int:
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    if field.is_rationals:
        return len(_impl.indep_int([], [_scale_row_to_int(r) for r in rows]))
    return len(_impl.indep_fp([], rows, field.p))


def independent_subset(d_rows, c_rows, field: Field):
    """Indices of candidate rows that enlarge span(d_rows), greedily in order."""
    if not c_rows:
        return []
    if field.is_rationals:
        return _impl.indep_int(
            [_scale_row_to_int(r) for r in d_rows],
            [_scale_row_to_int(r) for r in c_rows],
        )
    return _impl.indep_fp(d_rows, c_rows, field.p)


def nullspace(rows, ncols: int, field: Field):
    """Basis of {x : M x = 0} for the matrix M with the given rows.

    The basis is canonical: one vector per free column of the RREF, ordered
    by free column index.
    """
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    zero = field.zero()
    one = field.one()
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][f])
        basis.append(vec)
    return basis


def kernel(cols, field: Field):
    """Canonical basis (RREF) of {x : sum_i x_i * cols[i] = 0}, from one
    elimination.  With the columns reversed, the nullspace vector of free
    column f has its 1 at f and its other entries at pivot columns left of
    f, and every other vector is 0 at f.  So each vector read backwards
    leads with a 1 where the rest are 0, and reversing the list sorts the
    leads: that is the unique RREF.

    ``cols`` are vectors of one length.  Slices of modules over S = R/I
    are taken in the quotient coordinates of
    :class:`cikit.groebner.FreeSlices`, where I*F is zero, so a kernel
    there needs no subspace to divide by.
    """
    if not cols:
        return []
    rows = [r for r in transpose(cols[::-1], len(cols[0]), field) if any(r)]
    return [v[::-1] for v in reversed(nullspace(rows, len(cols), field))]


def transpose(rows, ncols: int, field: Field):
    if not rows:
        return [[] for _ in range(ncols)]
    zero = field.zero()
    out = [[zero] * len(rows) for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                out[j][i] = v
    return out

