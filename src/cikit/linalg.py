"""Exact sparse linear algebra over Q and GF(p).

A row (or vector) is a dict from column index to entry; a missing column is
zero, and the rows built in this package hold no zero entry.

Six field-aware functions: `rref`, `rank`, `independent_subset`,
`nullspace`, `kernel` and `transpose`.  They reach only the four functions
of the row-reduction kernel `_rowred_py`: ``rref_int``, ``indep_int``,
``rref_fp`` and ``indep_fp``.  There is one kernel.  It is reached through
`_impl`, and `KERNEL` names it; both stay because the benchmark (`cibench`)
reads them, to trace the kernel's calls and to record which kernel ran.
Each eliminates at most once; `kernel` reads its RREF off one `nullspace`.

Over Q an entry is an `int` where it is integral and a `Fraction`
elsewhere (see `fields`).  Integral rows reach the integer kernel
unconverted; a row with `Fraction` entries is scaled by the lcm of their
denominators.  The kernel only reads the rows it is given: it may keep
one as it stands as a pivot row, and normalises it the first time it
clears an entry (see `_rowred_py`), so a caller's row is never changed
and never handed back.  `rref` hands back the kernel's integer rows where
the pivot is 1 and divides the rest exactly, so its entries are `int`
wherever they are integral.  No function here returns a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import Field

from . import _rowred_py

_impl = _rowred_py

KERNEL = "python"


def _scale_row_to_int(row):
    """An integer row (a dict) with the same span: ``row`` itself when
    every entry is an `int`, else ``row`` times the lcm of its
    denominators."""
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return row
    den = lcm(*[v.denominator for v in row.values()])
    return {k: v.numerator * (den // v.denominator) for k, v in row.items()}


def rref(rows, field: Field):
    """Canonical reduced row echelon form. Returns (rows, pivot columns)."""
    rows = [r for r in rows if r]
    if not rows:
        return [], []
    if field.is_rationals:
        red, pivots = _impl.rref_int([_scale_row_to_int(r) for r in rows])
        out = []
        for row, pc in zip(red, pivots):
            piv = row[pc]
            if piv != 1:
                row = {k: v // piv if v % piv == 0 else Fraction(v, piv) for k, v in row.items()}
            out.append(row)
        return out, pivots
    return _impl.rref_fp(rows, field.p)


def rank(rows, field: Field) -> int:
    return len(independent_subset([], [r for r in rows if r], field))


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
    """Basis of {x : M x = 0} for the matrix M with the given rows and
    ``ncols`` columns.

    The basis is canonical: one vector per free column of the RREF, ordered
    by free column index.
    """
    red, pivots = rref(rows, field)
    entries = {}  # free column -> {pivot column: entry}
    for row, pc in zip(red, pivots):
        for k, v in row.items():
            if k != pc:
                entries.setdefault(k, {})[pc] = field.neg(v)
    pivot_set = set(pivots)
    return [{f: 1, **entries.get(f, {})} for f in range(ncols) if f not in pivot_set]


def kernel(cols, field: Field):
    """Canonical basis (RREF) of {x : sum_i x_i * cols[i] = 0}, from one
    elimination.  With the columns reversed, the nullspace vector of free
    column f has its 1 at f and its other entries at pivot columns left of
    f, and every other vector is 0 at f.  So each vector read backwards
    leads with a 1 where the rest are 0, and reversing the list sorts the
    leads: that is the unique RREF.

    Slices of modules over S = R/I are taken in the quotient coordinates
    of :class:`cikit.groebner.FreeSlices`, where I*F is zero, so a kernel
    there needs no subspace to divide by.
    """
    if not cols:
        return []
    n = len(cols)
    height = 1 + max(map(max, filter(None, cols)), default=-1)
    rows = transpose(cols[::-1], height)
    return [{n - 1 - k: v for k, v in vec.items()}
            for vec in reversed(nullspace(rows, n, field))]


def transpose(rows, ncols: int):
    """The ``ncols`` columns of the matrix with these rows, as rows."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out
