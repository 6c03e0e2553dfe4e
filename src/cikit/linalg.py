"""Exact sparse linear algebra over Q and GF(p).

A row (or vector) is a dict from column index to entry; a missing column is
zero, and the rows built in this package hold no zero entry.

Four field-aware functions: `rref`, `rank`, `independent_subset` and
`kernel`.  They reach only the six functions of the row-reduction kernel
`_rowred_py`: ``rref_int``, ``indep_int``, ``kernel_int``, ``rref_fp``,
``indep_fp`` and ``kernel_fp``.  There is one kernel.  It is reached
through `_impl`, and `KERNEL` names it; both stay because the benchmark
(`cibench`) reads them, to trace the kernel's calls and to record which
kernel ran.  Each eliminates at most once; `kernel` runs one forward
elimination, with no transpose and no backward pass.

Over Q an entry is an `int` where it is integral and a `Fraction`
elsewhere (see `fields`).  Integral rows reach the integer kernel
unconverted; a row with `Fraction` entries is scaled by the lcm of their
denominators.  The kernel only reads the rows it is given: it may keep
one as it stands as a pivot row, and normalises it the first time it
clears an entry (see `_rowred_py`), so a caller's row is never changed
and never handed back.  `rref` and `kernel` hand back the kernel's integer
rows and vectors where the pivot is 1 and divide the rest exactly, so
their entries are `int` wherever they are integral.  No function here
returns a float.
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


def kernel(rows, field: Field):
    """Canonical basis (RREF) of {x : sum_k x_k * rows[k] = 0}, from one
    forward elimination of the rows from last to first, which keeps the
    rows that do not depend on the rows after them.  Row k that does gives
    the vector with 1 at k and, at the kept rows after it, the one
    expression of -rows[k] in them; every other vector is 0 at k.  The
    vectors come in increasing k, each with its 1 first and its other
    entries in decreasing index.

    Slices of modules over S = R/I are taken in the quotient coordinates
    of :class:`cikit.groebner.FreeSlices`, where I*F is zero, so a kernel
    there needs no subspace to divide by.
    """
    if not rows:
        return []
    if not field.is_rationals:
        return _impl.kernel_fp(rows, field.p)
    int_rows = [_scale_row_to_int(r) for r in rows]
    # the combinations are of the integer rows: a row that was scaled puts
    # its factor into the entry it gets
    scales = {k: lcm(*[v.denominator for v in r.values()])
              for k, (r, s) in enumerate(zip(rows, int_rows)) if s is not r}
    out = []
    for vec in _impl.kernel_int(int_rows):
        if scales:
            vec = {j: v * scales.get(j, 1) for j, v in vec.items()}
        piv = next(iter(vec.values()))
        if piv != 1:
            vec = {j: v // piv if v % piv == 0 else Fraction(v, piv) for j, v in vec.items()}
        out.append(vec)
    return out
