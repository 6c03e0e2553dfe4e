"""The row-reduction kernel: ``rref_int``, ``indep_int``, ``rref_fp`` and
``indep_fp``, in pure Python.

Rows are sparse: a dict from column index to entry, a missing column being
zero.  Over GF(p) an entry is any int, read mod p; over the integers an int.
The rows met in practice are wide and very sparse (a few percent nonzero),
so a step here touches only nonzero entries, and no row length is needed.

Every output is canonical: the reduced row echelon form (unit pivots over
GF(p); content 1 and a positive pivot over the integers), as dict rows
holding only nonzero entries, and the greedy list of independent row
indices.  None of them depends on the order in which the elimination is
carried out.  The reference is the dense kernel kept in
``tests/test_linalg.py``, which this module must match exactly.

* The echelon is a dict from pivot column to the pivot row.  A new row is
  reduced on a copy: its lead column is taken, and while that column holds
  a pivot a multiple of the pivot row is subtracted, which walks only the
  pivot row's nonzeros; the first lead without a pivot is the row's pivot.
* ``indep_*`` lead with the last nonzero column: rank and the greedy subset
  do not depend on the pivot columns.  ``rref_*`` lead with the first, for
  the canonical RREF, and then run the backward (Jordan) pass from the last
  pivot to the first, clearing a row only at the later pivot columns among
  its own nonzeros.
* Over GF(p) a pivot row is stored without its pivot, which is 1, and with
  entries in [1, p).  Reduction mod p is lazy: an entry is reduced when it
  is read as a multiplier and once more when its row is normalised (Python
  ints cannot overflow).
* Over the integers a step scales the row by a/g (a the pivot, g its gcd
  with the entry to clear) before subtracting; the scaling is left out when
  a/g = 1.

Rational matrices are handled fraction-free: callers scale each row to
integers, the kernel keeps rows as integer vectors with content 1 and
positive pivot, and the caller divides by the pivot afterwards.
"""

from __future__ import annotations

from math import gcd

# -- integers ----------------------------------------------------------------


def _content_one(row, j):
    """``row`` without its zero entries, divided by its content, with a
    positive entry at j."""
    g = gcd(*row.values())
    if row[j] < 0:
        g = -g
    return {k: v // g for k, v in row.items() if v}


def _clear_int(row, srow, j, v):
    """row := (a/g)*row - (v/g)*srow, a = srow[j], g = gcd(a, v), for the
    entry v that ``row`` held at j and no longer holds."""
    a = srow[j]
    g = gcd(a, v)
    ca = a // g
    cb = v // g
    if ca != 1:
        for k in row:
            row[k] *= ca
    for k, w in srow.items():
        if k != j:
            row[k] = row.get(k, 0) - cb * w


def _insert_int(pivots, src, lead):
    """Reduce a copy of ``src`` modulo the pivot map, taking the lead column
    with ``lead`` (min or max).  If a nonzero row is left, add it to the map
    with content 1 and a positive pivot and return True."""
    row = dict(src)
    while row:
        j = lead(row)
        v = row.pop(j)
        if not v:
            continue
        srow = pivots.get(j)
        if srow is None:
            row[j] = v
            pivots[j] = _content_one(row, j)
            return True
        _clear_int(row, srow, j, v)
    return False


def rref_int(rows):
    """Echelonize integer rows (row space over Q).

    Returns (reduced rows sorted by pivot column, pivot columns).  Rows come
    back Jordan-reduced with content 1 and positive pivots; dividing each row
    by its pivot yields the canonical rational RREF.
    """
    pivots = {}
    for src in rows:
        _insert_int(pivots, src, min)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        hits = [k for k in row if k != pc and k in pivots]
        if hits:
            row = dict(row)
            for qc in hits:
                _clear_int(row, pivots[qc], qc, row.pop(qc))
            pivots[pc] = _content_one(row, pc)
    return [pivots[pc] for pc in order], order


def indep_int(d_rows, c_rows):
    """Indices of candidate rows independent modulo span(d_rows), greedily."""
    pivots = {}
    for src in d_rows:
        _insert_int(pivots, src, max)
    return [idx for idx, src in enumerate(c_rows) if _insert_int(pivots, src, max)]


# -- prime field -------------------------------------------------------------


def _insert_fp(pivots, src, p, lead):
    """Reduce a copy of ``src`` modulo the pivot map over GF(p), taking the
    lead column with ``lead`` (min or max).  If a nonzero row is left, add
    it to the map, normalised to pivot 1 (not stored) and entries in
    [1, p), and return True."""
    row = dict(src)
    while row:
        j = lead(row)
        b = row.pop(j) % p
        if not b:
            continue
        srow = pivots.get(j)
        if srow is None:
            inv = pow(b, -1, p)
            pivots[j] = {k: w for k, v in row.items() if (w := v * inv % p)}
            return True
        for k, w in srow.items():
            row[k] = row.get(k, 0) - b * w
    return False


def rref_fp(rows, p):
    """Gauss-Jordan over GF(p).  Input entries are any ints, read mod p;
    returns (rows with unit pivots and entries in [1, p), sorted by pivot
    column, pivot columns)."""
    pivots = {}
    for src in rows:
        _insert_fp(pivots, src, p, min)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        hits = [k for k in row if k in pivots]
        if hits:
            # later rows are reduced already: they are zero at every other
            # pivot column, so the multipliers popped here stay put
            row = dict(row)
            for qc in hits:
                b = row.pop(qc)
                for k, w in pivots[qc].items():
                    row[k] = row.get(k, 0) - b * w
            pivots[pc] = {k: w for k, v in row.items() if (w := v % p)}
    return [{pc: 1, **pivots[pc]} for pc in order], order


def indep_fp(d_rows, c_rows, p):
    """Indices of candidate rows independent modulo span(d_rows) over GF(p),
    greedily."""
    pivots = {}
    for src in d_rows:
        _insert_fp(pivots, src, p, max)
    return [idx for idx, src in enumerate(c_rows) if _insert_fp(pivots, src, p, max)]
