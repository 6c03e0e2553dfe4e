"""The row-reduction kernel: ``rref_int``, ``indep_int``, ``kernel_int``,
``rref_fp``, ``indep_fp`` and ``kernel_fp``, in pure Python.

Rows are sparse: a dict from column index to entry, a missing column being
zero.  Over GF(p) an entry is any int, read mod p; over the integers an int.
An entry may be zero (over GF(p), a multiple of p), which reads as missing.
The rows met in practice are wide and very sparse (a few percent nonzero),
so a step here touches only nonzero entries, and no row length is needed.

Every output is canonical: the reduced row echelon form (unit pivots over
GF(p); content 1 and a positive pivot over the integers), as dict rows
holding only nonzero entries; the greedy list of independent row indices;
and the basis in RREF of the kernel {x : sum_k x_k * rows[k] = 0}, as dict
vectors holding only nonzero entries (content 1 and a positive lead over
the integers; lead 1 and entries in [1, p) over GF(p)).  None of them
depends on the order in which the elimination is carried out.  The
reference is the dense kernel kept in ``tests/test_linalg.py``, which this
module must match exactly.

* The echelon is a dict from pivot column to the pivot row.  A new row's
  lead column is taken, and while that column holds a pivot a multiple of
  the pivot row is subtracted, which walks only the pivot row's nonzeros;
  the first lead without a pivot is the row's pivot.  The row is copied
  before its first subtraction, so a row that meets no pivot is not copied.
* A new pivot row is stored as it stands, possibly the caller's own dict,
  and its column is marked raw.  Most rows meet no pivot and most pivot
  rows never clear an entry, so normalising each on arrival is mostly
  wasted.  A raw row is normalised the first time it clears an entry
  (content 1 and a positive pivot over the integers; over GF(p) pivot 1,
  not stored, and entries in [1, p)), and ``rref_*`` normalise the rows
  still raw in the backward pass.  A row's normal form depends on the row
  alone, so every subtraction uses the pivot row it would have used had
  the row been normalised on arrival, and the outputs do not change.
  Input rows are only read, and every row handed back is a new dict.
* ``indep_*`` lead with the last nonzero column: rank and the greedy subset
  do not depend on the pivot columns.  ``rref_*`` lead with the first, for
  the canonical RREF, and then run the backward (Jordan) pass from the last
  pivot to the first, clearing a row only at the later pivot columns among
  its own nonzeros.
* ``kernel_*`` run one forward elimination, from the last row to the
  first, and no backward pass.  Row k carries its combination of input
  rows beside it: a copy of it gets the entry 1 at the tag column
  width + k, past every column of the rows, and each step acts on the
  tags as on the columns.  They lead with the first column, so a row's
  own tag, the least of its tags, leads once its columns have cleared: the
  row is then its combination alone, a kernel vector, and is read off;
  otherwise the row is kept as a pivot row.  (Leading with the last column
  took three times the steps on slice matrices of a thousand rows and more,
  whose pivot rows then carried longer combinations.)
  The kept rows are the basis of the span chosen greedily from the end,
  so a dependent row k has exactly one expression in the kept rows after
  it, and its vector (1 at k, that expression of -rows[k] at the kept
  rows) is the one kernel vector that is 1 at k and 0 at every other
  dependent row.  In increasing k these vectors are the RREF of the
  kernel, whatever the elimination's order.
* Reduction mod p is lazy: an entry is reduced when it is read as a
  multiplier and once more when its row is normalised (Python ints cannot
  overflow).
* Over the integers a step scales the row by a/g (a the pivot, g its gcd
  with the entry to clear) before subtracting; the scaling is left out when
  a/g = 1.  Normalising a pivot row before it clears keeps these multipliers,
  and so the entries, from growing.

Rational matrices are handled fraction-free: callers scale each row to
integers, the kernel hands back integer rows (and kernel vectors) with
content 1 and a positive pivot (lead), and the caller divides by the pivot
afterwards; for a kernel vector the caller first multiplies each entry by
the factor its row was scaled by.
"""

from __future__ import annotations

from math import gcd


def _width(rows):
    """1 + the largest column of the rows: the first column past them."""
    return 1 + max(map(max, filter(None, rows)), default=-1)


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


def _insert_int(pivots, raw, src, lead):
    """Reduce ``src`` modulo the pivot map, taking the lead column with
    ``lead`` (min or max).  If a nonzero row is left, add it to the map as
    it stands, mark its column raw and return True.  A raw pivot row is
    replaced by its `_content_one` form before it clears an entry."""
    row = src
    while row:
        j = lead(row)
        v = row[j]
        srow = pivots.get(j)
        if srow is None and v:
            pivots[j] = row
            raw.add(j)
            return True
        if row is src:
            row = dict(src)
        del row[j]
        if v:
            if j in raw:
                raw.remove(j)
                srow = pivots[j] = _content_one(srow, j)
            _clear_int(row, srow, j, v)
    return False


def rref_int(rows):
    """Echelonize integer rows (row space over Q).

    Returns (reduced rows sorted by pivot column, pivot columns).  Rows come
    back Jordan-reduced with content 1 and positive pivots; dividing each row
    by its pivot yields the canonical rational RREF.
    """
    pivots, raw = {}, set()
    for src in rows:
        _insert_int(pivots, raw, src, min)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        hits = [k for k, v in row.items() if v and k != pc and k in pivots]
        if hits:
            row = dict(row)
            for qc in hits:
                _clear_int(row, pivots[qc], qc, row.pop(qc))
        if hits or pc in raw:
            pivots[pc] = _content_one(row, pc)
    return [pivots[pc] for pc in order], order


def indep_int(d_rows, c_rows):
    """Indices of candidate rows independent modulo span(d_rows), greedily."""
    pivots, raw = {}, set()
    for src in d_rows:
        _insert_int(pivots, raw, src, max)
    return [idx for idx, src in enumerate(c_rows) if _insert_int(pivots, raw, src, max)]


def kernel_int(rows):
    """Basis of {x : sum_k x_k * rows[k] = 0} over Q, for integer rows.

    One vector per row that depends on the rows after it, in increasing k:
    its integer combination with content 1 and a positive entry at k,
    which comes first, the other entries following in decreasing index.
    """
    width = _width(rows)
    pivots, raw = {}, set()
    out = []
    for k in range(len(rows) - 1, -1, -1):
        tag = width + k
        _insert_int(pivots, raw, {**rows[k], tag: 1}, min)
        dep = pivots.pop(tag, None)
        if dep is not None:
            dep = _content_one(dep, tag)
            vec = {k: dep.pop(tag)}
            for t in sorted(dep, reverse=True):
                vec[t - width] = dep[t]
            out.append(vec)
    out.reverse()
    return out


# -- prime field -------------------------------------------------------------


def _unit_fp(row, j, p):
    """``row`` divided by its entry at j, without that entry (which is now
    1) and with the others in [1, p)."""
    inv = pow(row[j], -1, p)
    return {k: w for k, v in row.items() if k != j and (w := v * inv % p)}


def _clear_fp(row, srow, b):
    """row := row - b*srow, for the entry b that ``row`` held at the pivot
    column of ``srow`` and no longer holds."""
    for k, w in srow.items():
        row[k] = row.get(k, 0) - b * w


def _insert_fp(pivots, raw, src, p, lead):
    """Reduce ``src`` modulo the pivot map over GF(p), taking the lead column
    with ``lead`` (min or max).  If a nonzero row is left, add it to the map
    as it stands, mark its column raw and return True.  A raw pivot row is
    replaced by its `_unit_fp` form before it clears an entry."""
    row = src
    while row:
        j = lead(row)
        b = row[j] % p
        srow = pivots.get(j)
        if srow is None and b:
            pivots[j] = row
            raw.add(j)
            return True
        if row is src:
            row = dict(src)
        del row[j]
        if b:
            if j in raw:
                raw.remove(j)
                srow = pivots[j] = _unit_fp(srow, j, p)
            _clear_fp(row, srow, b)
    return False


def rref_fp(rows, p):
    """Gauss-Jordan over GF(p).  Input entries are any ints, read mod p;
    returns (rows with unit pivots and entries in [1, p), sorted by pivot
    column, pivot columns)."""
    pivots, raw = {}, set()
    for src in rows:
        _insert_fp(pivots, raw, src, p, min)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        if pc in raw:
            row = pivots[pc] = _unit_fp(row, pc, p)
        hits = [k for k in row if k in pivots]
        if hits:
            # later rows are reduced already: they are zero at every other
            # pivot column, so the multipliers popped here stay put
            for qc in hits:
                _clear_fp(row, pivots[qc], row.pop(qc))
            pivots[pc] = {k: w for k, v in row.items() if (w := v % p)}
    return [{pc: 1, **pivots[pc]} for pc in order], order


def indep_fp(d_rows, c_rows, p):
    """Indices of candidate rows independent modulo span(d_rows) over GF(p),
    greedily."""
    pivots, raw = {}, set()
    for src in d_rows:
        _insert_fp(pivots, raw, src, p, max)
    return [idx for idx, src in enumerate(c_rows) if _insert_fp(pivots, raw, src, p, max)]


def kernel_fp(rows, p):
    """Basis of {x : sum_k x_k * rows[k] = 0} over GF(p).  Input entries
    are any ints, read mod p.

    One vector per row that depends on the rows after it, in increasing k:
    its combination, with the entry 1 at k first and the others, in
    [1, p), following in decreasing index.
    """
    width = _width(rows)
    pivots, raw = {}, set()
    out = []
    for k in range(len(rows) - 1, -1, -1):
        tag = width + k
        _insert_fp(pivots, raw, {**rows[k], tag: 1}, p, min)
        dep = pivots.pop(tag, None)
        if dep is not None:
            vec = {k: 1}
            for t in sorted(dep, reverse=True):
                if t != tag and (w := dep[t] % p):
                    vec[t - width] = w
            out.append(vec)
    out.reverse()
    return out
