"""The row-reduction kernel: ``rref_int``, ``indep_int``, ``rref_fp`` and
``indep_fp``, in pure Python.

Every output is canonical: the reduced row echelon form (unit pivots over
GF(p); content 1 and a positive pivot over the integers) and the greedy
list of independent row indices.  None of them depends on the order in
which the elimination is carried out, so any correct elimination is
interchangeable with any other.  The reference is the dense kernel kept in
``tests/test_linalg.py``, which this module must match exactly.

The rows met in practice are wide and very sparse (a few percent nonzero),
so a step here touches only nonzero entries:

* The echelon is a dict from pivot column to the pivot row in sparse form:
  the list of its nonzero ``(column, value)`` pairs, pivot first.  Dense
  rows are built only for the backward pass and the output of ``rref_*``.
* A new row is reduced by one left-to-right scan of a dense copy, which
  skips zeros in C (``itertools.compress``).  At a nonzero column that holds
  a pivot it subtracts a multiple of that pivot row, walking only the pivot
  row's nonzeros; the first nonzero column without a pivot is the row's
  lead.  No echelon list is walked and nothing is sorted until ``rref_*``
  returns.
* The backward (Jordan) pass of ``rref_*`` runs from the last pivot to the
  first and clears a row at the later pivot columns it meets among its own
  nonzeros; only a row that meets one is rebuilt.
* Over GF(p) reduction mod p is lazy: an entry is reduced only when it is
  read as a multiplier and once more when its row is normalised (Python
  ints cannot overflow).  Input entries may be any ints, negative or >= p.
* Over the integers a step scales the row by a/g (a the pivot, g its gcd
  with the entry to clear) before subtracting; the scaling skips zeros and
  is left out when a/g = 1.

Rational matrices are handled fraction-free: callers scale each row to
integers, the kernel keeps rows as integer vectors with content 1 and
positive pivot, and the caller divides by the pivot afterwards.
"""

from __future__ import annotations

from itertools import compress
from math import gcd


def _nonzero(row, start=0):
    """Columns of the nonzero entries of ``row`` from ``start`` on, zeros
    skipped in C.  From column 0 the live row is read, each entry when the
    iterator reaches it, so a left-to-right scan sees what a step writes
    right of the column it stands on."""
    return compress(range(start, len(row)), row[start:] if start else row)


def _dense(srow, n):
    row = [0] * n
    for k, v in srow:
        row[k] = v
    return row


# -- integers ----------------------------------------------------------------


def _clear_int(row, j, srow):
    """row := (a/g)*row - (v/g)*srow, a = srow's pivot, v = row[j], g their
    gcd; this makes row[j] zero."""
    a = srow[0][1]
    v = row[j]
    g = gcd(a, v)
    ca = a // g
    cb = v // g
    if ca != 1:
        for k in _nonzero(row):
            row[k] *= ca
    for k, w in srow:
        row[k] -= cb * w


def _content_one(row, j):
    """The sparse form, from column j on, of ``row`` divided by its content,
    with a positive entry at j."""
    g = gcd(*row)
    if row[j] < 0:
        g = -g
    return [(k, row[k] // g) for k in _nonzero(row, j)]


def _insert_int(pivots, src):
    """Reduce a copy of ``src`` modulo the pivot map.  If a nonzero row is
    left, add it to the map with content 1 and a positive pivot and return
    True."""
    row = list(src)
    for j in _nonzero(row):
        srow = pivots.get(j)
        if srow is None:
            pivots[j] = _content_one(row, j)
            return True
        _clear_int(row, j, srow)
    return False


def rref_int(rows):
    """Echelonize integer rows (row space over Q).

    Returns (reduced rows sorted by pivot column, pivot columns).  Rows come
    back Jordan-reduced with content 1 and positive pivots; dividing each row
    by its pivot yields the canonical rational RREF.
    """
    pivots = {}
    for src in rows:
        _insert_int(pivots, src)
    order = sorted(pivots)
    n = len(rows[0]) if order else 0
    for pc in reversed(order):
        hits = [k for k, _ in pivots[pc][1:] if k in pivots]
        if hits:
            row = _dense(pivots[pc], n)
            for qc in hits:
                _clear_int(row, qc, pivots[qc])
            pivots[pc] = _content_one(row, pc)
    return [_dense(pivots[pc], n) for pc in order], order


def indep_int(d_rows, c_rows):
    """Indices of candidate rows independent modulo span(d_rows), greedily."""
    pivots = {}
    for src in d_rows:
        _insert_int(pivots, src)
    return [idx for idx, src in enumerate(c_rows) if _insert_int(pivots, src)]


# -- prime field -------------------------------------------------------------


def _insert_fp(pivots, src, p):
    """Reduce a copy of ``src`` modulo the pivot map over GF(p).  If a
    nonzero row is left, add it to the map with a unit pivot and entries in
    [0, p) and return True."""
    row = list(src)
    for j in _nonzero(row):
        b = row[j] % p
        if not b:
            continue
        srow = pivots.get(j)
        if srow is None:
            inv = pow(b, -1, p)
            pivots[j] = [(k, w) for k in _nonzero(row, j) if (w := row[k] * inv % p)]
            return True
        for k, w in srow:
            row[k] -= b * w
    return False


def rref_fp(rows, p):
    """Gauss-Jordan over GF(p).  Input entries are any ints, read mod p;
    returns (rows with unit pivots and entries in [0, p), sorted by pivot
    column, pivot columns)."""
    pivots = {}
    for src in rows:
        _insert_fp(pivots, src, p)
    order = sorted(pivots)
    n = len(rows[0]) if order else 0
    for pc in reversed(order):
        hits = [(k, b) for k, b in pivots[pc][1:] if k in pivots]
        if hits:
            # later rows are reduced already: they are zero at every other
            # pivot column, so the multipliers read here stay put
            row = _dense(pivots[pc], n)
            for qc, b in hits:
                for k, w in pivots[qc]:
                    row[k] -= b * w
            pivots[pc] = [(k, w) for k in _nonzero(row) if (w := row[k] % p)]
    return [_dense(pivots[pc], n) for pc in order], order


def indep_fp(d_rows, c_rows, p):
    """Indices of candidate rows independent modulo span(d_rows) over GF(p),
    greedily."""
    pivots = {}
    for src in d_rows:
        _insert_fp(pivots, src, p)
    return [idx for idx, src in enumerate(c_rows) if _insert_fp(pivots, src, p)]
