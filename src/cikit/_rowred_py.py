"""Pure-Python row-reduction kernels.

The compiled twin lives in ``_rowred.pyx``; both expose the same five
functions, ``rref_int``, ``indep_int``, ``rref_fp``, ``reduce_fp`` and
``indep_fp``, with bit-identical outputs (reduced row echelon form is
canonical, so the two implementations are interchangeable and
cross-checkable).

Rational matrices are handled fraction-free: callers scale each row to
integers, the kernel keeps rows as integer vectors with content 1 and
positive pivot, and the caller divides by the pivot afterwards.
"""

from __future__ import annotations

from math import gcd


def _first_nonzero(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


def _strip_row_int(row):
    """Divide by the content and make the leading entry positive."""
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
    if g > 1:
        for j, v in enumerate(row):
            row[j] = v // g
    piv = _first_nonzero(row)
    if piv is not None and row[piv] < 0:
        for j, v in enumerate(row):
            row[j] = -v
    return piv


def _combine_int(row, prow, pc):
    """row := (a/g)*row - (b/g)*prow so that row[pc] becomes 0."""
    a = prow[pc]
    b = row[pc]
    g = gcd(a, b)
    ca = a // g
    cb = b // g
    for j in range(len(row)):
        row[j] = ca * row[j] - cb * prow[j]


def rref_int(rows):
    """Echelonize integer rows (row space over Q).

    Returns (reduced rows sorted by pivot column, pivot columns).  Rows come
    back Jordan-reduced with content 1 and positive pivots; dividing each row
    by its pivot yields the canonical rational RREF.
    """
    echelon = []  # (pivot col, row), kept sorted by pivot col
    for src in rows:
        row = list(src)
        for pc, prow in echelon:
            if row[pc]:
                _combine_int(row, prow, pc)
        piv = _strip_row_int(row)
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
                _combine_int(row, qrow, qc)
        _strip_row_int(row)
    return [row for _, row in echelon], [pc for pc, _ in echelon]


def indep_int(d_rows, c_rows):
    """Indices of candidate rows independent modulo span(d_rows), greedily."""
    echelon = []
    for src in d_rows:
        _indep_add_int(echelon, list(src))
    selected = []
    for idx, src in enumerate(c_rows):
        if _indep_add_int(echelon, list(src)):
            selected.append(idx)
    return selected


def _indep_add_int(echelon, row):
    for pc, prow in echelon:
        if row[pc]:
            _combine_int(row, prow, pc)
    piv = _strip_row_int(row)
    if piv is None:
        return False
    echelon.append((piv, row))
    echelon.sort(key=lambda t: t[0])
    return True


# -- prime field -------------------------------------------------------------


def rref_fp(rows, p):
    """Gauss-Jordan over GF(p); rows are ints in [0, p)."""
    echelon = []
    for src in rows:
        row = [v % p for v in src]
        piv = _fp_reduce(echelon, row, p)
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


def _fp_reduce(echelon, row, p):
    """Reduce row against normalized echelon rows; normalize if nonzero."""
    for pc, prow in echelon:
        b = row[pc]
        if b:
            for k in range(pc, len(row)):
                row[k] = (row[k] - b * prow[k]) % p
    piv = _first_nonzero(row)
    if piv is None:
        return None
    inv = pow(row[piv], p - 2, p)
    for k in range(piv, len(row)):
        row[k] = (row[k] * inv) % p
    return piv


def reduce_fp(ech_rows, pivots, vecs, p):
    """Reduce each vector by a normalized (unit-pivot) echelon, exactly."""
    out = []
    for src in vecs:
        row = [v % p for v in src]
        for prow, pc in zip(ech_rows, pivots):
            b = row[pc]
            if b:
                for k in range(pc, len(row)):
                    row[k] = (row[k] - b * prow[k]) % p
        out.append(row)
    return out


def indep_fp(d_rows, c_rows, p):
    echelon = []
    for src in d_rows:
        row = [v % p for v in src]
        piv = _fp_reduce(echelon, row, p)
        if piv is not None:
            echelon.append((piv, row))
            echelon.sort(key=lambda t: t[0])
    selected = []
    for idx, src in enumerate(c_rows):
        row = [v % p for v in src]
        piv = _fp_reduce(echelon, row, p)
        if piv is not None:
            echelon.append((piv, row))
            echelon.sort(key=lambda t: t[0])
            selected.append(idx)
    return selected
