# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
"""Compiled row-reduction kernels (see _rowred_py for the reference
implementation; outputs are bit-identical)."""

from cpython.mem cimport PyMem_Malloc, PyMem_Free

from math import gcd as _gcd


# -- GF(p): C int64 arithmetic, requires p*p < 2^63 --------------------------

cdef long long _modinv(long long a, long long p):
    # extended Euclid; a in (0, p)
    cdef long long old_r = a, r = p
    cdef long long old_s = 1, s = 0
    cdef long long q, tmp
    while r != 0:
        q = old_r // r
        tmp = old_r - q * r; old_r = r; r = tmp
        tmp = old_s - q * s; old_s = s; s = tmp
    old_s %= p
    if old_s < 0:
        old_s += p
    return old_s


def rref_fp(rows, long long p):
    if p <= 0 or p >= (<long long>1) << 31:
        raise ValueError("modulus out of supported range")
    cdef Py_ssize_t m = len(rows)
    cdef Py_ssize_t n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return [], []
    cdef long long *ech = <long long *> PyMem_Malloc(m * n * sizeof(long long))
    cdef long long *work = <long long *> PyMem_Malloc(n * sizeof(long long))
    cdef long long *pivs = <long long *> PyMem_Malloc(m * sizeof(long long))
    if ech == NULL or work == NULL or pivs == NULL:
        raise MemoryError
    cdef Py_ssize_t r = 0, i, j, k, pos
    cdef long long b, inv, v
    try:
        for i in range(m):
            src = rows[i]
            for j in range(n):
                v = src[j]
                work[j] = v % p
                if work[j] < 0:
                    work[j] += p
            pos = _fp_reduce_insert(ech, pivs, &r, work, n, p)
        # Jordan pass
        for i in range(r - 1, -1, -1):
            for j in range(i + 1, r):
                b = ech[i * n + pivs[j]]
                if b:
                    for k in range(pivs[j], n):
                        ech[i * n + k] = (ech[i * n + k] - b * ech[j * n + k]) % p
                        if ech[i * n + k] < 0:
                            ech[i * n + k] += p
        out = [[ech[i * n + j] for j in range(n)] for i in range(r)]
        pivots = [pivs[i] for i in range(r)]
        return out, pivots
    finally:
        PyMem_Free(ech)
        PyMem_Free(work)
        PyMem_Free(pivs)


cdef Py_ssize_t _fp_reduce_insert(long long *ech, long long *pivs,
                                  Py_ssize_t *r, long long *work,
                                  Py_ssize_t n, long long p):
    """Reduce work against the echelon; insert (normalized) if nonzero.

    Returns the insertion position, or -1 if work reduced to zero."""
    cdef Py_ssize_t i, j, k, piv, pos
    cdef long long b, inv
    for i in range(r[0]):
        b = work[pivs[i]]
        if b:
            for k in range(pivs[i], n):
                work[k] = (work[k] - b * ech[i * n + k]) % p
                if work[k] < 0:
                    work[k] += p
    piv = -1
    for j in range(n):
        if work[j]:
            piv = j
            break
    if piv < 0:
        return -1
    inv = _modinv(work[piv], p)
    for k in range(piv, n):
        work[k] = (work[k] * inv) % p
    # insert keeping pivot columns sorted
    pos = r[0]
    while pos > 0 and pivs[pos - 1] > piv:
        pos -= 1
    for i in range(r[0], pos, -1):
        pivs[i] = pivs[i - 1]
        for k in range(n):
            ech[i * n + k] = ech[(i - 1) * n + k]
    pivs[pos] = piv
    for k in range(n):
        ech[pos * n + k] = work[k]
    r[0] += 1
    return pos


def indep_fp(d_rows, c_rows, long long p):
    if p <= 0 or p >= (<long long>1) << 31:
        raise ValueError("modulus out of supported range")
    cdef Py_ssize_t nd = len(d_rows), nc = len(c_rows)
    cdef Py_ssize_t n = 0
    if nd:
        n = len(d_rows[0])
    elif nc:
        n = len(c_rows[0])
    if n == 0:
        return []
    cdef Py_ssize_t cap = nd + nc
    cdef long long *ech = <long long *> PyMem_Malloc(cap * n * sizeof(long long))
    cdef long long *work = <long long *> PyMem_Malloc(n * sizeof(long long))
    cdef long long *pivs = <long long *> PyMem_Malloc(cap * sizeof(long long))
    if ech == NULL or work == NULL or pivs == NULL:
        raise MemoryError
    cdef Py_ssize_t r = 0, i, j
    cdef long long v
    selected = []
    try:
        for i in range(nd):
            src = d_rows[i]
            for j in range(n):
                v = src[j]
                work[j] = v % p
                if work[j] < 0:
                    work[j] += p
            _fp_reduce_insert(ech, pivs, &r, work, n, p)
        for i in range(nc):
            src = c_rows[i]
            for j in range(n):
                v = src[j]
                work[j] = v % p
                if work[j] < 0:
                    work[j] += p
            if _fp_reduce_insert(ech, pivs, &r, work, n, p) >= 0:
                selected.append(i)
        return selected
    finally:
        PyMem_Free(ech)
        PyMem_Free(work)
        PyMem_Free(pivs)


# -- integers (rational row spaces), fraction-free ---------------------------
# Entries are unbounded Python ints; the win over the pure version is the
# compiled loop, not the arithmetic.

cdef _combine_int(list row, list prow, Py_ssize_t pc):
    cdef Py_ssize_t j, n = len(row)
    a = prow[pc]
    b = row[pc]
    g = _gcd(a, b)
    ca = a // g
    cb = b // g
    for j in range(n):
        row[j] = ca * row[j] - cb * prow[j]


cdef Py_ssize_t _strip_row_int(list row):
    cdef Py_ssize_t j, n = len(row), piv = -1
    g = 0
    for j in range(n):
        v = row[j]
        if v:
            g = _gcd(g, v)
    if g > 1:
        for j in range(n):
            row[j] = row[j] // g
    for j in range(n):
        if row[j]:
            piv = j
            break
    if piv >= 0 and row[piv] < 0:
        for j in range(n):
            row[j] = -row[j]
    return piv


cdef bint _int_add(list ech_pivs, list ech_rows, list row):
    cdef Py_ssize_t i, piv, pos
    for i in range(len(ech_pivs)):
        if row[<Py_ssize_t> ech_pivs[i]]:
            _combine_int(row, <list> ech_rows[i], <Py_ssize_t> ech_pivs[i])
    piv = _strip_row_int(row)
    if piv < 0:
        return False
    pos = len(ech_pivs)
    while pos > 0 and <Py_ssize_t> ech_pivs[pos - 1] > piv:
        pos -= 1
    ech_pivs.insert(pos, piv)
    ech_rows.insert(pos, row)
    return True


def rref_int(rows):
    cdef list ech_pivs = [], ech_rows = []
    cdef Py_ssize_t i, j
    for src in rows:
        _int_add(ech_pivs, ech_rows, list(src))
    cdef Py_ssize_t r = len(ech_pivs)
    for i in range(r - 1, -1, -1):
        row = <list> ech_rows[i]
        for j in range(i + 1, r):
            if row[<Py_ssize_t> ech_pivs[j]]:
                _combine_int(row, <list> ech_rows[j], <Py_ssize_t> ech_pivs[j])
        _strip_row_int(row)
    return ech_rows, ech_pivs


def indep_int(d_rows, c_rows):
    cdef list ech_pivs = [], ech_rows = []
    cdef Py_ssize_t i
    for src in d_rows:
        _int_add(ech_pivs, ech_rows, list(src))
    selected = []
    for i in range(len(c_rows)):
        if _int_add(ech_pivs, ech_rows, list(c_rows[i])):
            selected.append(i)
    return selected
