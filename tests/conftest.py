import os
import pathlib

import pytest
from hypothesis import strategies as st

from cikit import harness, linalg
from cikit.fields import QQ, GF
from cikit.poly import PolyRing, Polynomial

CORPUS_PATH = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "standard.corpus"


@pytest.fixture(scope="session")
def corpus_entries():
    with open(CORPUS_PATH) as fh:
        return harness.parse_corpus(fh.read())


@pytest.fixture(scope="session")
def corpus_report(corpus_entries):
    """One full corpus evaluation shared by the acceptance criteria."""
    workers = min(4, os.cpu_count() or 1)
    return harness.run_corpus(corpus_entries, parallelism=workers)


def entry_by_name(report, name):
    for entry in report["entries"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


def check_status(entry, check_name):
    for c in entry["checks"]:
        if c["name"] == check_name:
            return c["status"]
    return None


def sparse(rows):
    """Dense rows as sparse ones, the row format of `cikit.linalg`: a dict
    from column to entry for the nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def dense(rows, ncols):
    """Sparse rows as dense lists of length ``ncols``."""
    out = []
    for row in rows:
        full = [0] * ncols
        for j, v in row.items():
            full[j] = v
        out.append(full)
    return out


def bruteforce_kernel(cols, W, field):
    """Reference for {x : sum_i x_i * cols[i] in span(W)}, for dense
    vectors: the x-parts of the nullspace of the matrix [cols | W], in RREF,
    as dense rows."""
    if not cols:
        return []
    n = len(cols)
    rows = [[field.zero()] * (n + len(W)) for _ in cols[0]]
    for j, col in enumerate(list(cols) + list(W)):
        for t, v in enumerate(col):
            rows[t][j] = v
    kernel = dense(linalg.nullspace(sparse(rows), n + len(W), field), n + len(W))
    return dense(linalg.rref(sparse([v[:n] for v in kernel]), field)[0], n)


FUZZ_FIELDS = (QQ, GF(32003))


@st.composite
def homogeneous_ideals(draw, max_vars=4, max_degree=3, fields=FUZZ_FIELDS):
    """Generators and their ring: 2..max_vars variables over one of
    ``fields`` (Q or GF(32003)), and forms of one shape: monomial, binomial
    or generic (dense random support).  Half the draws are 1-3 such forms;
    the other half are 2-3 of them times one common linear form of the same
    shape, which makes height 1 < mu unless the cofactors collapse to one
    minimal generator, so most of those are not complete intersections."""
    field = draw(st.sampled_from(fields))
    ring = PolyRing(field, ["x", "y", "z", "w"][: draw(st.integers(2, max_vars))])
    shape = draw(st.sampled_from(("monomial", "binomial", "generic")))
    size = {"monomial": 1, "binomial": 2, "generic": None}[shape]
    coeffs = st.integers(-5, 5).filter(bool)

    def form(degree):
        mons = ring.monomials_of_degree(degree)
        support = draw(st.lists(st.sampled_from(mons), min_size=size or 1,
                                max_size=size or len(mons), unique=True))
        return Polynomial(ring, {m: field.of_int(draw(coeffs)) for m in support})

    if max_degree > 1 and draw(st.booleans()):
        factor = form(1)
        return ring, [factor * form(draw(st.integers(1, max_degree - 1)))
                      for _ in range(draw(st.integers(2, 3)))]
    return ring, [form(draw(st.integers(1, max_degree))) for _ in range(draw(st.integers(1, 3)))]
