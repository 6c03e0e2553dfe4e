"""A mutation census of the report's checks.

Every check name the harness can emit (read off ``harness.py``: the string
literals passed to ``_check`` and ``_compare``) maps to one mutation, a
monkeypatch of one library function and never of a check's own body, and to
the corpus entries on which that mutation makes the check fail.  A check
added without a mutation fails :func:`test_every_check_has_a_mutation`.

A self-check compares an object with its own construction rather than with
a second route.  One stays in the report only while its mutation passes
every route pair on its entries: then the self-check is the only part of
the report that sees that fault.
"""

import ast
import pathlib

import pytest

from cikit import conormal, dgmodel, harness, homlie, koszul, resolution
from cikit.dgmodel import DgAlgebraModel, ModelError
from cikit.fields import Field
from cikit.groebner import ModulePresentation
from cikit.koszul import KoszulComplex, KoszulH1
from cikit.resolution import ProjDimCertificate

from conftest import check_status

ROUTE_PAIRS = {
    "conormal_routes_agree", "h1_hilbert_two_routes", "kahler_strand_matches_h1",
    "x2_matches_koszul_h1_mu", "ext_crosscheck", "ci_criteria_agree",
    "theta_induces_minus_ad", "model_acyclicity", "jacobi_zariski_exact",
    "resolution_exactness_s_over_r",
}
SELF_CHECKS = {"kahler_complex", "lie_jacobi", "resolution_d2"}


def _emitted_names():
    """The check names passed as string literals to ``_check`` and
    ``_compare`` in ``harness.py``, and ``crashed``.  The one call that
    passes a variable is ``_compare``'s own."""
    tree = ast.parse(pathlib.Path(harness.__file__).read_text())
    literal, other = {"crashed"}, set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_check", "_compare")):
            arg = node.args[1]
            if isinstance(arg, ast.Constant):
                literal.add(arg.value)
            else:
                other.add(ast.unparse(arg))
    assert other == {"name"}, other
    return literal


# -- mutations: each replaces one library function ------------------------


def _wrap(owner, name, edit):
    """``owner.name`` returns ``edit(result, *args)``."""
    def apply(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: edit(original(*args), *args))
    return apply


def _raise(owner, name, exc):
    def fail(*args):
        raise exc
    return lambda monkeypatch: monkeypatch.setattr(owner, name, fail)


def _drop_last_variable(stage):
    """The model misses the last variable of X_stage."""
    def edit(_, model, n):
        if n == stage and model.variables[-1].hdeg == n:
            model.variables.pop()
            model.differentials.pop()
            model._stage.clear()
    return _wrap(dgmodel, "_adjoin_stage", edit)


def _kahler(degree, edit):
    """``reduced_kahler_matrix(degree)`` is ``edit`` of the built matrix."""
    def mutated(pres, model, i):
        return edit(pres) if i == degree else pres
    return _wrap(DgAlgebraModel, "reduced_kahler_matrix", mutated)


def _with_columns(pres, columns):
    return ModulePresentation(pres.ring, pres.modulus, pres.row_degrees, columns)


def _negate_row_0(pres):
    return _with_columns(pres, [(-col[0],) + col[1:] for col in pres.columns])


def _negate_brackets(which):
    """``compute_pi`` negates [u, v] when ``which(deg u, deg v)``."""
    def edit(pi, model):
        for (a, b), table in pi.bracket.items():
            if which(pi.basis[a].degree, pi.basis[b].degree):
                for t in table:
                    table[t] = model.field.neg(table[t])
        return pi
    return _wrap(homlie, "compute_pi", edit)


def _phantom_pi3(pi, model):
    """``compute_pi`` lists a basis element of pi^3 that no variable backs."""
    pi.by_degree.setdefault(3, []).append(homlie.PiBasisElement(-1, "p3_0", 3))
    return pi


def _koszul_d2_all_plus(pres, cx, i):
    """d_2 of the Koszul complex with all plus signs: the first nonzero
    entry of each column of d_2 is the one with sign -1."""
    if i != 2:
        return pres
    columns = []
    for col in pres.columns:
        first = next(r for r, p in enumerate(col) if not p.is_zero())
        columns.append(col[:first] + (-col[first],) + col[first + 1:])
    return _with_columns(pres, columns)


def _h1_without_relations(h1, ideal, bound):
    h1.presentation = _with_columns(h1.presentation, [])
    return h1


def _resolution_map_2(edit, over_quotient):
    """Map 2 of each resolution over R (or over S) is ``edit`` of the built map."""
    def mutated(res, pres, length, bound):
        if len(res.maps) > 1 and res.modulus.is_zero() != over_quotient:
            res.maps[1] = edit(res.maps[1])
        return res
    return _wrap(resolution, "minimal_free_resolution", mutated)


def _negate_entry_0_0(pres):
    first = pres.columns[0]
    return _with_columns(pres, [(-first[0],) + first[1:]] + pres.columns[1:])


def _finite_projdim_one_higher(_, cert, verdict, value, res):
    if verdict == "finite":
        cert.value = value + 1


_FLIP_CI = _wrap(harness, "ci_certificate",
                 lambda cert, ideal, bound: {**cert, "is_ci": not cert["is_ci"]})
_TOP_EXT_DIM_PLUS_ONE = _wrap(homlie, "expected_ext_dims",
                              lambda dims, model, n: dims[:-1] + [dims[-1] + 1])


CENSUS = {
    "parse": (_raise(Field, "parse", ValueError("no field")), ["ci_squares_2"]),
    "model_built": (_raise(dgmodel, "_adjoin_stage", ModelError("no stage")), ["aci_x2_xy"]),
    "crashed": (_raise(homlie, "compute_pi", RuntimeError("no pi")), ["aci_x2_xy"]),
    "model_acyclicity": (_drop_last_variable(3), ["aci_x2_xy"]),
    "kahler_complex": (_kahler(3, _negate_row_0), ["three_lines"]),
    "lie_jacobi": (_negate_brackets(lambda i, j: i > 2 and j == 2), ["aci_x2_xy", "m2_2vars"]),
    "theta_induces_minus_ad": (_negate_brackets(lambda i, j: i == 2), ["aci_x2_xy"]),
    "conormal_routes_agree": (_kahler(2, lambda p: _with_columns(p, p.columns[:-1])),
                              ["aci_x2_xy"]),
    "x2_matches_koszul_h1_mu": (_drop_last_variable(2), ["aci_x2_xy"]),
    "h1_hilbert_two_routes": (_wrap(KoszulComplex, "_differential", _koszul_d2_all_plus),
                              ["ci_squares_2", "aci_x2_xy"]),
    "kahler_strand_matches_h1": (_kahler(3, lambda p: _with_columns(p, p.columns[:-1])),
                                 ["aci_x2_xy"]),
    "ext_crosscheck": (_TOP_EXT_DIM_PLUS_ONE, ["ci_squares_2"]),
    "ci_criteria_agree": (_FLIP_CI, ["ci_squares_2"]),
    "expected_ci_flag": (_FLIP_CI, ["ci_squares_2"]),
    "theorem_conormal_consistency": (
        _wrap(conormal, "conormal_route_a", lambda p, *args: _with_columns(p, [])),
        ["aci_x2_xy"]),
    "theorem_koszul_consistency": (_wrap(koszul, "_koszul_h1", _h1_without_relations),
                                   ["aci_x2_xy"]),
    "resolution_d2": (_resolution_map_2(_negate_entry_0_0, over_quotient=True),
                      ["three_lines", "plane_line"]),
    "resolution_exactness_s_over_r": (
        _resolution_map_2(lambda p: _with_columns(p, p.columns[:-1]), over_quotient=False),
        ["aci_x2_xy"]),
    "expected_h1zero": (_wrap(KoszulH1, "is_zero", lambda zero, h1: not zero), ["ci_squares_2"]),
    "expected_conormal_free": (
        _wrap(ProjDimCertificate, "__init__", _finite_projdim_one_higher), ["ci_squares_2"]),
    "ci_radical_witnesses": (
        _wrap(homlie, "radical_probe",
              lambda v, pi, z: homlie.RadicalVerdict("inconclusive", None, pi.N)),
        ["ci_squares_2"]),
    "ci_pi_structure": (_wrap(homlie, "compute_pi", _phantom_pi3), ["ci_squares_2"]),
    "jacobi_zariski_exact": (
        _wrap(conormal, "kahler_s_over_k", lambda p, ideal: _with_columns(p, p.columns[:-1])),
        ["node_hypersurface"]),
    "frozen_deviations": (_drop_last_variable(4), ["aci_x2_xy"]),
    "frozen_ext": (_TOP_EXT_DIM_PLUS_ONE, ["ci_squares_2"]),
    "frozen_h1mu": (_wrap(KoszulH1, "minimal_generator_count", lambda n, h1: n + 1),
                    ["aci_x2_xy"]),
}


def test_every_check_has_a_mutation():
    assert set(CENSUS) == _emitted_names()
    assert SELF_CHECKS <= set(CENSUS) and ROUTE_PAIRS <= set(CENSUS)


@pytest.mark.parametrize("check", sorted(CENSUS))
def test_the_mutation_fails_the_check(check, corpus_entries, monkeypatch):
    mutation, names = CENSUS[check]
    entries = [entry for entry in corpus_entries if entry.name in names]
    assert len(entries) == len(names)
    mutation(monkeypatch)
    for entry in entries:
        result = harness.evaluate_entry(entry)
        assert check_status(result, check) == "fail", (entry.name, result["checks"])
        if check in SELF_CHECKS:
            passed = {c for c in ROUTE_PAIRS if check_status(result, c) == "pass"}
            assert passed == ROUTE_PAIRS, (entry.name, sorted(ROUTE_PAIRS - passed))
