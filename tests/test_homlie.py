import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

from cikit import groebner as gr
from cikit.dgmodel import build_minimal_model
from cikit.fields import QQ, GF
from cikit.homlie import (
    DimensionMismatch,
    check_antisymmetry,
    check_jacobi,
    compute_pi,
    expected_ext_dims,
    ext_crosscheck,
    induced_ad,
    radical_probe,
    theta,
)
from cikit.poly import PolyRing

from conftest import FUZZ_FIELDS, homogeneous_ideals


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def ideal(ring, *texts):
    return gr.Ideal(ring, [ring.from_string(t) for t in texts])


def setup(ring, *texts, hdeg=5, intdeg=12):
    model = build_minimal_model(ideal(ring, *texts), hdeg, intdeg)
    return model, compute_pi(model)


def test_ci_pi_abelian_in_degree_2(R):
    _, pi = setup(R, "x^2", "y^2")
    assert pi.dim(2) == 2
    assert all(pi.dim(i) == 0 for i in range(3, pi.N + 1))
    assert all(not tbl for tbl in pi.bracket.values())


def test_pi_dims_equal_deviations(R):
    model, pi = setup(R, "x^2", "x*y", "y^2")
    eps = model.deviations()
    for i in range(2, pi.N + 1):
        assert pi.dim(i) == eps[i - 2]
    assert pi.dim(2) == 3 and pi.dim(3) == 2


def test_hand_checked_bracket(R):
    # for (x^2, xy): [z2, z1] = +dual(t3_1), [z1, z2] = -dual(t3_1)
    model, pi = setup(R, "x^2", "x*y")
    z1, z2 = pi.by_degree[2]
    t3 = next(v.index for v in model.variables if v.name == "t3_1")
    one = model.field.one()
    assert pi.bracket_of(z2, z1) == {t3: one}
    assert pi.bracket_of(z1, z2) == {t3: model.field.neg(one)}


def test_nonzero_bracket_exists_for_m2(R):
    _, pi = setup(R, "x^2", "x*y", "y^2")
    assert any(pi.bracket_of(u, v) for u in pi.by_degree[2] for v in pi.by_degree[2])


def test_lie_identities(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2"), ("x^2", "y^2")):
        _, pi = setup(R, *texts)
        assert check_antisymmetry(pi) == []
        assert check_jacobi(pi) == []


def test_jacobi_failure_names_each_broken_triple(R):
    # [p2_2, p2_1] = p4_1 on (x^2, xy, y^2), changed to 2 * p4_1
    _, pi = setup(R, "x^2", "x*y", "y^2")
    u, v, t = (pi.element_by_name(n) for n in ("p2_2", "p2_1", "p4_1"))
    pi.bracket[(u.var_index, v.var_index)][t.var_index] = R.field.of_int(2)
    assert check_jacobi(pi) == [
        "Jacobi fails on (p2_1,p2_2,p2_1): {14: -1}",
        "Jacobi fails on (p2_2,p2_1,p2_2): {17: -1}",
        "Jacobi fails on (p2_2,p2_1,p2_3): {18: -1, 16: 1}",
        "Jacobi fails on (p2_2,p2_3,p2_1): {18: 1, 16: -1}",
        "Jacobi fails on (p2_3,p2_2,p2_1): {16: 1, 18: -1}",
    ]


def test_theta_values(R):
    model, pi = setup(R, "x^2", "x*y")
    z1 = pi.by_degree[2][0]
    th = theta(model, pi, z1)
    u = next(v.index for v in model.variables if v.name == "t2_1")
    assert th.value_on(u).to_string() == "y"
    assert th.derivation.is_chain()
    assert th.derivation.lands_in_augmentation()
    # theta on ring elements vanishes (values only on variables, R-linear)
    x = model.embed(R.from_string("x"))
    assert th.derivation.apply(x).is_zero()


def test_theta_vanishes_for_ci(R):
    model, pi = setup(R, "x^2", "y^2")
    for z in pi.by_degree[2]:
        th = theta(model, pi, z)
        assert all(v.is_zero() for v in th.derivation.values.values())
        induced_ad(th, pi)


def test_induced_ad_matches_minus_bracket(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2")):
        model, pi = setup(R, *texts)
        for z in pi.by_degree[2]:
            induced_ad(theta(model, pi, z), pi)  # raises on mismatch


@pytest.mark.parametrize("field", FUZZ_FIELDS, ids=str)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_theta_induces_minus_ad_on_random_ideals(field, data):
    """theta_z against -ad(z) for every z in pi^2; ``target`` steers the
    search to ideals with a nonzero bracket, where the check has content."""
    ring, gens = data.draw(homogeneous_ideals(max_vars=3, max_degree=2, fields=(field,)))
    hdeg = 4
    top = max(g.homogeneous_degree() for g in gens)
    model = build_minimal_model(gr.Ideal(ring, gens), hdeg, top * hdeg)
    pi = compute_pi(model)
    target(float(sum(map(len, pi.bracket.values()))))
    for z in pi.by_degree.get(2, []):
        induced_ad(theta(model, pi, z), pi)  # raises MismatchWithBracket


def test_lift_independence(R):
    model, pi = setup(R, "x^2", "x*y")
    z1 = pi.by_degree[2][0]
    default = induced_ad(theta(model, pi, z1), pi)
    lift = {
        v.index: (R.one() if v.index == z1.var_index else R.from_string("x + y"))
        for v in model.variables_of_hdeg(1)
    }
    perturbed = induced_ad(theta(model, pi, z1, lift), pi)
    assert default.blocks == perturbed.blocks


def test_radical_probes(R):
    _, pi = setup(R, "x^2", "y^2")
    for z in pi.by_degree[2]:
        v = radical_probe(pi, z)
        assert v.kind == "radical_witness" and v.data == 1
    assert radical_probe(pi, None).kind == "radical_witness"

    _, pi2 = setup(R, "x^2", "x*y", "y^2")
    verdicts = [radical_probe(pi2, z) for z in pi2.by_degree[2]]
    assert any(v.kind == "nonradical_evidence" for v in verdicts)
    evidence = next(v for v in verdicts if v.kind == "nonradical_evidence")
    assert evidence.data == [2, 3, 4]  # nonvanishing at every computed stage
    assert evidence.bound == pi2.N


def test_ext_crosscheck_examples(R):
    Rx = PolyRing(QQ, ["x"])
    mx = build_minimal_model(ideal(Rx, "x^2"), 5, 12)
    assert ext_crosscheck(mx, 5) == [1, 1, 1, 1, 1, 1]

    mci = build_minimal_model(ideal(R, "x^2", "y^2"), 5, 12)
    assert ext_crosscheck(mci, 5) == [1, 2, 3, 4, 5, 6]

    m2 = build_minimal_model(ideal(R, "x^2", "x*y", "y^2"), 5, 12)
    assert ext_crosscheck(m2, 5) == [1, 2, 4, 8, 16, 32]

    # linear generator: S = k[y], exterior algebra on one class
    mlin = build_minimal_model(ideal(R, "x"), 5, 12)
    assert ext_crosscheck(mlin, 5) == [1, 1, 0, 0, 0, 0]


def test_ext_crosscheck_prime_field():
    R7 = PolyRing(GF(7), ["x", "y"])
    m = build_minimal_model(
        gr.Ideal(R7, [R7.from_string("x^2"), R7.from_string("y^2")]), 5, 12
    )
    assert ext_crosscheck(m, 5) == [1, 2, 3, 4, 5, 6]


def test_dimension_mismatch_detected(R):
    model, _ = setup(R, "x^2", "x*y")
    # corrupt a deviation count through a doctored copy of the series
    good = expected_ext_dims(model, 5)
    assert good[0] == 1
    with pytest.raises(DimensionMismatch):
        # doctor the bookkeeping: drop every variable above stage 1, so the
        # predicted series (a complete intersection's) disagrees with the
        # computed resolution of k
        doctored = build_minimal_model(ideal(R, "x^2", "x*y"), 5, 12)
        keep = len(doctored.variables_of_hdeg(1))
        doctored.variables = doctored.variables[:keep]
        doctored.differentials = doctored.differentials[:keep]
        ext_crosscheck(doctored, 5)


def test_bracket_table_dump_is_canonical(R):
    _, pi = setup(R, "x^2", "x*y")
    dump1 = pi.bracket_table_dump()
    _, pi_again = setup(R, "x^2", "x*y")
    assert dump1 == pi_again.bracket_table_dump()
    assert "[p2_1, p2_2]" in dump1
