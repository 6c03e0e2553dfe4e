from types import SimpleNamespace

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
    assert pi.bracket_of(z2, z1) == {t3: 1}
    assert pi.bracket_of(z1, z2) == {t3: model.field.neg(1)}


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
    th = theta(model, z1)
    u = next(v.index for v in model.variables if v.name == "t2_1")
    assert th.values[u].to_string() == "y"
    assert th.is_chain()
    assert th.lands_in_augmentation()
    # theta on ring elements vanishes (values only on variables, R-linear)
    x = model.embed(R.from_string("x"))
    assert th.apply(x).is_zero()


def test_theta_vanishes_for_ci(R):
    model, pi = setup(R, "x^2", "y^2")
    for z in pi.by_degree[2]:
        th = theta(model, z)
        assert all(v.is_zero() for v in th.values.values())
        induced_ad(th, z, pi)


def test_induced_ad_matches_minus_bracket(R):
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2")):
        model, pi = setup(R, *texts)
        for z in pi.by_degree[2]:
            induced_ad(theta(model, z), z, pi)  # raises on mismatch


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
        induced_ad(theta(model, z), z, pi)  # raises MismatchWithBracket


def test_lift_independence(R):
    model, pi = setup(R, "x^2", "x*y")
    z1 = pi.by_degree[2][0]
    default = induced_ad(theta(model, z1), z1, pi)
    lift = {
        v.index: (R.one() if v.index == z1.var_index else R.from_string("x + y"))
        for v in model.variables_of_hdeg(1)
    }
    perturbed = induced_ad(theta(model, z1, lift), z1, pi)
    assert default == perturbed


def test_radical_probes(R):
    _, pi = setup(R, "x^2", "y^2")
    for z in pi.by_degree[2]:
        v = radical_probe(pi, z)
        assert v.kind == "radical_witness" and v.data == 1

    _, pi2 = setup(R, "x^2", "x*y", "y^2")
    verdicts = [radical_probe(pi2, z) for z in pi2.by_degree[2]]
    assert any(v.kind == "nonradical_evidence" for v in verdicts)
    evidence = next(v for v in verdicts if v.kind == "nonradical_evidence")
    assert evidence.data == [2, 3, 4]  # nonvanishing at every computed stage
    assert evidence.bound == pi2.N


def test_ext_crosscheck_examples(R):
    Rx = PolyRing(QQ, ["x"])
    mx = build_minimal_model(ideal(Rx, "x^2"), 5, 12)
    assert ext_crosscheck(mx) == [1, 1, 1, 1, 1, 1]

    mci = build_minimal_model(ideal(R, "x^2", "y^2"), 5, 12)
    assert ext_crosscheck(mci) == [1, 2, 3, 4, 5, 6]

    m2 = build_minimal_model(ideal(R, "x^2", "x*y", "y^2"), 5, 12)
    assert ext_crosscheck(m2) == [1, 2, 4, 8, 16, 32]

    # linear generator: S = k[y], exterior algebra on one class
    mlin = build_minimal_model(ideal(R, "x"), 5, 12)
    assert ext_crosscheck(mlin) == [1, 1, 0, 0, 0, 0]

    # the model's hdeg fixes the degrees compared: at 3 the series reads pi
    # up to pi^3, dual to X_2, where at 5 it would need X_4
    m3 = build_minimal_model(ideal(R, "x^2", "x*y"), 3, 12)
    assert ext_crosscheck(m3) == [1, 2, 3, 5]


def test_ext_crosscheck_prime_field():
    R7 = PolyRing(GF(7), ["x", "y"])
    m = build_minimal_model(
        gr.Ideal(R7, [R7.from_string("x^2"), R7.from_string("y^2")]), 5, 12
    )
    assert ext_crosscheck(m) == [1, 2, 3, 4, 5, 6]


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
        ext_crosscheck(doctored)


def test_ext_caps_below_backelin_fail_the_crosscheck(R, monkeypatch):
    # ext_betti resolves step i of k to Backelin's bound at i; caps one below
    # it miss generators of the resolution, and the crosscheck must say so
    from cikit import resolution

    model, _ = setup(R, "x^2", "x*y")
    assert ext_crosscheck(model) == [1, 2, 3, 5, 8, 13]
    real = resolution.ext_degree_bound
    monkeypatch.setattr(resolution, "ext_degree_bound", lambda modulus, n: real(modulus, n) - 1)
    with pytest.raises(DimensionMismatch):
        ext_crosscheck(model)


def test_bracket_table_dump_is_canonical(R):
    _, pi = setup(R, "x^2", "x*y")
    dump1 = pi.bracket_table_dump()
    _, pi_again = setup(R, "x^2", "x*y")
    assert dump1 == pi_again.bracket_table_dump()
    assert "[p2_1, p2_2]" in dump1


# -- parity with the former bracket loop and series bookkeeping ----------------


def reference_bracket(model):
    """Reference: the former bracket extraction, with its pair list and its
    separate branch for t_a^2."""
    F = model.field
    N = model.hdeg_bound + 1
    degree = {v.index: v.hdeg + 1 for v in model.variables}
    bracket = {(u, v): {} for u in degree for v in degree if degree[u] + degree[v] <= N}
    for x in model.variables:
        terms = []
        for (m, w), c in model.differentials[x.index].terms.items():
            if any(m) or model.dgmon_length(w) != 2:
                continue
            terms.append((c, w[0][0], w[0][0]) if len(w) == 1 else (c, w[0][0], w[1][0]))
        for coeff, a, b in terms:
            da, db = degree[a], degree[b]
            pairs = []
            if a != b:
                pairs.append((b, a, 1))
                s = F.of_int(-1 if ((da + 1) * (db + 1)) % 2 else 1)
                pairs.append((a, b, s))
            else:
                s = F.of_int(-1 if ((da + 1) * (da + 1)) % 2 else 1)
                pairs.append((a, a, F.add(1, s)))
            for uv, vv, val in pairs:
                if not val or (uv, vv) not in bracket:
                    continue
                c = F.mul(coeff, val)
                if degree[vv] % 2:
                    c = F.neg(c)
                F.add_into(bracket[(uv, vv)], x.index, c)
    return bracket


def reference_series_mul(a, b, N):
    out = [0] * (N + 1)
    for i, av in enumerate(a[: N + 1]):
        if not av:
            continue
        for j, bv in enumerate(b[: N + 1 - i]):
            out[i + j] += av * bv
    return out


def reference_series_pow(base, e, N):
    out = [1] + [0] * N
    for _ in range(e):
        out = reference_series_mul(out, base, N)
    return out


def reference_geometric(k, N):
    out = [0] * (N + 1)
    for i in range(0, N + 1, k):
        out[i] = 1
    return out


def reference_expected_ext_dims(model, N):
    """Reference: the former series bookkeeping, one truncated product of
    power series per factor."""
    eps = model.deviations()
    ell = sum(1 for v in model.variables_of_hdeg(1) if v.intdeg == 1)
    series = reference_series_pow([1, 1], model.ring.nvars - ell, N)
    series = reference_series_mul(
        series, reference_series_pow(reference_geometric(2, N), eps[0] - ell, N), N)
    for j in range(2, min(len(eps), N - 1) + 1):
        count = eps[j - 1]
        if j % 2 == 0:
            gen = [1] + [0] * N
            gen[j + 1] = 1
        else:
            gen = reference_geometric(j + 1, N)
        series = reference_series_mul(series, reference_series_pow(gen, count, N), N)
    return series


@pytest.mark.parametrize("field", FUZZ_FIELDS, ids=str)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bracket_and_ext_series_match_the_references(field, data):
    ring, gens = data.draw(homogeneous_ideals(max_vars=3, fields=(field,)))
    hdeg = 4
    top = max(g.homogeneous_degree() for g in gens)
    model = build_minimal_model(gr.Ideal(ring, gens), hdeg, top * hdeg)
    bracket = compute_pi(model).bracket
    expected = reference_bracket(model)
    # insertion order too: check_jacobi reports terms in it
    assert [(k, list(v.items())) for k, v in bracket.items()] == \
        [(k, list(v.items())) for k, v in expected.items()]
    for N in range(hdeg + 3):
        assert expected_ext_dims(model, N) == reference_expected_ext_dims(model, N)


def test_bracket_matches_the_reference_on_squares(R):
    # at hdeg 5, d(X_5) has terms t_a^2 for t_a in X_2, whose two
    # contributions to [u_a, u_a] add up; the drawn models stop at hdeg 4
    for texts in (("x^2", "x*y"), ("x^2", "x*y", "y^2")):
        model, pi = setup(R, *texts)
        assert any(len(w) == 1 and e == 2 for d in model.differentials
                   for (_, w), _ in d.terms.items() for _, e in w)
        assert pi.bracket == reference_bracket(model)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ext_series_matches_the_reference_on_any_deviations(data):
    eps = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    ell = data.draw(st.integers(0, eps[0]))
    stage1 = [SimpleNamespace(intdeg=1)] * ell + [SimpleNamespace(intdeg=2)] * (eps[0] - ell)
    model = SimpleNamespace(
        deviations=lambda: list(eps),
        variables_of_hdeg=lambda h: stage1 if h == 1 else [],
        ring=SimpleNamespace(nvars=ell + data.draw(st.integers(0, 4))),
    )
    N = data.draw(st.integers(0, len(eps) + 4))
    assert expected_ext_dims(model, N) == reference_expected_ext_dims(model, N)
