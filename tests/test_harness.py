import concurrent.futures
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import homogeneous_ideals

from cikit import harness
from cikit.cli import main as cli_main
from cikit.fields import QQ
from cikit.groebner import Ideal, ModulePresentation
from cikit.harness import (
    Bounds,
    CorpusError,
    cache_insert,
    cache_key,
    cache_lookup,
    ci_certificate,
    parse_corpus,
    run_corpus,
)
from cikit.poly import PolyRing
from cikit.resolution import ProjDimCertificate, minimal_free_resolution


@pytest.fixture
def R():
    return PolyRing(QQ, ["x", "y"])


def ideal(ring, *texts):
    return Ideal(ring, [ring.from_string(t) for t in texts])


MINI_CORPUS = """
# two fast entries
entry ci / field Q / ring x, y / ideal x^2, y^2 / expect ci=true h1zero=true conormal_free=true
entry aci / field Q / ring x, y / ideal x^2, x*y / expect ci=false h1zero=false conormal_free=false
"""


def test_ci_certificate_examples(R):
    assert ci_certificate(ideal(R, "x^2", "y^2"), 12)["is_ci"]
    cert = ci_certificate(ideal(R, "x^2", "x*y", "y^2"), 12)
    assert not cert["is_ci"] and cert["mu"] == 3 and cert["height"] == 2
    cert2 = ci_certificate(ideal(R, "x^2", "x*y"), 12)
    assert not cert2["is_ci"] and cert2["mu"] == 2 and cert2["height"] == 1


def test_bounds_parse():
    b = Bounds.parse("hdeg=4 intdeg=10,reslen=6")
    assert (b.hdeg, b.intdeg, b.reslen) == (4, 10, 6)
    # resdeg is folded into intdeg: no longer settable, read as intdeg
    assert Bounds.parse("intdeg=15").resdeg == 15
    assert Bounds().to_dict() == {"hdeg": 5, "intdeg": 12, "reslen": 8}
    for text in ("nope=1", "resdeg=11", "intdeg=10 resdeg=11"):
        with pytest.raises(CorpusError):
            Bounds.parse(text)


def test_bounds_parse_rejects_anything_but_non_negative_integers():
    for text, key, val in (("intdeg=-1", "intdeg", "-1"), ("hdeg=abc", "hdeg", "abc"),
                           ("reslen=1.5", "reslen", "1.5"), ("intdeg=", "intdeg", "")):
        with pytest.raises(CorpusError, match=f"bound {key} .*{val!r}"):
            Bounds.parse(text)
    assert Bounds.parse("hdeg=0 reslen=0").to_dict() == {"hdeg": 0, "intdeg": 12, "reslen": 0}


def test_corpus_bound_error_names_the_line():
    text = "entry a / ring x / ideal x^2\nentry b / ring x / ideal x / bounds intdeg=abc\n"
    with pytest.raises(CorpusError, match="line 2: bound intdeg .*'abc'"):
        parse_corpus(text)


def test_corpus_expect_errors_name_the_line():
    head = "entry a / ring x / ideal x^2\nentry b / ring x / ideal x / expect "
    for clause, message in (
        ("h1mu=abc", "expect h1mu must be an integer, got 'abc'"),
        ("ext=1,x", "expect ext must be comma-separated integers, got '1,x'"),
        ("deviations=1.5", "expect deviations must be comma-separated integers, got '1.5'"),
        ("ci=maybe", "expect ci must be true/false, got 'maybe'"),
        ("lenstra=trivial", "unknown expect key 'lenstra'"),
        ("colour=red", "unknown expect key 'colour'"),
    ):
        with pytest.raises(CorpusError) as info:
            parse_corpus(head + clause + "\n")
        assert str(info.value) == "line 2: " + message


def test_corpus_hdeg_floor_and_frozen_lengths_name_the_line():
    head = "entry a / ring x / ideal x^2\nentry b / ring x, y / ideal x^2, x*y / "
    for clause, message in (
        ("bounds hdeg=2", "hdeg must be at least 3, got 2"),
        ("bounds hdeg=3 / expect deviations=2,1,1,2,3",
         "expect deviations has more than 3 values"),
        ("bounds hdeg=3 / expect ext=1,2,3,5,8",
         "expect ext has more than 4 values"),
    ):
        with pytest.raises(CorpusError) as info:
            parse_corpus(head + clause + "\n")
        assert str(info.value) == "line 2: " + message
    # the floor applies after bounds given for the whole run, too
    with pytest.raises(CorpusError, match="line 1: hdeg must be at least 3, got 2"):
        parse_corpus(head, Bounds(hdeg=2))
    entries = parse_corpus(head + "bounds hdeg=3 / expect deviations=2,1,1 ext=1,2,3,5\n")
    assert entries[1].bounds.hdeg == 3


def test_hdeg_3_entry_checks_ext_to_degree_3():
    # the Ext cross-check once compared degrees up to 5 whatever the model's
    # hdeg, and failed here: the series to degree 5 needs X_4
    entry = parse_corpus("entry e / field Q / ring x, y / ideal x^2, x*y / bounds hdeg=3"
                         " / expect deviations=2,1,1 ext=1,2,3,5\n")[0]
    result = harness.evaluate_entry(entry)
    assert result["ok"], result["checks"]
    assert result["data"]["ext_dims"] == [1, 2, 3, 5]


def test_unit_ideal_entry_fails_model_built():
    entry = parse_corpus("entry u / field Q / ring x, y / ideal 1\n")[0]
    assert harness.evaluate_entry(entry)["checks"] == [
        {"name": "model_built", "status": "fail", "detail": "ideal contains a unit"}]


def test_corpus_parse():
    entries = parse_corpus(MINI_CORPUS)
    assert [e.name for e in entries] == ["ci", "aci"]
    assert entries[0].field_spec == "Q"
    assert entries[0].expect["ci"] is True
    ring, I = entries[0].build()
    assert len(I.generators) == 2


def test_corpus_parse_errors():
    with pytest.raises(CorpusError):
        parse_corpus("entry a / ring x / unknown clause")
    with pytest.raises(CorpusError):
        parse_corpus("entry a")  # missing ring
    with pytest.raises(CorpusError):
        parse_corpus("ring x / ideal x")  # missing name
    # inconsistent flags: ci=true forces h1zero and conormal_free
    with pytest.raises(CorpusError):
        parse_corpus("entry a / ring x / ideal x / expect ci=true h1zero=false")


def test_empty_corpus_runs_clean():
    report = run_corpus([])
    assert report["summary"] == {"total": 0, "ok": 0, "failed": 0}


def test_wrong_expected_flag_fails_with_named_entry(tmp_path):
    bad = "entry liar / field Q / ring x, y / ideal x^2, y^2 / expect ci=false\n"
    entries = parse_corpus(bad)
    report = run_corpus(entries)
    assert report["summary"]["failed"] == 1
    entry = report["entries"][0]
    assert entry["name"] == "liar" and not entry["ok"]
    assert any(
        c["name"] == "expected_ci_flag" and c["status"] == "fail" for c in entry["checks"]
    )


def test_cache_roundtrip_and_transparency(tmp_path):
    entries = parse_corpus(MINI_CORPUS)
    plain = run_corpus(entries)
    cached_dir = str(tmp_path / "cache")
    first = run_corpus(entries, cache_dir=cached_dir)
    second = run_corpus(entries, cache_dir=cached_dir)  # all hits
    for report in (first, second):
        assert harness.strip_timings(report) == harness.strip_timings(plain)
    # insert-only: keys exist, lookup returns the stored result
    key = cache_key(entries[0])
    stored = cache_lookup(cached_dir, key)
    assert stored is not None and stored["name"] == "ci"
    cache_insert(cached_dir, key, {"name": "clobber"})
    assert cache_lookup(cached_dir, key)["name"] == "ci"


def test_report_text_rendering():
    entries = parse_corpus(MINI_CORPUS)
    report = run_corpus(entries)
    text = harness.report_to_text(report)
    assert "[ok] ci" in text and "2/2 entries ok" in text


# -- CLI ------------------------------------------------------------------


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(*args):
    """Runs the CLI in this process on ``args``; exceptions other than an
    exit propagate."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def test_cli_gb():
    out = run_cli("gb", "--ring", "x,y,z", "x^2 - y*z, x*y")
    assert out.exit_code == 0
    assert "y^2*z" in out.output


def test_cli_resolve_json():
    out = run_cli("resolve", "--ring", "x,y", "--module", "k", "--json", "x^2, y^2")
    assert out.exit_code == 0
    payload = json.loads(out.output)["result"]
    assert payload["betti_total"][:2] == [1, 2]
    assert payload["betti_bigraded"][0] == [0, 0, 1]


def test_cli_model_and_bracket():
    out = run_cli("model", "--ring", "x,y", "x^2, x*y")
    assert "t2_1 : 2 3 : y*t1_1 - x*t1_2" in out.output
    out2 = run_cli("bracket", "--ring", "x,y", "x^2, x*y")
    assert "[p2_2, p2_1] = 1*p4_1" in out2.output.replace("Fraction(1, 1)", "1")


def test_cli_theta_and_radical():
    out = run_cli("theta", "--ring", "x,y", "--z", "p2_1", "x^2, x*y")
    assert "theta_p2_1(t2_1) = y" in out.output
    out2 = run_cli("radical", "--ring", "x,y", "x^2, y^2")
    assert "RadicalWitness(1" in out2.output


def test_cli_labels_answers_from_a_truncated_model():
    # intdeg=10 is below Backelin's bound 13 for this ideal, and pi^5 comes
    # out with dim 3 rather than 6: every command read off the model says so
    # in its JSON and on stderr, and stdout stays the answer alone
    ideal_args = ["--ring", "x,y", "x^4, x^3*y, y^4"]
    warning = ("internal degree cap 10 is below Backelin's bound 13; "
               "variables above the cap are missing")
    out = run_cli("pi", "--bounds", "hdeg=4 intdeg=10", *ideal_args)
    assert "pi^5: dim 3 " in out.stdout and "warning" not in out.stdout
    assert out.stderr == f"warning: {warning}\n"
    full = run_cli("pi", "--bounds", "hdeg=4 intdeg=13", *ideal_args)
    assert "pi^5: dim 6 " in full.stdout and full.stderr == ""
    for command in (["model"], ["pi"], ["bracket"], ["theta", "--z", "p2_1"], ["radical"]):
        capped = run_cli(*command, "--json", "--bounds", "hdeg=4 intdeg=10", *ideal_args)
        assert json.loads(capped.stdout)["result"]["warnings"] == [warning], command
        assert capped.stderr == "", command


def test_cli_ci_and_verifiers():
    out = run_cli("ci", "--ring", "x,y", "x^2, x*y, y^2")
    assert "complete intersection: False" in out.output
    out2 = run_cli("verify-a", "--ring", "x,y", "--json", "x^2, y^2")
    assert json.loads(out2.output)["result"]["is_ci"] is True
    out3 = run_cli("verify-b", "--ring", "x,y", "--json", "x^2, x*y")
    payload = json.loads(out3.output)["result"]
    assert payload["is_ci"] is False and payload["gulliksen"] == "NoneFoundWithinBound"


def test_cli_jz():
    out = run_cli("jz", "--ring", "x", "x^2")
    assert "exact: True" in out.output


def test_cli_jz_reports_vanishing_partials_as_a_warning():
    # d(x^3) = 0 over GF(3): text mode says so on stderr alone, and the
    # JSON payload carries it under "warnings"
    ideal_args = ["--field", "F3", "--ring", "x,y", "x^3"]
    warning = "all partial derivatives of x^3 vanish (characteristic 3 effect)"
    out = run_cli("jz", *ideal_args)
    assert out.exit_code == 0 and "exact: True" in out.stdout
    assert out.stderr == f"warning: {warning}\n"
    as_json = run_cli("jz", "--json", *ideal_args)
    result = json.loads(as_json.stdout)["result"]
    assert result["exact"] is True and result["warnings"] == [warning]
    assert as_json.stderr == ""
    assert json.loads(run_cli("jz", "--json", "--ring", "x", "x^2").stdout)["result"]["warnings"] == []


def test_cli_koszul_and_conormal():
    out = run_cli("koszul", "--ring", "x,y", "x^2, x*y")
    assert "H1 minimal generators: 1" in out.output
    out2 = run_cli("conormal", "--ring", "x,y", "--json", "x^2, y^2")
    assert json.loads(out2.output)["result"]["mu"] == 2
    # route B needs a stage-2 model only, which GF(3) allows (p > 2)
    out3 = run_cli("conormal", "--field", "F3", "--ring", "x,y", "x^2, x*y")
    assert out3.exit_code == 0 and "minimal generators: 2" in out3.output


def test_cli_corpus_run(tmp_path):
    path = tmp_path / "mini.corpus"
    path.write_text(MINI_CORPUS)
    out = run_cli("corpus", "run", str(path))
    assert out.exit_code == 0
    assert "2/2 entries ok" in out.output
    # a wrong flag produces a nonzero exit and names the entry
    bad = tmp_path / "bad.corpus"
    bad.write_text("entry liar / field Q / ring x, y / ideal x^2, y^2 / expect ci=false\n")
    res = run_cli("corpus", "run", str(bad))
    assert res.exit_code == 1
    assert "liar" in res.output


def test_cli_bound_errors_are_one_line(tmp_path):
    bad = tmp_path / "bad.corpus"
    bad.write_text("entry a / ring x, y / ideal x^2 / bounds intdeg=abc\n")
    good = tmp_path / "good.corpus"
    good.write_text("entry a / ring x, y / ideal x^2\n")
    for args, message in (
        (["ci", "--bounds", "intdeg=-1", "--ring", "x,y", "x^2, x*y"],
         "Error: --bounds: bound intdeg must be a non-negative integer, got '-1'"),
        (["resolve", "--bounds", "intdeg=abc", "--ring", "x,y", "x^2"],
         "Error: --bounds: bound intdeg must be a non-negative integer, got 'abc'"),
        (["corpus", "run", str(bad)],
         "Error: line 1: bound intdeg must be a non-negative integer, got 'abc'"),
        (["corpus", "run", "--bounds", "hdeg=2", str(good)],
         "Error: line 1: hdeg must be at least 3, got 2"),
    ):
        out = run_cli(*args)
        assert out.exit_code != 0 and out.output == message + "\n", out.output


def test_cli_math_errors_are_one_line(tmp_path):
    bad = tmp_path / "bad.corpus"
    bad.write_text("entry a / ring x / ideal x^2 / expect h1mu=abc\n")
    hdeg = "Error: homological bound must be at least 2"

    def unknown(name):
        return (f"Error: no element {name} in pi (basis: p2_1, p2_2, p3_1, p4_1, p5_1, "
                "p5_2, p6_1, p6_2, p6_3)")

    for args, message in (
        *((["model", "--bounds", "hdeg=1", "--ring", "x,y", "x^2"], hdeg),
          (["pi", "--bounds", "hdeg=1", "--ring", "x,y", "x^2"], hdeg),
          (["bracket", "--bounds", "hdeg=1", "--ring", "x,y", "x^2"], hdeg),
          (["theta", "--bounds", "hdeg=1", "--z", "p2_1", "--ring", "x,y", "x^2"], hdeg),
          (["radical", "--bounds", "hdeg=1", "--ring", "x,y", "x^2"], hdeg)),
        *((["theta", "--z", "p2_9", "--ring", "x,y", "x^2, x*y"], unknown("p2_9")),
          (["radical", "--z", "nope", "--ring", "x,y", "x^2, x*y"], unknown("nope"))),
        (["resolve", "--ring", "x,y", "x^2 + y"], "Error: mixed degrees [1, 2] in x^2 + y"),
        (["ci", "--field", "F4", "--ring", "x", "x"], "Error: 4 is not prime"),
        (["gb", "--ring", "x,y", "x^2 + 1/0*y^2"], "Error: zero denominator in 1/0"),
        *(([command, *extra, "--ring", "x,y", "1"], "Error: ideal contains a unit")
          for command, extra in (("pi", ()), ("model", ()), ("bracket", ()),
                                 ("theta", ("--z", "p2_1")), ("radical", ()), ("conormal", ()),
                                 ("resolve", ("--module", "k")),
                                 ("resolve", ("--module", "conormal")),
                                 ("resolve", ("--module", "h1")))),
        (["radical", "--z", "p3_1", "--ring", "x,y", "x^2, x*y"],
         "Error: the radical probe is defined for degree-2 elements"),
        (["corpus", "run", str(bad)],
         "Error: line 1: expect h1mu must be an integer, got 'abc'"),
    ):
        out = run_cli(*args)
        assert out.exit_code == 1 and out.output == message + "\n", out.output


@pytest.mark.parametrize("vars_, gens", [
    ("x,y", "x^2, x*y"), ("x,y", "x^2, y^2"), ("x,y", "x^2, x*y, y^2"),
    ("x,y,z", "x*y, x*z, y*z"),
])
def test_cli_resolves_the_ideal_one_step_after_r_mod_i(vars_, gens):
    def resolve(module):
        out = run_cli("resolve", "--ring", vars_, "--module", module, "--json", gens)
        return json.loads(out.output)["result"]

    s, i = resolve("s"), resolve("ideal")
    assert i["betti_total"] == s["betti_total"][1:]
    assert i["betti_bigraded"] == [[k - 1, j, b] for k, j, b in s["betti_bigraded"] if k]
    assert i["status"]["at"] == s["status"]["at"] - 1


@pytest.mark.parametrize("module, gens, terminated, betti", [
    ("s", "x^2, x*y", False, [1]), ("h1", "x^2, x*y", False, [1]),
    ("s", "0", True, [1]), ("h1", "x^2, y^2", True, [0]),
])
def test_cli_resolve_to_length_zero_gives_f0_alone(module, gens, terminated, betti):
    # with relations the resolution is truncated at 0; without, it ends there
    out = run_cli("resolve", "--ring", "x,y", "--module", module, "--bounds", "reslen=0",
                  "--json", gens)
    payload = json.loads(out.output)["result"]
    assert payload["status"]["terminated"] is terminated and payload["status"]["at"] == 0
    assert payload["betti_total"] == betti


def test_the_module_entry_point_exits_with_the_command_code():
    # python -m cikit.cli runs sys.exit(main()), as the installed cikit script does
    src = os.path.dirname(os.path.dirname(harness.__file__))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "cikit.cli", *args], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))

    gb = cli("gb", "--ring", "x,y", "x^2, x*y")
    assert (gb.returncode, gb.stdout, gb.stderr) == (0, "x*y\nx^2\n", "")
    bad = cli("ci", "--field", "F4", "--ring", "x", "x")
    assert (bad.returncode, bad.stdout, bad.stderr) == (1, "", "Error: 4 is not prime\n")
    usage = cli("--help")
    assert usage.returncode == 0
    for command in ("gb", "resolve", "koszul", "conormal", "model", "pi", "bracket", "theta",
                    "radical", "ci", "verify-a", "verify-b", "jz", "corpus"):
        assert f"\n    {command} " in usage.stdout, command


# -- probe verdicts in the theorem checks ------------------------------------


def test_koszul_rigidity_on_x2_y2_xyz():
    # dim S = 1, so F_2 != 0 certifies infinite pd of H1; a resolution run
    # to a fixed length ran out of degrees and looked finite instead
    R3 = PolyRing(QQ, ["x", "y", "z"])
    rep, resolutions = harness.verify_koszul_rigidity(
        ideal(R3, "x^2", "y^2", "x*y*z"), Bounds())
    assert rep["h1_over_s"] == "Infinite(F_2 != 0; dim=1)"
    assert rep["status"] == "pass" and rep["bound"] is None
    assert len(resolutions["h1"].betti_totals()) == 3


def test_reslen_does_not_change_the_report():
    # dim S = 1 for (x^2, x*y): reslen=1 once stopped the probes before F_2,
    # but every probe runs its dim S + 1 steps and no check reads reslen
    default, capped = (
        harness.evaluate_entry(parse_corpus(
            f"entry e / field Q / ring x, y / ideal x^2, x*y{bounds}\n")[0])
        for bounds in ("", " / bounds reslen=1"))
    assert capped == default
    assert capped["ok"] and capped["data"]["h1_probe"] == "Infinite(F_2 != 0; dim=1)"


def _certified_finite(pres, degree_bound):
    """A certified Finite(0) for any presentation, as a wrong probe would
    give it."""
    free = ModulePresentation(pres.ring, pres.modulus, [0], [])
    res = minimal_free_resolution(free, 1, degree_bound)
    return ProjDimCertificate("finite", 0, res)


@pytest.mark.parametrize("verify", [harness.verify_conormal_rigidity,
                                    harness.verify_koszul_rigidity])
def test_a_certified_finite_verdict_on_a_non_ci_entry_raises(monkeypatch, R, verify):
    # (x^2, x*y) is no complete intersection, and at intdeg 12 both I/I^2
    # (Z_1 to Schreyer's 3) and H1 (relations to 4) are complete
    monkeypatch.setattr(harness, "projdim_probe", _certified_finite)
    with pytest.raises(harness.TheoremViolationSignal, match="non-CI entry with finite"):
        verify(ideal(R, "x^2", "x*y"), Bounds())


# -- cache keys and damaged cache files ----------------------------------------


def test_cache_key_covers_schema_and_results_version(monkeypatch):
    entry = parse_corpus(MINI_CORPUS)[0]
    key = cache_key(entry)
    # the pool is sent the entry itself, pickled
    assert cache_key(pickle.loads(pickle.dumps(entry))) == key
    monkeypatch.setattr(harness, "RESULTS_VERSION", harness.RESULTS_VERSION + 1)
    assert cache_key(entry) != key
    monkeypatch.undo()
    monkeypatch.setattr(harness, "SCHEMA", "cikit-report/0")
    assert cache_key(entry) != key


@pytest.mark.parametrize("damage", ["", "{\"name\": \"c", "[1, 2]", b"\xff\xfe"])
def test_unreadable_cache_file_is_a_miss_and_is_replaced(tmp_path, damage):
    entries = parse_corpus(MINI_CORPUS)[:1]
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / (cache_key(entries[0]) + ".json")
    if isinstance(damage, bytes):
        path.write_bytes(damage)
    else:
        path.write_text(damage)
    assert cache_lookup(str(cache_dir), cache_key(entries[0])) is None
    report = run_corpus(entries, cache_dir=str(cache_dir))
    assert report["summary"]["ok"] == 1
    assert cache_lookup(str(cache_dir), cache_key(entries[0]))["name"] == "ci"


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("stored", [
    {},
    {"name": "ci"},
    {"ok": True},
    {"name": "ci", "checks": [], "data": {}, "ok": 1},
    {"name": "ci", "checks": {}, "data": {}, "ok": True},
    {"name": "ci", "checks": [], "data": {}, "ok": True, "extra": 0},
])
def test_json_that_is_not_a_result_is_a_miss_and_is_replaced(tmp_path, stored, parallelism):
    entries = parse_corpus(MINI_CORPUS)
    plain = run_corpus(entries)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    key = cache_key(entries[0])
    (cache_dir / (key + ".json")).write_text(json.dumps(stored))
    report = run_corpus(entries, parallelism=parallelism, cache_dir=str(cache_dir))
    assert harness.strip_timings(report) == harness.strip_timings(plain)
    assert cache_lookup(str(cache_dir), key) == plain["entries"][0]


# -- one computation per invariant, positional results, contained crashes --------


@pytest.fixture
def fresh_pool():
    """Closes the kept pool before the test and after it: the test's
    parallel calls fork their workers after its patches, and no later test
    gets workers forked with them."""
    harness._close_pool()
    yield
    harness._close_pool()


def test_evaluate_entry_builds_route_a_and_h1_once_per_bound(corpus_entries, monkeypatch):
    # Every memoized computation of an entry is recorded with the syzygy
    # computations it runs itself (not inside a nested memoized one).  Each
    # entry must build Z_1, H1 and route A once: Z_1 and route A at Z_1's
    # bound, min(Schreyer's bound, intdeg), and H1 at intdeg.  Route A must
    # take its relations from Z_1, not run syzygies of its own.
    from cikit import groebner as gr

    shared = ("generator_syzygies", "koszul_h1", "conormal_route_a")
    builds, syzygy_owners, running = [], [], []
    memo, syzygy_generators = gr.Ideal.memo, gr.syzygy_generators

    def recording_memo(self, key, compute):
        def traced():
            builds.append(key)
            running.append(key[0])
            try:
                return compute()
            finally:
                running.pop()
        return memo(self, key, traced)

    def recording_syzygies(pres, degree_bound):
        syzygy_owners.append(running[-1] if running else None)
        return syzygy_generators(pres, degree_bound)

    monkeypatch.setattr(gr.Ideal, "memo", recording_memo)
    monkeypatch.setattr(gr, "syzygy_generators", recording_syzygies)
    for entry in corpus_entries:
        builds.clear()
        syzygy_owners.clear()
        assert harness.evaluate_entry(entry)["ok"], entry.name
        built = sorted(key for key in builds if key[0] in shared)
        cap = entry.bounds.intdeg
        z1_bound = min(entry.build()[1].generator_syzygy_bound(), cap)
        assert built == [("conormal_route_a", z1_bound), ("generator_syzygies", z1_bound),
                         ("koszul_h1", cap)], entry.name
        assert "generator_syzygies" in syzygy_owners, entry.name
        assert "conormal_route_a" not in syzygy_owners, entry.name


def test_evaluate_entry_builds_each_reduced_kahler_matrix_and_koszul_complex_once(
        corpus_entries, monkeypatch):
    # The kahler_complex check, route B and the H1 strand read the reduced
    # Kaehler matrices from one cache on the model, and the one Koszul
    # complex is the one H1 builds.  A matrix build is recorded under the degree asked
    # for when its presentation is constructed inside reduced_kahler_matrix;
    # the model's differential matrices are built outside it.
    from cikit import dgmodel, koszul

    asked, builds, complexes = [], [], []
    reduced = dgmodel.DgAlgebraModel.reduced_kahler_matrix
    presentation = dgmodel.ModulePresentation
    complex_init = koszul.KoszulComplex.__init__

    def recording_matrix(self, i):
        asked.append(i)
        try:
            return reduced(self, i)
        finally:
            asked.pop()

    def recording_presentation(*args):
        if asked:
            builds.append(asked[-1])
        return presentation(*args)

    def recording_init(self, *args):
        complexes.append(args)
        complex_init(self, *args)

    monkeypatch.setattr(dgmodel.DgAlgebraModel, "reduced_kahler_matrix", recording_matrix)
    monkeypatch.setattr(dgmodel, "ModulePresentation", recording_presentation)
    monkeypatch.setattr(koszul.KoszulComplex, "__init__", recording_init)
    entry = next(e for e in corpus_entries if e.name == "aci_x2_xy")
    assert entry.bounds.hdeg == 5
    assert harness.evaluate_entry(entry)["ok"]
    assert sorted(builds) == [2, 3, 4, 5]
    assert len(complexes) == 1


def test_evaluate_entry_counts_standard_monomials_once_per_degree(corpus_entries, monkeypatch):
    # The H_0 target of the model's acyclicity check and the S^n(-1) column
    # of the Jacobi-Zariski check read one count of (R/I)_d's standard
    # monomials per ideal and degree.
    from cikit import conormal, dgmodel
    from cikit import groebner as gr

    counted, readers = [], []
    standard_monomials = gr.standard_monomials
    by_monomials = gr.quotient_hilbert_by_monomials

    def recording_monomials(ideal, d):
        counted.append((id(ideal), d))
        return standard_monomials(ideal, d)

    def recording_hilbert(ideal, degree_bound):
        readers.append((id(ideal), degree_bound))
        return by_monomials(ideal, degree_bound)

    monkeypatch.setattr(gr, "standard_monomials", recording_monomials)
    for module in (dgmodel, conormal):
        monkeypatch.setattr(module, "quotient_hilbert_by_monomials", recording_hilbert)
    entry = next(e for e in corpus_entries if e.name == "node_hypersurface")
    assert harness.evaluate_entry(entry)["ok"]
    assert len(readers) == 2 and len({key for key, _ in readers}) == 1
    assert counted and len(counted) == len(set(counted))


def test_results_keyed_by_position_not_name():
    entries = parse_corpus(
        "entry a / field Q / ring x, y / ideal x^2\n"
        "entry a / field Q / ring x, y / ideal x^2, x*y\n"
    )
    report = run_corpus(entries)
    assert [r["data"]["is_ci"] for r in report["entries"]] == [True, False]
    assert len(report["timings"]) == 2 and all(t > 0 for t in report["timings"])


@pytest.mark.parametrize("parallelism", [1, 2])
def test_each_distinct_entry_is_computed_once_per_call(monkeypatch, fresh_pool, tmp_path,
                                                      parallelism):
    # pool workers are forked, so they count into a file, not a variable;
    # the count is taken inside evaluate_entry, which the pool is sent by
    # name, so the counter itself is never pickled
    log = tmp_path / "evaluated"
    original = harness._run_checks

    def counting(entry, checks, data):
        with open(log, "a") as fh:
            fh.write(entry.name + "\n")
        return original(entry, checks, data)

    monkeypatch.setattr(harness, "_run_checks", counting)
    entries = parse_corpus(
        "entry a / field Q / ring x, y / ideal x^2\n"
        "entry b / field Q / ring x, y / ideal x^2, x*y\n"
        "entry a / field Q / ring x, y / ideal x^2\n"
        "entry a / field Q / ring x, y / ideal x^2, y^2\n"
        "entry b / field Q / ring x, y / ideal x^2, x*y\n"
    )
    cache_dir = tmp_path / "cache"
    report = run_corpus(entries, parallelism=parallelism, cache_dir=str(cache_dir))
    assert sorted(log.read_text().split()) == ["a", "a", "b"]
    results = report["entries"]
    assert [r["name"] for r in results] == ["a", "b", "a", "a", "b"]
    assert [r["data"]["is_ci"] for r in results] == [True, False, True, True, False]
    assert results[2] == results[0] and results[4] == results[1]
    assert report["timings"][2] == report["timings"][4] == 0.0
    assert len(list(cache_dir.iterdir())) == 3


def test_a_crashed_entry_and_its_copies_are_not_cached(monkeypatch, tmp_path):
    def crashing(ideal, degree_bound):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "koszul_h1", crashing)
    entries = parse_corpus("entry a / field Q / ring x / ideal x^2\n" * 2)
    report = run_corpus(entries, cache_dir=str(tmp_path))
    assert [r["ok"] for r in report["entries"]] == [False, False]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_crash_fails_only_its_entry(monkeypatch, fresh_pool, parallelism):
    original = harness.koszul_h1

    def crashing(ideal, degree_bound):
        if ideal.ring.nvars == 2:
            raise RuntimeError("boom")
        return original(ideal, degree_bound)

    monkeypatch.setattr(harness, "koszul_h1", crashing)
    entries = parse_corpus(
        "entry one_var / field Q / ring x / ideal x^2 / expect ci=true\n"
        "entry two_vars / field Q / ring x, y / ideal x^2, y^2 / expect ci=true\n"
    )
    report = run_corpus(entries, parallelism=parallelism)
    good, bad = report["entries"]
    assert good["name"] == "one_var" and good["ok"]
    assert bad["name"] == "two_vars" and not bad["ok"]
    crashed = [c for c in bad["checks"] if c["name"] == "crashed"]
    assert crashed == [{"name": "crashed", "status": "fail", "detail": "RuntimeError: boom"}]
    assert report["summary"] == {"total": 2, "ok": 1, "failed": 1}


# -- the kept process pool -------------------------------------------------------


@pytest.fixture
def pool_builds(monkeypatch, fresh_pool):
    """The sizes of the pools built during the test, counted by a subclass
    patched in as ``concurrent.futures.ProcessPoolExecutor``."""
    sizes = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return sizes


def test_parallel_calls_share_one_pool_until_parallelism_changes(pool_builds):
    entries = parse_corpus(MINI_CORPUS)
    run_corpus(entries, parallelism=2)
    first = harness._pool[1]
    run_corpus(entries, parallelism=2)
    assert pool_builds == [2]
    assert run_corpus(entries, parallelism=3)["summary"]["failed"] == 0
    assert pool_builds == [2, 3]
    assert first._processes is None  # shut down before the new pool forked


def test_serial_and_single_entry_calls_build_no_pool(pool_builds, tmp_path):
    entries = parse_corpus(MINI_CORPUS)
    cache_dir = str(tmp_path / "cache")
    run_corpus(entries, parallelism=1, cache_dir=cache_dir)
    run_corpus(entries[:1], parallelism=2)
    run_corpus(entries[:1] * 2, parallelism=2)  # one cache key, one computation
    run_corpus(entries, parallelism=2, cache_dir=cache_dir)  # all cache hits
    assert pool_builds == []
    assert harness._pool is None


@pytest.mark.parametrize("noticed", [False, True])
def test_a_worker_killed_while_idle_fails_no_entry_of_the_next_call(fresh_pool, noticed):
    entries = parse_corpus(MINI_CORPUS)
    assert run_corpus(entries, parallelism=2)["summary"]["failed"] == 0
    pool = harness._pool[1]
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    if noticed:  # once the pool has seen the death, submit raises
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
    report = run_corpus(entries, parallelism=2)
    assert [r["ok"] for r in report["entries"]] == [True, True]
    if noticed:
        assert harness._pool[1] is not pool


def test_an_entry_that_kills_its_worker_is_crashed_and_not_cached(monkeypatch, fresh_pool,
                                                                   tmp_path):
    original = harness.koszul_h1
    main_pid = os.getpid()

    def dying(ideal, degree_bound):
        if os.getpid() == main_pid:
            raise RuntimeError("meant for pool workers only")
        os._exit(1)

    monkeypatch.setattr(harness, "koszul_h1", dying)
    entries = parse_corpus(MINI_CORPUS)
    cache_dir = tmp_path / "cache"
    report = run_corpus(entries, parallelism=2, cache_dir=str(cache_dir))
    for result in report["entries"]:
        [crashed] = result["checks"]
        assert crashed["name"] == "crashed" and crashed["status"] == "fail"
        assert crashed["detail"].startswith("BrokenProcessPool: ")
    assert report["summary"] == {"total": 2, "ok": 0, "failed": 2}
    assert not cache_dir.exists() or not list(cache_dir.iterdir())
    monkeypatch.setattr(harness, "koszul_h1", original)
    report = run_corpus(entries, parallelism=2, cache_dir=str(cache_dir))
    assert [r["ok"] for r in report["entries"]] == [True, True]
    assert len(list(cache_dir.iterdir())) == 2


def test_an_entry_that_kills_its_worker_crashes_no_other_entry(monkeypatch, fresh_pool,
                                                               tmp_path):
    # the killer breaks the pool, which fails every entry pending with it;
    # those are rerun one by one, so only the killer is crashed
    original = harness.koszul_h1
    main_pid = os.getpid()

    def dying(ideal, degree_bound):
        if os.getpid() == main_pid:
            raise RuntimeError("meant for pool workers only")
        if ideal.ring.nvars == 2:
            os._exit(1)
        return original(ideal, degree_bound)

    monkeypatch.setattr(harness, "koszul_h1", dying)
    entries = parse_corpus(
        "entry killer / field Q / ring x, y / ideal x^2, y^2 / expect ci=true\n"
        + "".join(f"entry power{e} / field Q / ring x / ideal x^{e} / expect ci=true\n"
                  for e in range(2, 8)))
    cache_dir = tmp_path / "cache"
    report = run_corpus(entries, parallelism=2, cache_dir=str(cache_dir))
    killer, *innocent = report["entries"]
    [crashed] = killer["checks"]
    assert crashed["name"] == "crashed" and crashed["detail"].startswith("BrokenProcessPool: ")
    assert [r["ok"] for r in innocent] == [True] * 6
    assert report["summary"] == {"total": 7, "ok": 6, "failed": 1}
    assert len(list(cache_dir.iterdir())) == 6


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _python(code, *args):
    """Runs ``code`` in a fresh interpreter that imports cikit from its sources."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_a_parallel_run_exits_cleanly_and_leaves_no_worker():
    proc = _python("import sys\n"
                   "from cikit import harness\n"
                   "report = harness.run_corpus(harness.parse_corpus(sys.argv[1]), parallelism=2)\n"
                   "assert report['summary']['failed'] == 0\n"
                   "print(*harness._pool[1]._processes)\n", MINI_CORPUS)
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2
    assert [pid for pid in pids if _running(pid)] == []


def test_importing_cikit_loads_no_process_pool_machinery():
    # multiprocessing, concurrent.futures and the logging it imports cost
    # every CLI start their import time, and only a pool needs them; click
    # is no longer a dependency at all
    proc = _python("import importlib, pkgutil, sys, cikit\n"
                   "for m in pkgutil.iter_modules(cikit.__path__):\n"
                   "    importlib.import_module('cikit.' + m.name)\n"
                   "print(*[m for m in sys.modules if m.startswith('multiprocessing')\n"
                   "        or m.split('.')[0] in ('click', 'concurrent', 'logging')])\n")
    assert proc.stdout.split() == []


# -- intdeg is a cap, not a verdict ---------------------------------------------


THEOREM_CHECKS = ("ci_criteria_agree", "theorem_conormal_consistency",
                  "theorem_koszul_consistency")


@pytest.mark.parametrize("cap", range(1, 12))
@pytest.mark.parametrize("name", ["plane_line", "aci_x2_xy", "m2_2vars", "three_lines"])
def test_a_low_cap_leaves_checks_inconclusive_not_failed(corpus_entries, name, cap):
    # caps below the model's Backelin bound (6 on these entries) and Z_1's
    # Schreyer bound (3 or 4): at 2, 3 and 4 on plane_line and aci_x2_xy
    # the truncation used to raise the theorem tripwires or make the two CI
    # criteria disagree
    entry = next(e for e in corpus_entries if e.name == name)
    capped = harness.CorpusEntry(entry.name, entry.field_spec, entry.ring_vars,
                                 entry.ideal_strs, Bounds(intdeg=cap), entry.expect)
    checks = {c["name"]: c for c in harness.evaluate_entry(capped)["checks"]}
    for check in THEOREM_CHECKS:
        assert checks[check]["status"] in ("pass", "inconclusive"), checks[check]
        if checks[check]["status"] == "inconclusive":
            assert checks[check]["bound"] == cap, checks[check]
    failed = [c for c in checks.values() if c["status"] == "fail"]
    assert not failed, failed


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(homogeneous_ideals(max_vars=3), st.integers(1, 12))
def test_no_cap_raises_a_tripwire(ring_gens, cap):
    # raises TheoremViolationSignal or CriteriaDisagree on a bug; a verdict
    # is certified or labelled with the cap (dim S + 1 <= 4 steps)
    ring, gens = ring_gens
    I = Ideal(ring, gens)
    bounds = Bounds(intdeg=cap)
    ci_certificate(I, cap)
    for rep in (harness.verify_conormal_rigidity(I, bounds)[0],
                harness.verify_koszul_rigidity(I, bounds)[0]):
        assert (rep["status"], rep["bound"]) in (("pass", None), ("inconclusive", cap)), rep
