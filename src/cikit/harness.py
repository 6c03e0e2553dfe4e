"""Corpus management, certificates, theorem verifiers, reports, cache.

The harness treats the rigidity theorems as proved facts: on corpus entries
they become consistency tripwires.  Every inconclusive verdict carries its
truncation bound; reports are deterministic (timings live in a separate,
stripped section).  Every check the report can carry has a mutation of the
library in ``tests/test_check_census.py`` under which it fails; a check
whose property holds by the construction of the object it checks is not
made.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from . import conormal as conormal_mod
from . import homlie as homlie_mod
from .dgmodel import (
    build_minimal_model,
    verify_kahler_complex,
    verify_model_acyclicity,
)
from .fields import Field
from .groebner import Ideal, height, ideal_as_module
from .koszul import h1_free_summand_probe, koszul_h1
from .poly import PolyRing, parse_poly_list
from .resolution import projdim_probe, verify_composites, verify_resolution

SCHEMA = "cikit-report/3"
# Part of every cache key: bump whenever a fix can change a computed result,
# so that results cached before the fix are never served after it.
RESULTS_VERSION = 7


class CriteriaDisagree(RuntimeError):
    """The two complete-intersection certificates disagreed (a bug)."""


class TheoremViolationSignal(RuntimeError):
    """A proved implication failed on an entry (a bug, not mathematics)."""


class CorpusError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bounds


class Bounds:
    """Truncation bounds of one entry.

    ``hdeg`` bounds the model's homological degree and the Ext cross-check's
    degrees; a corpus entry needs hdeg >= 3 (the Koszul-strand check reads
    X_3, the radical probe pi^hdeg above pi^2).  ``intdeg`` is a cap on
    internal degrees, not a verdict: Z_1 runs to Schreyer's bound
    (:meth:`Ideal.generator_syzygy_bound`) and the model to Backelin's
    (:func:`ext_degree_bound` at hdeg + 1), each capped by ``intdeg``.
    Those two are complete unless the cap is below their bound; then a
    comparison against them that fails is ``inconclusive`` with the cap.
    The probe of R/I over R runs each syzygy step to the Taylor bound of
    in(I) (:meth:`Ideal.taylor_degree_bounds`), and H1's own relations run
    to a bound derived from it (see :mod:`cikit.koszul`), each capped by
    ``intdeg``.  The syzygy steps of the probes over S and the compared
    Hilbert lists run to ``intdeg`` itself, except that a resolution of k
    stops at Backelin's bound when that is lower.  Every probe stops at dim S + 1
    steps, where Auslander-Buchsbaum decides.  ``reslen`` is read by no
    check: it is the length bound of ``cikit resolve`` only.
    """

    __slots__ = ("hdeg", "intdeg", "reslen")

    def __init__(self, hdeg=5, intdeg=12, reslen=8):
        self.hdeg = hdeg
        self.intdeg = intdeg
        self.reslen = reslen

    @property
    def resdeg(self) -> int:
        """``intdeg``, as the benchmark's ``resolve`` requests read it."""
        return self.intdeg

    def to_dict(self):
        return {"hdeg": self.hdeg, "intdeg": self.intdeg, "reslen": self.reslen}

    @staticmethod
    def parse(text: str, base: "Bounds | None" = None) -> "Bounds":
        out = Bounds() if base is None else Bounds(**base.to_dict())
        text = text.replace(",", " ")
        for part in text.split():
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in ("hdeg", "intdeg", "reslen"):
                raise CorpusError(f"unknown bound {key!r}")
            if not (val.isascii() and val.isdigit()):
                raise CorpusError(f"bound {key} must be a non-negative integer, got {val!r}")
            setattr(out, key, int(val))
        return out


# ---------------------------------------------------------------------------
# complete intersection certificate


def ci_certificate(ideal: Ideal, degree_bound: int) -> dict:
    """CI iff mu(I) = height(I), which is exact; independently iff the
    first Koszul homology vanishes, which is certified when Z_1 is complete
    (its Schreyer bound is within the degree bound, a cap).  Certified
    criteria must agree or the run aborts; below the Schreyer bound,
    ``h1_mu == 0`` against ``is_ci`` says whether they agreed.

    Computed once per ideal and degree bound (:meth:`Ideal.memo`); a
    disagreement raises again on every call.  The dict is shared, so
    callers must not modify it."""

    def compute():
        h1 = koszul_h1(ideal, degree_bound)
        mu = len(ideal.minimal_generators())
        ht = height(ideal)
        is_ci = mu == ht
        if h1.is_zero() != is_ci and ideal.generator_syzygy_bound() <= degree_bound:
            raise CriteriaDisagree(
                f"H1 says CI={h1.is_zero()} but mu={mu}, height={ht} says CI={is_ci}"
            )
        return {"is_ci": is_ci, "mu": mu, "height": ht,
                "h1_mu": h1.minimal_generator_count()}

    return ideal.memo(("ci_certificate", degree_bound), compute)


# ---------------------------------------------------------------------------
# theorem verifiers


def _evidence(probe, complete: bool, is_ci: bool, module: str) -> dict:
    """How far a theorem check's probe evidence reaches: ``pass`` with no
    bound for a certified verdict (``probe.certified``; a finite one also
    needs a presentation that is ``complete`` in every degree), and
    ``inconclusive`` with the degree cap otherwise.  A ``pass`` is held to
    the theorem, and raises when it contradicts it: the module has finite
    projective dimension iff the ideal is a complete intersection, and a
    non-CI resolution has no zero Betti number."""
    if not (probe.is_infinite() or (complete and probe.certified)):
        return {"status": "inconclusive", "bound": probe.resolution.degree_bound}
    if probe.is_finite() != is_ci:
        raise TheoremViolationSignal(
            f"non-CI entry with finite {module} projective dimension" if probe.is_finite()
            else f"CI entry with infinite {module} projective dimension")
    betti = probe.resolution.betti_totals()
    if not is_ci and any(b <= 0 for b in betti):
        raise TheoremViolationSignal(
            f"non-CI {module} resolution has a zero Betti number: {betti}")
    return {"status": "pass", "bound": None}


def verify_conormal_rigidity(ideal: Ideal, bounds: Bounds):
    """Conormal-module side: S has finite projdim over R (Hilbert's
    syzygy theorem), so if I/I^2 has finite projdim over S then I must be
    a complete intersection, whose I/I^2 is free.  The probe of route A
    raises when a certified verdict (``status`` pass) contradicts the CI
    certificate (:func:`_evidence`).  Route A is complete when Z_1 is; a
    verdict the degree cap bounds is ``inconclusive`` with the cap.

    Returns (report, probe resolutions)."""
    cap = bounds.intdeg
    cert = ci_certificate(ideal, cap)
    s_probe = projdim_probe(ideal_as_module(ideal), cap)
    con_probe = projdim_probe(conormal_mod.conormal_route_a(ideal, cap), cap)
    report = {
        "is_ci": cert["is_ci"],
        "s_over_r": repr(s_probe),
        "conormal_over_s": repr(con_probe),
        "conormal_free": con_probe.is_finite() and con_probe.value == 0,
        "betti_conormal": con_probe.resolution.betti_totals(),
        **_evidence(con_probe, ideal.generator_syzygy_bound() <= cap, cert["is_ci"],
                    "conormal"),
    }
    return report, {"s_over_r": s_probe.resolution, "conormal": con_probe.resolution}


def verify_koszul_rigidity(ideal: Ideal, bounds: Bounds):
    """First-Koszul-homology side, plus the free-summand probe: H1 of
    finite projdim, or with a free summand, forces a complete intersection,
    whose H1 is zero.  A nonzero H1 is certified (its generators come from
    Z_1 below the cap), H1 = 0 when Z_1 is complete.  H1's presentation is
    complete when its relations' derived bound is within the cap, and the
    probe then reads its evidence as route A's does: a certified verdict
    that contradicts the CI certificate raises.  A free summand found on a
    non-CI entry is ``inconclusive`` with the cap and never raises.

    Returns (report, probe resolutions)."""
    cap = bounds.intdeg
    cert = ci_certificate(ideal, cap)
    h1 = koszul_h1(ideal, cap)
    report = {"is_ci": cert["is_ci"], "h1_mu": h1.minimal_generator_count()}
    if cert["is_ci"]:
        if not h1.is_zero():
            raise TheoremViolationSignal("CI entry with nonzero first Koszul homology")
        report["h1_over_s"] = "Finite(0)"
        report["gulliksen"] = h1_free_summand_probe(h1)
        complete = ideal.generator_syzygy_bound() <= cap
        report.update(status="pass" if complete else "inconclusive",
                      bound=None if complete else cap)
        return report, {}
    probe = projdim_probe(h1.presentation, cap)
    report["h1_over_s"] = repr(probe)
    report["betti_h1"] = probe.resolution.betti_totals()
    report.update(_evidence(probe, h1.complete, is_ci=False, module="H1"))
    report["gulliksen"] = h1_free_summand_probe(h1)
    if report["gulliksen"] == "FreeSummand":
        report.update(status="inconclusive", bound=cap)
    return report, {"h1": probe.resolution}


# ---------------------------------------------------------------------------
# corpus entries


class CorpusEntry:
    __slots__ = ("name", "field_spec", "ring_vars", "ideal_strs", "bounds", "expect")

    def __init__(self, name, field_spec, ring_vars, ideal_strs, bounds, expect):
        self.name = name
        self.field_spec = field_spec
        self.ring_vars = ring_vars
        self.ideal_strs = ideal_strs
        self.bounds = bounds
        self.expect = expect

    def to_dict(self):
        return {
            "name": self.name,
            "field": self.field_spec,
            "ring": list(self.ring_vars),
            "ideal": list(self.ideal_strs),
            "bounds": self.bounds.to_dict(),
            "expect": dict(sorted(self.expect.items())),
        }

    def build(self):
        field = Field.parse(self.field_spec)
        ring = PolyRing(field, self.ring_vars)
        ideal = Ideal(ring, parse_poly_list(ring, ", ".join(self.ideal_strs)))
        return ring, ideal


def _parse_expect_value(key, val):
    if key in ("ci", "h1zero", "conormal_free"):
        if val not in ("true", "false"):
            raise CorpusError(f"expect {key} must be true/false, got {val!r}")
        return val == "true"
    try:
        if key in ("deviations", "ext"):
            return [int(x) for x in val.split(",") if x]
        if key == "h1mu":
            return int(val)
    except ValueError:
        kind = "an integer" if key == "h1mu" else "comma-separated integers"
        raise CorpusError(f"expect {key} must be {kind}, got {val!r}") from None
    raise CorpusError(f"unknown expect key {key!r}")


def parse_corpus(text: str, base_bounds: Bounds | None = None):
    """Parse the corpus text format: one entry per line, `/`-separated
    clauses `entry NAME / field Q | Fp p / ring x, y / ideal f, g / bounds
    k=v... / expect k=v...`, with `#` comments."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        clauses = [c.strip() for c in line.split("/")]
        name = None
        field_spec = "Q"
        ring_vars: list[str] = []
        ideal_strs: list[str] = []
        bounds = Bounds.parse("", base_bounds)
        expect: dict = {}
        for clause in clauses:
            if not clause:
                continue
            key, _, rest = clause.partition(" ")
            rest = rest.strip()
            if key == "entry":
                name = rest
            elif key == "field":
                field_spec = rest
            elif key == "ring":
                ring_vars = [v.strip() for v in rest.split(",") if v.strip()]
            elif key == "ideal":
                ideal_strs = [f.strip() for f in rest.split(",") if f.strip()]
            elif key == "bounds":
                try:
                    bounds = Bounds.parse(rest, bounds)
                except CorpusError as exc:
                    raise CorpusError(f"line {lineno}: {exc}") from None
            elif key == "expect":
                for pair in rest.split():
                    k, _, v = pair.partition("=")
                    try:
                        expect[k] = _parse_expect_value(k, v)
                    except CorpusError as exc:
                        raise CorpusError(f"line {lineno}: {exc}") from None
            else:
                raise CorpusError(f"line {lineno}: unknown clause {key!r}")
        if not name:
            raise CorpusError(f"line {lineno}: missing entry name")
        if not ring_vars:
            raise CorpusError(f"line {lineno}: missing ring")
        if bounds.hdeg < 3:
            raise CorpusError(f"line {lineno}: hdeg must be at least 3, got {bounds.hdeg}")
        for key, most in (("deviations", bounds.hdeg), ("ext", bounds.hdeg + 1)):
            if len(expect.get(key, ())) > most:
                raise CorpusError(f"line {lineno}: expect {key} has more than {most} values")
        if expect.get("ci") and not (
            expect.get("h1zero", True) and expect.get("conormal_free", True)
        ):
            raise CorpusError(
                f"line {lineno}: inconsistent flags (ci requires h1zero and conormal_free)"
            )
        entries.append(
            CorpusEntry(name, field_spec, tuple(ring_vars), tuple(ideal_strs), bounds, expect)
        )
    return entries


# ---------------------------------------------------------------------------
# per-entry evaluation


def _check(checks, name, ok, detail=None, bound=None, inconclusive=False):
    status = "pass" if ok else ("inconclusive" if inconclusive else "fail")
    entry = {"name": name, "status": status}
    if bound is not None:
        entry["bound"] = bound
    if detail:
        entry["detail"] = detail if isinstance(detail, str) else "; ".join(detail)
    checks.append(entry)


def _compare(checks, name, ok, complete, cap, detail=None):
    """A comparison against Z_1 or the model: when the degree cap stopped
    that evidence below its derived bound (``complete`` false), a mismatch
    is ``inconclusive`` with the cap, not a failure."""
    _check(checks, name, ok, detail=detail, bound=None if ok or complete else cap,
           inconclusive=not complete)


def _crashed(checks, exc):
    _check(checks, "crashed", False, detail=f"{type(exc).__name__}: {exc}")


def _result(name, checks, data) -> dict:
    ok = all(c["status"] == "pass" for c in checks)
    result = {"name": name, "checks": checks, "data": data, "ok": ok}
    # canonical JSON form, so cached and fresh results are indistinguishable
    return json.loads(json.dumps(result, sort_keys=True))


def evaluate_entry(entry: CorpusEntry) -> dict:
    """Run the full invariant and theorem suite on one corpus entry.

    An exception that escapes the suite ends it with a failed ``crashed``
    check after the checks already made, so one entry cannot abort a run."""
    checks: list = []
    data: dict = {}
    try:
        _run_checks(entry, checks, data)
    except Exception as exc:
        _crashed(checks, exc)
    return _result(entry.name, checks, data)


def _run_checks(entry: CorpusEntry, checks: list, data: dict):
    bounds = entry.bounds
    cap = bounds.intdeg
    try:
        ring, ideal = entry.build()
    except Exception as exc:
        _check(checks, "parse", False, detail=str(exc))
        return

    is_char0 = ring.field.is_rationals
    z1_complete = ideal.generator_syzygy_bound() <= cap
    try:
        model = build_minimal_model(ideal, bounds.hdeg, cap)
        data["deviations"] = model.deviations()
        data["model_warnings"] = list(model.warnings)
        _check(checks, "model_built", True)
    except Exception as exc:
        _check(checks, "model_built", False, detail=str(exc))
        return

    fails = verify_model_acyclicity(model)
    _check(checks, "model_acyclicity", not fails, detail=fails, bound=model.intdeg_bound)

    fails = verify_kahler_complex(model)
    _check(checks, "kahler_complex", not fails, detail=fails)

    pi = homlie_mod.compute_pi(model)
    data["pi_dims"] = [pi.dim(i) for i in range(2, pi.N + 1)]
    fails = homlie_mod.check_jacobi(pi)
    _check(checks, "lie_jacobi", not fails, detail=fails)

    try:
        for z in pi.by_degree.get(2, []):
            homlie_mod.induced_ad(homlie_mod.theta(model, z), z, pi)
        _check(checks, "theta_induces_minus_ad", True)
    except Exception as exc:
        _check(checks, "theta_induces_minus_ad", False, detail=str(exc))

    both_complete = z1_complete and model.complete
    try:
        con = conormal_mod.conormal(ideal, cap, model)
        data["conormal_mu"] = con.mu
        data["conormal_hilbert"] = con.hilbert
        _check(checks, "conormal_routes_agree", True)
    except conormal_mod.RouteDisagreement as exc:
        _compare(checks, "conormal_routes_agree", False, both_complete, cap, detail=str(exc))
    except Exception as exc:
        _check(checks, "conormal_routes_agree", False, detail=str(exc))

    h1 = koszul_h1(ideal, cap)
    data["h1_mu"] = h1.minimal_generator_count()
    eps = model.deviations()
    x2 = eps[1] if len(eps) > 1 else 0
    _compare(checks, "x2_matches_koszul_h1_mu", x2 == data["h1_mu"], both_complete, cap,
             detail=f"|X_2|={x2}, mu(H1)={data['h1_mu']}")
    _check(checks, "h1_hilbert_two_routes",
           h1.hilbert_function(cap) == h1.direct_hilbert_function(cap))

    ok, info = conormal_mod.koszul_strand_crosscheck(ideal, cap, model)
    _compare(checks, "kahler_strand_matches_h1", ok, both_complete, cap,
             detail=None if ok else json.dumps(info))

    try:
        ext = homlie_mod.ext_crosscheck(model)
        data["ext_dims"] = ext
        _check(checks, "ext_crosscheck", True)
    except homlie_mod.DimensionMismatch as exc:
        _compare(checks, "ext_crosscheck", False, model.complete, cap, detail=str(exc))
    except Exception as exc:
        _check(checks, "ext_crosscheck", False, detail=str(exc))

    try:
        cert = ci_certificate(ideal, cap)
        data.update(cert)
        agree = (cert["h1_mu"] == 0) == cert["is_ci"]
        _compare(checks, "ci_criteria_agree", agree, z1_complete, cap,
                 detail=None if agree else f"H1 zero={cert['h1_mu'] == 0} within the cap")
        if "ci" in entry.expect:
            _check(checks, "expected_ci_flag", cert["is_ci"] == entry.expect["ci"],
                   detail=f"computed {cert['is_ci']}, expected {entry.expect['ci']}")
    except CriteriaDisagree as exc:
        cert = None
        _check(checks, "ci_criteria_agree", False, detail=str(exc))

    probe_resolutions = {}
    conormal_free = None
    try:
        rep, resolutions = verify_conormal_rigidity(ideal, bounds)
        probe_resolutions.update(resolutions)
        conormal_free = rep["conormal_free"]
        data["conormal_probe"] = rep["conormal_over_s"]
        data["betti_conormal"] = rep["betti_conormal"]
        _check(checks, "theorem_conormal_consistency", rep["status"] == "pass",
               bound=rep["bound"], inconclusive=True)
    except Exception as exc:
        _check(checks, "theorem_conormal_consistency", False, detail=str(exc))

    try:
        rep, resolutions = verify_koszul_rigidity(ideal, bounds)
        probe_resolutions.update(resolutions)
        data["h1_probe"] = rep["h1_over_s"]
        data["gulliksen"] = rep.get("gulliksen")
        if "betti_h1" in rep:
            data["betti_h1"] = rep["betti_h1"]
        _check(checks, "theorem_koszul_consistency", rep["status"] == "pass",
               bound=rep["bound"], inconclusive=True)
    except Exception as exc:
        _check(checks, "theorem_koszul_consistency", False, detail=str(exc))

    # d^2 = 0 across every computed resolution; the S-over-R resolution gets
    # the full slice-exactness suite as well (it is small, over R)
    fails: list = []
    for label, res in sorted(probe_resolutions.items()):
        for f in verify_composites(res):
            fails.append(f"{label}: {f}")
    _check(checks, "resolution_d2", not fails, detail=fails)
    if "s_over_r" in probe_resolutions:
        fails = verify_resolution(probe_resolutions["s_over_r"], ideal_as_module(ideal))
        _check(checks, "resolution_exactness_s_over_r", not fails, detail=fails)

    if "h1zero" in entry.expect:
        _compare(checks, "expected_h1zero", h1.is_zero() == entry.expect["h1zero"],
                 z1_complete, cap)
    if "conormal_free" in entry.expect and conormal_free is not None:
        _compare(checks, "expected_conormal_free",
                 conormal_free == entry.expect["conormal_free"], z1_complete, cap)

    verdicts = []
    for z in pi.by_degree.get(2, []):
        v = homlie_mod.radical_probe(pi, z)
        verdicts.append({"z": z.name, "kind": v.kind,
                         "data": v.data if not isinstance(v.data, list) else list(v.data),
                         "bound": v.bound})
    data["radical"] = verdicts
    if cert is not None and cert["is_ci"]:
        ok = all(v["kind"] == "radical_witness" for v in verdicts)
        _check(checks, "ci_radical_witnesses", ok, bound=pi.N)
        # every bracket lands in pi^{>=4}, so this also says the brackets vanish
        _check(checks, "ci_pi_structure", all(pi.dim(i) == 0 for i in range(3, pi.N + 1)))

    if is_char0:
        jz = conormal_mod.jacobi_zariski_check(ideal, cap)
        _check(checks, "jacobi_zariski_exact", jz.exact, detail=jz.failures, bound=cap)
        data["jz_table"] = jz.rows()

    if "deviations" in entry.expect:
        want = entry.expect["deviations"]
        got = data["deviations"][: len(want)]
        _compare(checks, "frozen_deviations", got == want, model.complete, cap,
                 detail=f"computed {got}")
    if "ext" in entry.expect:
        # exact, but recorded only when the model reproduces them
        want = entry.expect["ext"]
        got = data.get("ext_dims", [])[: len(want)]
        _compare(checks, "frozen_ext", got == want, model.complete, cap,
                 detail=f"computed {got}")
    if "h1mu" in entry.expect:
        _compare(checks, "frozen_h1mu", data["h1_mu"] == entry.expect["h1mu"], z1_complete,
                 cap, detail=f"computed {data['h1_mu']}")


# ---------------------------------------------------------------------------
# result cache (content-addressed, insert-only)


def cache_key(entry: CorpusEntry) -> str:
    blob = json.dumps(
        {"entry": entry.to_dict(), "schema": SCHEMA, "results": RESULTS_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


_RESULT_FIELDS = {"name": str, "checks": list, "data": dict, "ok": bool}


def _read_cached(path: str):
    """The result stored at ``path``, or None when it is missing or
    unreadable (truncated, not JSON, not a result object: exactly the
    fields of :func:`_result`, with their types)."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, ValueError):
        return None
    if (isinstance(value, dict) and value.keys() == _RESULT_FIELDS.keys()
            and all(isinstance(value[k], t) for k, t in _RESULT_FIELDS.items())):
        return value
    return None


def cache_lookup(cache_dir: str | None, key: str):
    if not cache_dir:
        return None
    return _read_cached(os.path.join(cache_dir, key + ".json"))


def cache_insert(cache_dir: str | None, key: str, value: dict):
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    if _read_cached(path) is not None:
        return  # insert-only; an unreadable file is replaced
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(value, fh, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# corpus runs


# The process pool of parallel corpus runs, kept across calls as
# (parallelism, executor), or None before the first parallel call.
_pool = None


def _kept_pool(parallelism: int):
    """The kept pool with ``parallelism`` workers, built on first use.  A
    pool of another size is shut down first: forking while its threads run
    is unsafe.  ``concurrent.futures`` is imported here and in
    ``_pool_round``, not with this module, so that a process that never
    builds a pool never loads it (nor the ``logging`` it imports); its
    ``ProcessPoolExecutor`` is looked up at build time, so that a patched
    class is the one built."""
    global _pool
    import concurrent.futures

    if _pool is not None and _pool[0] != parallelism:
        _close_pool()
    if _pool is None:
        _pool = (parallelism, concurrent.futures.ProcessPoolExecutor(max_workers=parallelism))
    return _pool[1]


def _close_pool():
    """Shut the kept pool down and join its workers; the next parallel call
    builds a fresh one."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _crashed_result(name, exc) -> dict:
    checks: list = []
    _crashed(checks, exc)
    return _result(name, checks, {})


def _run_in_pool(entries, to_compute, parallelism, finish):
    """Evaluate ``to_compute`` ((position, key) pairs) in the kept pool.  The
    entries a broken pool failed run once more, each alone, so that an entry
    that kills its worker fails no other; one that fails alone is crashed.
    Any other exception closes the pool, so that no later call queues
    behind this call's work."""
    try:
        for i, key, _, _ in _pool_round(entries, to_compute, parallelism, finish):
            for j, k, t0, exc in _pool_round(entries, [(i, key)], parallelism, finish):
                finish(j, k, t0, _crashed_result(entries[j].name, exc))
    except BaseException:
        _close_pool()
        raise


def _pool_round(entries, to_compute, parallelism, finish):
    """Submit ``to_compute`` to the kept pool (a fresh one if the last was
    closed) and finish each entry it evaluates.  Returns the entries a
    broken pool failed, found at submit or by a future, as (position, key,
    t0, exception); the broken pool is closed."""
    import concurrent.futures

    pool = _kept_pool(parallelism)
    futures = {}
    broken = []
    for n, (i, key) in enumerate(to_compute):
        t0 = time.monotonic()
        try:
            fut = pool.submit(evaluate_entry, entries[i])
        except concurrent.futures.BrokenExecutor as exc:
            broken += [(j, k, t0, exc) for j, k in to_compute[n:]]
            break
        futures[fut] = (i, key, t0)
    for fut in concurrent.futures.as_completed(futures):
        i, key, t0 = futures[fut]
        try:
            result = fut.result()
        except concurrent.futures.BrokenExecutor as exc:
            broken.append((i, key, t0, exc))
            continue
        except Exception as exc:  # the task or its result could not be sent
            result = _crashed_result(entries[i].name, exc)
        finish(i, key, t0, result)
    if broken:
        _close_pool()
    return broken


def run_corpus(
    entries,
    parallelism: int = 1,
    cache_dir: str | None = None,
) -> dict:
    """Evaluate all entries; returns the aggregate report, with results and
    timings (ms, 0.0 for a cache hit or a repeat) in entry order.  Entries
    are independent; with parallelism > 1 and more than one entry to
    compute they run in a process pool.  The pool is kept for the process
    and reused by later calls; it is replaced when it breaks or when
    ``parallelism`` changes, and its workers are joined at interpreter exit.
    Entries with one cache key are evaluated once, and every copy gets that
    result.  Cached and uncached runs produce identical reports.  A crashed
    entry (see :func:`evaluate_entry`, and :func:`_run_in_pool` for a pool
    worker that died) is reported, not cached."""
    entries = list(entries)
    keys = [cache_key(entry) for entry in entries]
    first: dict = {}  # cache key -> position of its first entry
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    ordered: list = [None] * len(entries)
    timings = [0.0] * len(entries)
    to_compute = []
    for key, i in first.items():
        hit = cache_lookup(cache_dir, key)
        if hit is not None:
            ordered[i] = hit
        else:
            to_compute.append((i, key))

    def finish(i, key, t0, result):
        timings[i] = round((time.monotonic() - t0) * 1000.0, 3)
        if all(c["name"] != "crashed" for c in result["checks"]):
            cache_insert(cache_dir, key, result)
        ordered[i] = result

    if parallelism > 1 and len(to_compute) > 1:
        _run_in_pool(entries, to_compute, parallelism, finish)
    else:
        for i, key in to_compute:
            t0 = time.monotonic()
            finish(i, key, t0, evaluate_entry(entries[i]))

    ordered = [ordered[first[key]] for key in keys]
    ok_count = sum(1 for r in ordered if r["ok"])
    return {
        "schema": SCHEMA,
        "entries": ordered,
        "summary": {"total": len(ordered), "ok": ok_count, "failed": len(ordered) - ok_count},
        "timings": timings,
    }


def run_corpus_file(path: str, parallelism: int = 1, cache_dir: str | None = None,
                    base_bounds: Bounds | None = None) -> dict:
    with open(path) as fh:
        entries = parse_corpus(fh.read(), base_bounds)
    return run_corpus(entries, parallelism, cache_dir)


def report_to_text(report: dict) -> str:
    lines = []
    for entry in report["entries"]:
        mark = "ok" if entry["ok"] else "FAIL"
        lines.append(f"[{mark}] {entry['name']}")
        for c in entry["checks"]:
            status = c["status"]
            extra = ""
            if "bound" in c:
                extra += f" (bound {c['bound']})"
            if status != "pass" and c.get("detail"):
                extra += f" :: {c['detail']}"
            lines.append(f"    {status:12s} {c['name']}{extra}")
    s = report["summary"]
    lines.append(f"{s['ok']}/{s['total']} entries ok")
    return "\n".join(lines)


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)
