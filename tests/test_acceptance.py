"""Acceptance suite: each criterion prints one pass/fail line.

The shipped corpus drives everything; a session-scoped fixture computes the
full report once and the criteria interrogate it.  Criterion 1 re-runs the
structural invariant phase on its own clock.
"""

import itertools
import json
import os
import pathlib
import time

import pytest

from cikit import harness
from cikit.dgmodel import (
    build_minimal_model,
    verify_kahler_complex,
    verify_model_acyclicity,
    verify_model_differential,
)
from cikit.groebner import krull_dimension
from cikit.koszul import koszul_complex

from conftest import check_status, entry_by_name

FROZEN_REPORT = pathlib.Path(__file__).resolve().parent / "data" / "standard.report.json"


def _require(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert condition, f"{name} failed: {detail}"


def _all_pass(report, check_name):
    """The entries on which the named check did not pass; a check that no
    entry carries is reported, so a deleted or renamed name fails too."""
    statuses = {entry["name"]: check_status(entry, check_name) for entry in report["entries"]}
    if all(status is None for status in statuses.values()):
        return [f"no entry carries {check_name}"]
    return [name for name, status in statuses.items() if status not in (None, "pass")]


def test_criterion_1_structural_exactness(corpus_report, corpus_entries):
    assert len(corpus_entries) >= 12
    t0 = time.monotonic()
    for entry in corpus_entries:
        _, ideal = entry.build()
        model = build_minimal_model(ideal, entry.bounds.hdeg, entry.bounds.intdeg)
        fails = verify_model_differential(model) + verify_model_acyclicity(model)
        assert not fails, (entry.name, fails)
        assert koszul_complex(ideal).verify_d_squared(), entry.name
        assert verify_kahler_complex(model) == [], entry.name
    elapsed = time.monotonic() - t0

    # resolution d^2 = 0 checks ran inside the corpus evaluation
    bad = _all_pass(corpus_report, "resolution_d2")
    bad += _all_pass(corpus_report, "resolution_exactness_s_over_r")
    bad += _all_pass(corpus_report, "model_acyclicity")
    bad += _all_pass(corpus_report, "kahler_complex")
    _require(
        "1-structural-exactness",
        not bad and elapsed <= 60.0,
        f"(structural phase {elapsed:.1f}s over {len(corpus_entries)} entries"
        + (f"; failing: {bad}" if bad else "")
        + ")",
    )


def test_criterion_2_lie_structure(corpus_report):
    bad = _all_pass(corpus_report, "lie_jacobi")
    bad += _all_pass(corpus_report, "theta_induces_minus_ad")
    _require("2-lie-structure", not bad, f"failing: {bad}" if bad else "")


def test_criterion_3_oracle_equivalences(corpus_report):
    bad = _all_pass(corpus_report, "conormal_routes_agree")
    bad += _all_pass(corpus_report, "x2_matches_koszul_h1_mu")
    bad += _all_pass(corpus_report, "ext_crosscheck")
    bad += _all_pass(corpus_report, "kahler_strand_matches_h1")
    bad += _all_pass(corpus_report, "h1_hilbert_two_routes")
    _require("3-oracle-equivalences", not bad, f"failing: {bad}" if bad else "")


def test_criterion_4_theorem_consistency(corpus_report, corpus_entries):
    failures = []
    for entry in corpus_entries:
        rep = entry_by_name(corpus_report, entry.name)
        data = rep["data"]
        for check in ("ci_criteria_agree", "theorem_conormal_consistency",
                      "theorem_koszul_consistency"):
            if check_status(rep, check) != "pass":
                failures.append(f"{entry.name}:{check}")
        if data.get("is_ci"):
            if data.get("h1_mu") != 0:
                failures.append(f"{entry.name}: CI with nonzero H1")
            if data.get("conormal_mu") != data.get("height"):
                failures.append(f"{entry.name}: conormal rank != height")
            if any(d != 0 for d in data.get("pi_dims", [])[1:]):
                failures.append(f"{entry.name}: CI with pi above degree 2")
            if check_status(rep, "ci_pi_structure") != "pass":
                failures.append(f"{entry.name}: pi above degree 2 not empty")
            if check_status(rep, "ci_radical_witnesses") != "pass":
                failures.append(f"{entry.name}: missing radical witnesses")
        else:
            # Auslander-Buchsbaum: F_{dim S + 1} != 0 certifies infinite pd
            _, ideal = entry.build()
            dim = krull_dimension(ideal)
            for key in ("conormal_probe", "h1_probe"):
                if data.get(key) != f"Infinite(F_{dim + 1} != 0; dim={dim})":
                    failures.append(f"{entry.name}: {key} = {data.get(key)}")
            for key in ("betti_conormal", "betti_h1"):
                betti = data.get(key, [])
                if len(betti) != dim + 2 or any(b <= 0 for b in betti):
                    failures.append(f"{entry.name}: {key} not strictly positive: {betti}")
            if data.get("gulliksen") != "NoneFoundWithinBound":
                failures.append(f"{entry.name}: gulliksen {data.get('gulliksen')}")
    _require("4-theorem-consistency", not failures, f"{failures}" if failures else "")


def test_criterion_5_jacobi_zariski(corpus_report, corpus_entries):
    failures = []
    char0 = {e.name for e in corpus_entries if e.field_spec.strip() in ("Q", "QQ")}
    for name in sorted(char0):
        rep = entry_by_name(corpus_report, name)
        if check_status(rep, "jacobi_zariski_exact") != "pass":
            failures.append(f"{name}: JZ")
    _require("5-jacobi-zariski", not failures, f"{failures}" if failures else "")


def test_criterion_6_determinism_and_cache(corpus_report, corpus_entries, tmp_path):
    cache_dir = str(tmp_path / "cache")
    workers = min(3, os.cpu_count() or 1)
    second = harness.run_corpus(corpus_entries, parallelism=workers, cache_dir=cache_dir)
    third = harness.run_corpus(corpus_entries, parallelism=1, cache_dir=cache_dir)

    blob_first = json.dumps(harness.strip_timings(corpus_report), sort_keys=True)
    blob_second = json.dumps(harness.strip_timings(second), sort_keys=True)
    blob_third = json.dumps(harness.strip_timings(third), sort_keys=True)
    identical = blob_first == blob_second == blob_third
    cached_fast = third["timings"] == [0.0] * len(corpus_entries)
    _require(
        "6-determinism-and-cache",
        identical and cached_fast,
        "(byte-identical modulo timings; cached run all hits)" if identical else "reports differ",
    )


def test_all_entries_pass(corpus_report):
    failed = [e["name"] for e in corpus_report["entries"] if not e["ok"]]
    _require("entries-all-ok", not failed, f"failing entries: {failed}" if failed else
             f"({corpus_report['summary']['total']} entries)")


def test_report_bytes_match_the_frozen_report(corpus_report):
    # The full-corpus report without timings, byte for byte.  A change that
    # alters results on purpose regenerates the file with
    # report_json(strip_timings(run_corpus_file("corpus/standard.corpus"))).
    frozen = FROZEN_REPORT.read_text()
    ours = harness.report_json(harness.strip_timings(corpus_report))
    if ours == frozen:
        return
    old, new = json.loads(frozen), json.loads(ours)
    differing = [
        (a or b)["name"]
        for a, b in itertools.zip_longest(old["entries"], new["entries"])
        if a != b
    ]
    rest = sorted(key for key in old.keys() | new.keys()
                  if key != "entries" and old.get(key) != new.get(key))
    pytest.fail(f"report differs from {FROZEN_REPORT.name}: entries {differing}, "
                f"other fields {rest}")
