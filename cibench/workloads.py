"""Workload inputs, operations and output checks for the cikit benchmark.

Every input is generated from the workload seed as text (ring variables,
field spec, generator strings or corpus lines), the form a CLI invocation
or a corpus file hands the library.  Each operation parses its text again,
so no ``Ideal`` object, with its Groebner and slice caches, outlives the
operation that made it.

An operation is an ``Op``: ``call()`` is timed and returns the output,
``check(output)`` runs untimed and returns a failure string or None.  A
raised exception or a failed check counts as one failed operation; no input
is skipped.  ``explain()``, where given, names the known defect behind a
failure of this operation, or returns None when the failure is unexplained.
"""

from __future__ import annotations

import importlib
import itertools
import os
import pkgutil
import random
import shutil
import tempfile
from typing import Callable, NamedTuple

WORKLOADS = ("verify-q", "verify-fp", "queries", "corpus-stream")

# The Q entries of the standard corpus that verify in seconds, not minutes
# (twisted_quadrics alone would more than double the pass).
VERIFY_Q = ("node_hypersurface", "aci_x2_xy", "ci_mixed_23", "ci_squares_2", "linear_gen",
            "socle_square")
# Entries whose evaluation takes minutes; verify-fp runs all the others.
VERIFY_FP_EXCLUDED = ("three_lines", "m3_2vars")
FP_PRIME = 32003
# Small corpus ideals for the stream, over the eight largest primes below
# the kernel's 2^31 fast-path limit: primes of one size cost alike, so which
# prime lands in which batch does not change a batch's time.
STREAM_ENTRIES = ("ci_squares_2", "ci_mixed_23", "aci_x2_xy")
STREAM_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
                 2147483543, 2147483497)
STREAM_BATCHES = len(STREAM_PRIMES)
STREAM_REPEATS_WITHIN = 2   # batches whose repeat is of a request in the same batch

QUERY_COMMANDS = ("gb", "ci", "koszul", "model", "pi", "resolve", "conormal")
QUERY_FIELDS = ("Q", f"Fp {FP_PRIME}")
QUERY_FAMILIES = ("monomial", "binomial", "generic")
# (variables, generators, degree); structure commands, then gb
QUERY_SHAPES = ([(2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)],
                [(3, 2, 3), (3, 3, 2), (4, 3, 2), (5, 3, 2)])
# Passed as a CLI user would pass ``--bounds``; the CLI defaults (hdeg=5
# intdeg=12 reslen=8) make single 3-variable requests take seconds.
QUERY_BOUNDS = "hdeg=4 intdeg=8 reslen=5"


def import_all_cikit():
    """Import every module of the cikit package (what a CLI start pays)."""
    import cikit

    for info in pkgutil.iter_modules(cikit.__path__):
        importlib.import_module(f"cikit.{info.name}")


def _corpus_lines(root):
    """Entry name -> line of ``corpus/standard.corpus`` (comments stripped)."""
    out = {}
    with open(os.path.join(root, "corpus", "standard.corpus")) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("entry "):
                out[line.split("/", 1)[0][len("entry "):].strip()] = line
    return out


def _with_field(line, name, field_spec):
    clauses = [c.strip() for c in line.split("/")]
    out = []
    for c in clauses:
        if c.startswith("entry "):
            c = f"entry {name}"
        elif c.startswith("field "):
            c = f"field {field_spec}"
        out.append(c)
    return " / ".join(out)


# ---------------------------------------------------------------------------
# input generation (deterministic in the seed)


def build_inputs(workload, seed, root):
    """The workload's inputs as text; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    lines = _corpus_lines(root)
    if workload == "verify-q":
        names = list(VERIFY_Q)
        rng.shuffle(names)
        return [lines[n] for n in names]
    if workload == "verify-fp":
        names = [n for n in lines if n not in VERIFY_FP_EXCLUDED]
        rng.shuffle(names)
        return [_with_field(lines[n], n, f"Fp {FP_PRIME}") for n in names]
    if workload == "queries":
        return _query_inputs(rng)
    if workload == "corpus-stream":
        return _stream_inputs(rng, lines)
    raise ValueError(f"unknown workload {workload!r}")


def _stream_inputs(rng, lines):
    """Batches of corpus lines.  Batch b holds each stream entry once, over
    the b-th prime of a seeded order per entry, so every (entry, prime) pair
    appears once as a fresh request.  Each batch adds one repeat at its end:
    in STREAM_REPEATS_WITHIN seeded batches, the k-th of them repeats its
    own request of the k-th stream entry (computed twice); every other batch
    repeats a seeded request of an earlier batch (a cache hit).  The entries
    keep one order, so batches cost alike at every seed."""
    by_entry = [[_with_field(lines[n], f"{n}_p{p}", f"Fp {p}")
                 for p in rng.sample(STREAM_PRIMES, len(STREAM_PRIMES))]
                for n in STREAM_ENTRIES]
    within = sorted(set(rng.sample(range(1, STREAM_BATCHES), STREAM_REPEATS_WITHIN - 1)) | {0})
    batches = []
    for b in range(STREAM_BATCHES):
        batch = [requests[b] for requests in by_entry]
        if b in within:
            repeat = batch[within.index(b)]
        else:
            repeat = rng.choice([x for prev in batches for x in prev])
        batches.append(batch + [repeat])
    return batches


def _monomials(nvars, degree):
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def _mono_str(names, e):
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
    return "*".join(parts) or "1"


def _coeff(rng, field):
    c = rng.randint(1, 9) if field == "Q" else rng.randrange(1, FP_PRIME)
    return c if rng.random() < 0.5 else -c


def _poly_str(terms):
    out = ""
    for c, m in terms:
        sign = "-" if c < 0 else "+"
        body = m if abs(c) == 1 else f"{abs(c)}*{m}"
        out += f" {sign} {body}" if out else ("-" if c < 0 else "") + body
    return out


def _supports(rng, family, nvars, ngens, degree):
    """Exponent tuples of each generator's terms."""
    mons = _monomials(nvars, degree)
    if family == "monomial":
        return [[rng.choice(mons)] for _ in range(ngens)]
    if family == "binomial":
        return [rng.sample(mons, 2) for _ in range(ngens)]
    return [[m for m in mons if rng.random() < 0.7] or [rng.choice(mons)]
            for _ in range(ngens)]


def _query_inputs(rng):
    """A closed-loop request stream: one request per (command, field,
    family, shape) cell, in seeded order.

    The term supports come from a fixed generator, so that the cost of a
    pass, its median request and the set of requests the known Buchberger
    defect breaks do not hinge on the seed; the seed picks every
    coefficient but the first of a generator, and the request order."""
    supports = random.Random("queries:supports")
    reqs = []
    for cmd in QUERY_COMMANDS:
        for field in QUERY_FIELDS:
            for family in QUERY_FAMILIES:
                for nvars, ngens, degree in QUERY_SHAPES[cmd == "gb"]:
                    names = ("x", "y", "z", "u", "v")[:nvars]
                    gens = []
                    for terms in _supports(supports, family, nvars, ngens, degree):
                        coeffs = [1] + [_coeff(rng, field) for _ in terms[1:]]
                        gens.append(_poly_str([(c, _mono_str(names, m))
                                               for c, m in zip(coeffs, terms)]))
                    reqs.append({"cmd": cmd, "field": field, "ring": ", ".join(names),
                                 "ideal": ", ".join(gens)})
    rng.shuffle(reqs)
    return reqs


def setup(workload, seed, root):
    """What a fresh process pays before its first operation."""
    import_all_cikit()
    return build_inputs(workload, seed, root)


# ---------------------------------------------------------------------------
# operations


class Op(NamedTuple):
    label: str
    call: Callable
    check: Callable
    explain: Callable | None = None
    multiprocess: bool = False  # True when the work runs in pool processes
    repeatable: bool = True  # False when a second run does other work (cache hits)


def _failed_checks(result):
    """The entry's checks that did not pass (``ok`` means none), or None."""
    bad = [c["name"] for c in result["checks"] if c["status"] != "pass"]
    return f"{result['name']}: {', '.join(bad)}" if bad else None


def verify_ops(inputs):
    """One serial, uncached ``run_corpus`` call per entry."""
    from cikit import harness

    def op(line):
        entry = harness.parse_corpus(line)[0]
        return Op(entry.name, lambda: harness.run_corpus([entry], 1, None),
                  lambda report: _failed_checks(report["entries"][0]))

    return [op(line) for line in inputs]


class StreamPass:
    """One pass of corpus-stream: every batch through ``run_corpus`` with a
    process pool and a cache directory that is fresh for the pass."""

    def __init__(self, batches, scratch):
        self.batches = batches
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self.parallelism = min(2, os.cpu_count() or 1)

    def ops(self, reference):
        """``reference`` maps each entry name to its first computed result;
        every later result for it (a cache hit or a recomputation) must equal
        it.  It is shared across passes, so it also holds passes to each other."""
        from cikit import harness

        def op(i, batch):
            entries = [e for line in batch for e in harness.parse_corpus(line)]

            def check(report):
                problems = []
                for result in report["entries"]:
                    want = reference.setdefault(result["name"], result)
                    if result != want:
                        problems.append(f"{result['name']}: differs from the fresh result")
                    failed = _failed_checks(result)
                    if failed:
                        problems.append(failed)
                return "; ".join(problems) or None

            return Op(f"batch{i}",
                      lambda: harness.run_corpus(entries, self.parallelism, self.cache_dir),
                      check, multiprocess=True, repeatable=False)

        return [op(i, b) for i, b in enumerate(self.batches)]

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# The library call behind each CLI command, with QUERY_BOUNDS, followed by
# the check for its output.


def _parse(req):
    from cikit.fields import Field
    from cikit.groebner import Ideal
    from cikit.poly import PolyRing, parse_poly_list

    ring = PolyRing(Field.parse(req["field"]), [v.strip() for v in req["ring"].split(",")])
    return Ideal(ring, parse_poly_list(ring, req["ideal"]))


def _q_gb(req, bounds):
    ideal = _parse(req)
    basis = ideal.groebner()
    return ideal, basis, [str(g) for g in basis]


def _check_gb(out):
    from cikit.groebner import multivariate_divide, s_polynomial

    ideal, basis, _ = out
    elems = list(basis)
    if ideal.generators and not elems:
        return "empty basis of a nonzero ideal"
    for g in ideal.generators:
        if not multivariate_divide(g, elems, basis.order)[1].is_zero():
            return f"generator {g} does not reduce to zero"
    for f, g in itertools.combinations(elems, 2):
        if not multivariate_divide(s_polynomial(f, g, basis.order), elems, basis.order)[1].is_zero():
            return f"S-pair ({f}, {g}) does not reduce to zero"
    return None


def _q_ci(req, bounds):
    from cikit import harness

    return harness.ci_certificate(_parse(req), bounds.intdeg)


def _q_koszul(req, bounds):
    from cikit.koszul import koszul_complex, koszul_h1

    ideal = _parse(req)
    cx = koszul_complex(ideal)
    h1 = koszul_h1(ideal, bounds.intdeg)
    payload = {
        "rank_profile": cx.rank_profile(),
        "d_squared_zero": cx.verify_d_squared(),
        "h1_minimal_generators": h1.minimal_generator_count(),
        "h1_hilbert": h1.hilbert_function(bounds.intdeg),
        "h1_cycles": [[str(p) for p in c] for c in h1.cycle_reps],
    }
    return h1, payload


def _check_koszul(out):
    h1, payload = out
    if not payload["d_squared_zero"]:
        return "Koszul d^2 != 0"
    direct = h1.direct_hilbert_function(h1.degree_bound)
    if payload["h1_hilbert"] != direct:
        return f"H1 Hilbert routes differ: {payload['h1_hilbert']} vs {direct}"
    return None


def _model(req, bounds):
    from cikit.dgmodel import build_minimal_model

    return build_minimal_model(_parse(req), bounds.hdeg, bounds.intdeg)


def _q_model(req, bounds):
    m = _model(req, bounds)
    return m, {"dump": m.dump().splitlines(), "deviations": m.deviations()}


def _check_model(out):
    from cikit.dgmodel import verify_model_differential

    fails = verify_model_differential(out[0])
    return "; ".join(fails) or None


def _q_pi(req, bounds):
    from cikit import homlie

    p = homlie.compute_pi(_model(req, bounds))
    return p, {str(i): p.dim(i) for i in range(2, p.N + 1)}


def _check_pi(out):
    from cikit import homlie

    fails = homlie.check_antisymmetry(out[0]) + homlie.check_jacobi(out[0])
    return "; ".join(fails) or None


def _q_resolve(req, bounds):
    from cikit.groebner import ideal_as_module
    from cikit.resolution import minimal_free_resolution

    res = minimal_free_resolution(ideal_as_module(_parse(req)), bounds.reslen, bounds.resdeg)
    return res, {"betti_total": res.betti_totals(),
                 "betti_bigraded": sorted(res.betti_bigraded().items())}


def _check_resolve(out):
    from cikit.resolution import verify_composites

    return "; ".join(verify_composites(out[0])) or None


def _q_conormal(req, bounds):
    from cikit import conormal

    con = conormal.conormal(_parse(req), bounds.intdeg)
    return {"mu": con.mu, "hilbert": con.hilbert,
            "relations": [[str(p) for p in c] for c in con.route_a.columns]}


def _no_check(out):
    # ci and conormal check themselves: CriteriaDisagree / RouteDisagreement
    return None


QUERY_HANDLERS = {
    "gb": (_q_gb, _check_gb),
    "ci": (_q_ci, _no_check),
    "koszul": (_q_koszul, _check_koszul),
    "model": (_q_model, _check_model),
    "pi": (_q_pi, _check_pi),
    "resolve": (_q_resolve, _check_resolve),
    "conormal": (_q_conormal, _no_check),
}


def buchberger_defect(req):
    """Name of the known defect if the library's Groebner basis of the
    request's ideal fails the basis check, else None.

    ``groebner.buchberger`` inter-reduces each element against the others
    before they are reduced, so two elements with the same leading monomial
    cancel each other out: ``x*z + y^2, y^2`` comes back as ``[x*z]``.  Every
    command that reads the basis (height, normal forms) inherits the error,
    so a failure on such an input is attributed to this defect."""
    ideal = _parse(req)
    basis = ideal.groebner()
    return "buchberger-interreduction" if _check_gb((ideal, basis, None)) else None


def query_ops(inputs):
    from cikit.harness import Bounds

    bounds = Bounds.parse(QUERY_BOUNDS)

    def op(req):
        call, check = QUERY_HANDLERS[req["cmd"]]
        return Op(f"{req['cmd']} [{req['field']}] {req['ideal']}", lambda: call(req, bounds),
                  check, lambda: buchberger_defect(req))

    return [op(r) for r in inputs]
