"""Command-line interface.

Every math command takes the ideal as a positional comma-separated list of
polynomials plus `--ring`/`--field`; `--json` switches reports to the
versioned JSON schema.  ``main(argv)`` parses with argparse and returns the
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import conormal as conormal_mod
from . import harness
from . import homlie as homlie_mod
from .dgmodel import ModelError, build_minimal_model
from .fields import Field, FieldError
from .groebner import (
    Ideal,
    PackedDegreeError,
    UnitIdeal,
    ideal_as_module,
    residue_field_presentation,
)
from .koszul import koszul_h1
from .poly import (
    AmbientMismatch,
    InhomogeneousError,
    MonomialOrder,
    ParseError,
    PolyRing,
    parse_poly_list,
)
from .resolution import minimal_free_resolution
from .harness import Bounds


def _error(message: str) -> int:
    """Print the one-line ``Error:`` report; returns exit code 1."""
    print(f"Error: {message}", file=sys.stderr)
    return 1


def _emit(data, as_json: bool, text_fn):
    if as_json:
        print(json.dumps({"schema": harness.SCHEMA, "result": data}, sort_keys=True, indent=2))
    else:
        print(text_fn(data))


def _emit_warned(data, notes, as_json: bool, text_fn):
    """_emit for a result that comes with warnings (a minimal model's, or
    those its computation raised): the JSON payload carries them under
    ``warnings``, and text mode prints them to stderr, leaving stdout as is."""
    if as_json:
        data = {**data, "warnings": notes}
    else:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
    _emit(data, as_json, text_fn)


_BOUNDS_HELP = ("e.g. 'hdeg=5 intdeg=12 reslen=8'; intdeg caps internal "
                "degrees (Z_1 runs to Schreyer's bound, the model to "
                "Backelin's, R/I over R and H1's relations to bounds from "
                "the Taylor bounds of in(I), each at most intdeg; probes "
                "over S and Hilbert lists run to intdeg); reslen is the "
                "length bound of resolve only (projective-dimension "
                "probes stop at dim S + 1 steps); the Ext cross-check "
                "compares degrees up to hdeg, k resolved to Backelin's bound")


def _add_common(parser):
    """The ideal argument and the options every math command takes; main
    hands the command the parsed ideal in place of the ideal, ring and
    field texts."""
    parser.add_argument("ideal_arg", metavar="IDEAL_ARG")
    parser.add_argument("--ring", dest="ring_opt", required=True, metavar="TEXT",
                        help="comma-separated variable names")
    parser.add_argument("--field", dest="field_opt", default="Q", metavar="TEXT",
                        help="Q or Fp <p> (e.g. F7)  [default: %(default)s]")
    parser.add_argument("--bounds", default="", metavar="TEXT", help=_BOUNDS_HELP)
    parser.add_argument("--json", dest="as_json", action="store_true", help="emit JSON")


def _parse_ideal(ideal_arg: str, ring_opt: str, field_opt: str) -> Ideal:
    names = [v.strip() for v in ring_opt.split(",") if v.strip()]
    ring = PolyRing(Field.parse(field_opt), names)
    return Ideal(ring, parse_poly_list(ring, ideal_arg))


# errors the math layers raise on input they cannot take, reported in one
# line like a bad --bounds value; the theorem tripwires, which mean a bug,
# keep their traceback
_MATH_ERRORS = (ParseError, FieldError, AmbientMismatch, InhomogeneousError, UnitIdeal,
                PackedDegreeError, ModelError)


def gb(ideal, bounds, as_json, order_opt):
    """Reduced Groebner basis of the ideal."""
    basis = ideal.groebner(MonomialOrder.parse(order_opt))
    _emit([str(g) for g in basis], as_json, lambda gs: "\n".join(gs))


def resolve(ideal, bounds, as_json, module_opt):
    """Minimal free resolution with bigraded and total Betti numbers."""
    if module_opt == "k":
        pres = residue_field_presentation(ideal.ring, ideal)
    elif module_opt == "s":
        pres = ideal_as_module(ideal)
    elif module_opt == "ideal":
        pres = ideal.generator_syzygies(bounds.intdeg)
    elif module_opt == "conormal":
        pres = conormal_mod.conormal_route_a(ideal, bounds.intdeg)
    else:
        pres = koszul_h1(ideal, bounds.intdeg).presentation
    res = minimal_free_resolution(pres, bounds.reslen, bounds.intdeg)
    table = sorted(res.betti_bigraded().items())
    payload = {
        "status": {"terminated": res.status[0] == "terminated", "at": res.status[1],
                   "intdeg_bound": res.degree_bound},
        "betti_total": res.betti_totals(),
        "betti_bigraded": [[i, j, b] for (i, j), b in table],
    }

    def text(p):
        lines = [f"status: {res.status[0]} at {res.status[1]} (intdeg <= {res.degree_bound})"]
        lines.append("total betti: " + " ".join(str(b) for b in p["betti_total"]))
        lines.append("bigraded (i, j, b):")
        lines.extend(f"  {i} {j} {b}" for i, j, b in p["betti_bigraded"])
        return "\n".join(lines)

    _emit(payload, as_json, text)


def koszul(ideal, bounds, as_json):
    """Koszul complex ranks and the first homology module."""
    h1 = koszul_h1(ideal, bounds.intdeg)
    cx = h1.complex
    payload = {
        "rank_profile": cx.rank_profile(),
        "d_squared_zero": cx.verify_d_squared(),
        "h1_minimal_generators": h1.minimal_generator_count(),
        "h1_hilbert": h1.hilbert_function(bounds.intdeg),
        "h1_cycles": [[str(p) for p in c] for c in h1.cycle_reps],
    }

    def text(p):
        return (
            f"rank profile: {p['rank_profile']}\n"
            f"d^2 = 0: {p['d_squared_zero']}\n"
            f"H1 minimal generators: {p['h1_minimal_generators']}\n"
            f"H1 Hilbert function: {p['h1_hilbert']}\n"
            + "\n".join("cycle: (" + ", ".join(c) + ")" for c in p["h1_cycles"])
        )

    _emit(payload, as_json, text)


def conormal(ideal, bounds, as_json):
    """I/I^2 by both routes with the agreement certificate."""
    con = conormal_mod.conormal(ideal, bounds.intdeg)
    payload = {
        "mu": con.mu,
        "hilbert": con.hilbert,
        "routes_agree": True,
        "relations": [[str(p) for p in c] for c in con.route_a.columns],
    }

    def text(p):
        return (
            f"minimal generators: {p['mu']}\n"
            f"hilbert function: {p['hilbert']}\n"
            f"routes agree: {p['routes_agree']}\n"
            + "\n".join("relation: (" + ", ".join(c) + ")" for c in p["relations"])
        )

    _emit(payload, as_json, text)


def model(ideal, bounds, as_json):
    """Minimal model dump: `name : hdeg intdeg : differential` per line."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    payload = {"dump": m.dump().splitlines(), "deviations": m.deviations()}
    _emit_warned(payload, m.warnings, as_json, lambda p: "\n".join(p["dump"]))


def pi(ideal, bounds, as_json):
    """Dimensions and basis of the homotopy Lie algebra truncation."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    payload = {
        "dims": {str(i): p.dim(i) for i in range(2, p.N + 1)},
        "basis": {str(i): [e.name for e in p.by_degree.get(i, [])]
                  for i in range(2, p.N + 1)},
    }

    def text(pp):
        return "\n".join(
            f"pi^{i}: dim {pp['dims'][str(i)]}  [{', '.join(pp['basis'][str(i)])}]"
            for i in range(2, p.N + 1)
        )

    _emit_warned(payload, m.warnings, as_json, text)


def bracket(ideal, bounds, as_json):
    """Full bracket table in canonical order."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    dump = p.bracket_table_dump()
    _emit_warned({"table": dump.splitlines()}, m.warnings, as_json, lambda pp: dump or "(empty)")


def theta(ideal, bounds, as_json, z_name):
    """The commutator derivation theta_z: values on every model variable."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    z = p.element_by_name(z_name)
    th = homlie_mod.theta(m, z)
    values = {v.name: th.values[v.index].to_string() for v in m.variables
              if v.index in th.values}
    payload = {"z": z_name, "chain": True, "values": values}

    def text(pp):
        if not values:
            return f"theta_{z_name} = 0"
        return "\n".join(f"theta_{z_name}({k}) = {v}" for k, v in values.items())

    _emit_warned(payload, m.warnings, as_json, text)


def radical(ideal, bounds, as_json, z_name):
    """Bounded radical probes for degree-2 elements."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    targets = (
        [p.element_by_name(z_name)] if z_name else p.by_degree.get(2, [])
    )
    verdicts = {z.name: repr(homlie_mod.radical_probe(p, z)) for z in targets}
    _emit_warned(verdicts, m.warnings, as_json, lambda v: "\n".join(
        f"{k}: {val}" for k, val in v.items()) or "(no pi^2)")


def ci(ideal, bounds, as_json):
    """Complete-intersection certificate (Koszul H1 and mu = height)."""
    cert = harness.ci_certificate(ideal, bounds.intdeg)
    _emit(cert, as_json,
          lambda c: (f"complete intersection: {c['is_ci']}  "
                     f"(mu = {c['mu']}, height = {c['height']}, mu(H1) = {c['h1_mu']})"))


def verify_a(ideal, bounds, as_json):
    """Conormal rigidity consistency report for one ideal."""
    rep, _ = harness.verify_conormal_rigidity(ideal, bounds)
    _emit(rep, as_json, lambda r: json.dumps(r, indent=2, sort_keys=True))


def verify_b(ideal, bounds, as_json):
    """Koszul-homology rigidity consistency report for one ideal."""
    rep, _ = harness.verify_koszul_rigidity(ideal, bounds)
    _emit(rep, as_json, lambda r: json.dumps(r, indent=2, sort_keys=True))


def jz(ideal, bounds, as_json):
    """Jacobi-Zariski four-term slice-exactness table."""
    # in characteristic p every partial of a generator can vanish, which
    # jacobian_columns reports as a RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = conormal_mod.jacobi_zariski_check(ideal, bounds.intdeg)
    payload = {"exact": rep.exact, "rows": rep.rows(), "failures": rep.failures}

    def text(p):
        lines = ["deg  D1  I/I2  S^n(-1)  Omega"]
        for d, a, b, c, e in p["rows"]:
            lines.append(f"{d:3d} {a:3d} {b:5d} {c:8d} {e:6d}")
        lines.append(f"exact: {p['exact']}")
        return "\n".join(lines)

    _emit_warned(payload, [str(w.message) for w in caught], as_json, text)


def corpus_run(path, parallel, as_json, cache_dir, bounds):
    """Run the full invariant and theorem suite over a corpus file."""
    try:
        report = harness.run_corpus_file(path, parallel, cache_dir, bounds)
    except (harness.CorpusError, OSError) as exc:
        return _error(str(exc))
    if as_json:
        print(harness.report_json(report))
    else:
        print(harness.report_to_text(report))
    return 1 if report["summary"]["failed"] else 0


def _existing_path(value: str) -> str:
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"Path '{value}' does not exist.")
    return value


def _parser() -> argparse.ArgumentParser:
    """The parser of every command; each subcommand's ``func`` default is
    the function that runs it."""
    parser = argparse.ArgumentParser(
        prog="cikit", allow_abbrev=False,
        description="Exact commutative algebra: Groebner bases, resolutions, Koszul "
                    "homology, minimal models, homotopy Lie brackets, conormal modules.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def add(func, name=None):
        sub = commands.add_parser(name or func.__name__, help=func.__doc__,
                                  description=func.__doc__, allow_abbrev=False)
        _add_common(sub)
        sub.set_defaults(func=func)
        return sub

    add(gb).add_argument("--order", dest="order_opt", default="degrevlex", metavar="TEXT",
                         help="[default: %(default)s]")
    add(resolve).add_argument(
        "--module", dest="module_opt", default="k",
        choices=["k", "s", "ideal", "conormal", "h1"],
        help="which module to resolve: k, conormal or h1 over S = R/I, "
             "or s (R/I) or ideal (I) over R  [default: %(default)s]")
    add(koszul)
    add(conormal)
    add(model)
    add(pi)
    add(bracket)
    add(theta).add_argument("--z", dest="z_name", required=True, metavar="TEXT",
                            help="pi^2 basis element, e.g. p2_1")
    add(radical).add_argument("--z", dest="z_name", default="", metavar="TEXT",
                              help="pi^2 basis element; default all")
    add(ci)
    add(verify_a, "verify-a")
    add(verify_b, "verify-b")
    add(jz)

    corpus = commands.add_parser("corpus", help="Corpus file operations.",
                                 description="Corpus file operations.", allow_abbrev=False)
    run = corpus.add_subparsers(metavar="COMMAND", required=True).add_parser(
        "run", help=corpus_run.__doc__, description=corpus_run.__doc__, allow_abbrev=False)
    run.add_argument("path", metavar="PATH", type=_existing_path)
    run.add_argument("--parallel", type=int, default=1, metavar="INTEGER",
                     help="number of worker processes; 1 runs the entries in this process"
                          "  [default: %(default)s]")
    run.add_argument("--json", dest="as_json", action="store_true")
    run.add_argument("--cache-dir", default=None, metavar="TEXT",
                     help="result cache directory (insert-only)")
    run.add_argument("--bounds", default="", metavar="TEXT",
                     help="override default bounds (hdeg >= 3)")
    run.set_defaults(func=corpus_run)
    return parser


def main(argv=None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code: 0, or 1 after a one-line ``Error:`` report (a bad
    --bounds value, a math error, a corpus error, an OS error on a corpus
    run's file or cache directory, or a failed corpus run).
    Usage errors and --help exit through argparse (codes 2 and 0)."""
    args = vars(_parser().parse_args(argv))
    func = args.pop("func")
    # parsed here, not as an argparse type, so that a bad value is an
    # Error: line with code 1 rather than a usage error
    try:
        args["bounds"] = Bounds.parse(args["bounds"])
    except harness.CorpusError as exc:
        return _error(f"--bounds: {exc}")
    try:
        if "ideal_arg" in args:
            args["ideal"] = _parse_ideal(args.pop("ideal_arg"), args.pop("ring_opt"),
                                         args.pop("field_opt"))
        return func(**args) or 0
    except _MATH_ERRORS as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
