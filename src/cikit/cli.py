"""Command-line interface.

Every math command takes the ideal as a positional comma-separated list of
polynomials plus `--ring`/`--field`; `--json` switches reports to the
versioned JSON schema.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import conormal as conormal_mod
from . import harness
from . import homlie as homlie_mod
from .dgmodel import ModelError, build_minimal_model
from .fields import Field, FieldError
from .groebner import (
    Ideal,
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


def _bounds(ctx, param, value: str) -> Bounds:
    try:
        return Bounds.parse(value)
    except harness.CorpusError as exc:
        raise click.ClickException(f"--bounds: {exc}") from None


def _emit(data, as_json: bool, text_fn):
    if as_json:
        click.echo(json.dumps({"schema": harness.SCHEMA, "result": data}, sort_keys=True, indent=2))
    else:
        click.echo(text_fn(data))


common_options = [
    click.argument("ideal_arg"),
    click.option("--ring", "ring_opt", required=True, help="comma-separated variable names"),
    click.option("--field", "field_opt", default="Q", show_default=True,
                 help="Q or Fp <p> (e.g. F7)"),
    click.option("--bounds", default="", callback=_bounds,
                 help="e.g. 'hdeg=5 intdeg=12 reslen=8'; intdeg caps internal "
                      "degrees (Z_1 runs to Schreyer's bound, the model to "
                      "Backelin's, R/I over R and H1's relations to bounds from "
                      "the Taylor bounds of in(I), each at most intdeg; probes "
                      "over S and Hilbert lists run to intdeg); reslen is the "
                      "length bound of resolve only (projective-dimension "
                      "probes stop at dim S + 1 steps); the Ext cross-check "
                      "compares degrees up to hdeg, k resolved to Backelin's bound"),
    click.option("--json", "as_json", is_flag=True, help="emit JSON"),
]


def with_common(fn):
    """The ideal argument and the common options; the command is called
    with the parsed ideal in place of the ideal, ring and field texts."""

    @functools.wraps(fn)
    def command(ideal_arg, ring_opt, field_opt, **kwargs):
        names = [v.strip() for v in ring_opt.split(",") if v.strip()]
        ring = PolyRing(Field.parse(field_opt), names)
        return fn(Ideal(ring, parse_poly_list(ring, ideal_arg)), **kwargs)

    for opt in reversed(common_options):
        command = opt(command)
    return command


# errors the math layers raise on input they cannot take, reported in one
# line like a bad --bounds value; the theorem tripwires, which mean a bug,
# keep their traceback
_MATH_ERRORS = (ParseError, FieldError, AmbientMismatch, InhomogeneousError, UnitIdeal,
                ModelError)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _MATH_ERRORS as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Exact commutative algebra: Groebner bases, resolutions, Koszul
    homology, minimal models, homotopy Lie brackets, conormal modules."""


@main.command()
@with_common
@click.option("--order", "order_opt", default="degrevlex", show_default=True)
def gb(ideal, bounds, as_json, order_opt):
    """Reduced Groebner basis of the ideal."""
    basis = ideal.groebner(MonomialOrder.parse(order_opt))
    _emit([str(g) for g in basis], as_json, lambda gs: "\n".join(gs))


@main.command()
@with_common
@click.option("--module", "module_opt", default="k", show_default=True,
              type=click.Choice(["k", "s", "ideal", "conormal", "h1"]),
              help="which module to resolve: k, conormal or h1 over S = R/I, "
                   "or s (R/I) or ideal (I) over R")
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


@main.command()
@with_common
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


@main.command()
@with_common
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


@main.command()
@with_common
def model(ideal, bounds, as_json):
    """Minimal model dump: `name : hdeg intdeg : differential` per line."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    payload = {"dump": m.dump().splitlines(), "deviations": m.deviations(),
               "warnings": m.warnings}
    _emit(payload, as_json, lambda p: "\n".join(p["dump"]))


@main.command()
@with_common
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

    _emit(payload, as_json, text)


@main.command()
@with_common
def bracket(ideal, bounds, as_json):
    """Full bracket table in canonical order."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    dump = p.bracket_table_dump()
    _emit({"table": dump.splitlines()}, as_json, lambda pp: dump or "(empty)")


@main.command()
@with_common
@click.option("--z", "z_name", required=True, help="pi^2 basis element, e.g. p2_1")
def theta(ideal, bounds, as_json, z_name):
    """The commutator derivation theta_z: values on every model variable."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    z = p.element_by_name(z_name)
    th = homlie_mod.theta(m, z)
    values = {
        v.name: th.value_on(v.index).to_string()
        for v in m.variables
        if not th.value_on(v.index).is_zero()
    }
    payload = {"z": z_name, "chain": True, "values": values}

    def text(pp):
        if not values:
            return f"theta_{z_name} = 0"
        return "\n".join(f"theta_{z_name}({k}) = {v}" for k, v in values.items())

    _emit(payload, as_json, text)


@main.command()
@with_common
@click.option("--z", "z_name", default="", help="pi^2 basis element; default all")
def radical(ideal, bounds, as_json, z_name):
    """Bounded radical probes for degree-2 elements."""
    m = build_minimal_model(ideal, bounds.hdeg, bounds.intdeg)
    p = homlie_mod.compute_pi(m)
    targets = (
        [p.element_by_name(z_name)] if z_name else p.by_degree.get(2, [])
    )
    verdicts = {z.name: repr(homlie_mod.radical_probe(p, z)) for z in targets}
    _emit(verdicts, as_json,
          lambda v: "\n".join(f"{k}: {val}" for k, val in v.items()) or "(no pi^2)")


@main.command()
@with_common
def ci(ideal, bounds, as_json):
    """Complete-intersection certificate (Koszul H1 and mu = height)."""
    cert = harness.ci_certificate(ideal, bounds.intdeg)
    _emit(cert, as_json,
          lambda c: (f"complete intersection: {c['is_ci']}  "
                     f"(mu = {c['mu']}, height = {c['height']}, mu(H1) = {c['h1_mu']})"))


@main.command(name="verify-a")
@with_common
def verify_a(ideal, bounds, as_json):
    """Conormal rigidity consistency report for one ideal."""
    rep, _ = harness.verify_conormal_rigidity(ideal, bounds)
    _emit(rep, as_json, lambda r: json.dumps(r, indent=2, sort_keys=True))


@main.command(name="verify-b")
@with_common
def verify_b(ideal, bounds, as_json):
    """Koszul-homology rigidity consistency report for one ideal."""
    rep, _ = harness.verify_koszul_rigidity(ideal, bounds)
    _emit(rep, as_json, lambda r: json.dumps(r, indent=2, sort_keys=True))


@main.command()
@with_common
def jz(ideal, bounds, as_json):
    """Jacobi-Zariski four-term slice-exactness table."""
    rep = conormal_mod.jacobi_zariski_check(ideal, bounds.intdeg)
    payload = {"exact": rep.exact, "rows": rep.rows(), "failures": rep.failures}

    def text(p):
        lines = ["deg  D1  I/I2  S^n(-1)  Omega"]
        for d, a, b, c, e in p["rows"]:
            lines.append(f"{d:3d} {a:3d} {b:5d} {c:8d} {e:6d}")
        lines.append(f"exact: {p['exact']}")
        return "\n".join(lines)

    _emit(payload, as_json, text)


@main.group()
def corpus():
    """Corpus file operations."""


@corpus.command(name="run")
@click.argument("path", type=click.Path(exists=True))
@click.option("--parallel", default=1, show_default=True,
              help="number of worker processes; 1 runs the entries in this process")
@click.option("--json", "as_json", is_flag=True)
@click.option("--cache-dir", default=None, help="result cache directory (insert-only)")
@click.option("--bounds", default="", callback=_bounds, help="override default bounds (hdeg >= 3)")
def corpus_run(path, parallel, as_json, cache_dir, bounds):
    """Run the full invariant and theorem suite over a corpus file."""
    try:
        report = harness.run_corpus_file(path, parallel, cache_dir, bounds)
    except harness.CorpusError as exc:
        raise click.ClickException(str(exc)) from None
    if as_json:
        click.echo(harness.report_json(report))
    else:
        click.echo(harness.report_to_text(report))
    if report["summary"]["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
