"""Command-line surface tying the engines into reproducible runs.

Verbs: curve {invariants, fgl, nseries, hasse, landweber}, cover fiber,
cech, descent, tmf-mu, hopf {synthesize, cobar, h0, kucp2},
steenrod {conjugate, coproduct, verify, primitives}, chart render.

Every command with an identical configuration produces byte-identical
output (canonical JSON/TSV/SVG, no timestamps); the exit status is 1
when an engine invariant fails and 2 on bad input or an I/O error.
Relative output paths resolve against $CUBALG_OUTPUT_DIR.  A value that
starts with "-" may be given in either form, `--twists=-2..2` or
`--twists -2..2`.

Each verb handler imports the engine functions it calls in its own body,
so a process loads only the engines of the verb it runs: importing this
module and building the parser loads `cubalg`, `cubalg.cli` and
`cubalg.emit` alone.  No engine may be imported at module level here.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import InvariantError
from . import emit

if TYPE_CHECKING:
    from .curves import WeierstrassCurve

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_ERROR = 2


def parse_curve(text: str, prime: Optional[int] = None) -> WeierstrassCurve:
    """Comma list for (a1, a2, a3, a4, a6); entries are integers or the
    symbolic names a1..a6 (in any slot); a given `prime` must be a prime."""
    from .curves import WeierstrassCurve, universal_curve_ring
    from .poly import is_prime

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError("--curve wants 5 entries a1,a2,a3,a4,a6")
    if prime is not None and not is_prime(prime):
        raise ValueError("%d is not a prime" % prime)
    ring = universal_curve_ring(prime)
    coeffs = []
    for p in parts:
        if p.lstrip("+-").isdigit():
            coeffs.append(ring.const(int(p)))
        elif p in ring.names:
            coeffs.append(ring.gen(p))
        else:
            raise ValueError("bad curve entry %r" % p)
    return WeierstrassCurve(*coeffs)


def parse_ints(text: str, option: str, names: Sequence[str]
               ) -> Tuple[int, ...]:
    """A comma list of exactly one integer per entry of `names`, the value
    of `option`."""
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(names):
        raise ValueError("%s wants %d integers %s"
                         % (option, len(names), ",".join(names)))
    return values


def parse_range(text: str) -> List[int]:
    """"a..b" (inclusive, a <= b) or a comma list, with at least one
    entry: every verb that takes a range rejects an empty one."""
    if ".." in text:
        lo, hi = (int(p) for p in text.split(".."))
        _reject_reversed(text, lo, hi)
        return list(range(lo, hi + 1))
    values = [int(p) for p in text.split(",") if p.strip() != ""]
    if not values:
        raise ValueError("empty range %r" % text)
    return values


def parse_window(text: str) -> Tuple[int, int]:
    """The first and last entry of `parse_range(text)`, first <= last."""
    values = parse_range(text)
    _reject_reversed(text, values[0], values[-1])
    return values[0], values[-1]


def _reject_reversed(text: str, lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError("reversed range %r: %d exceeds %d" % (text, lo, hi))


def _write(args, text: str) -> int:
    """Write `text` to `--output`, or print it; returns the exit code."""
    if args.output:
        emit.atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _finish(args, obj, rows=None, columns=None) -> int:
    """Serialize as `--format` asks and write; returns the exit code.  Only
    a verb registered with "tsv" among its formats passes `rows`."""
    if args.format == "tsv":
        return _write(args, emit.tsv_text(rows, columns))
    return _write(args, emit.json_text(obj))


# ---------------------------------------------------------------------------
# verb handlers


def cmd_curve_invariants(args) -> int:
    from .curves import invariants

    curve = parse_curve(args.curve, args.prime)
    inv = invariants(curve)
    obj = {k: (v.text() if hasattr(v, "text") else v)
           for k, v in inv.items()}
    rows = [{"name": k, "value": obj[k]} for k in sorted(obj)]
    code = _finish(args, obj, rows, ["name", "value"])
    return code if inv["c4_c6_delta_identity"] else EXIT_INVARIANT


def cmd_curve_fgl(args) -> int:
    from .fgl import fgl_from_curve

    curve = parse_curve(args.curve, args.prime)
    f = fgl_from_curve(curve, args.order)
    checks = f.check()
    obj = {"order": args.order, "sum_series": f.sum_series.text(),
           "inverse_series": f.inverse_series.text(), "checks": checks}
    code = _finish(args, obj)
    return code if all(checks.values()) else EXIT_INVARIANT


def cmd_curve_nseries(args) -> int:
    from .fgl import fgl_from_curve

    curve = parse_curve(args.curve, args.prime)
    f = fgl_from_curve(curve, args.order)
    series = f.n_series(args.n)
    coeffs = {("z^%d" % k): series.coefficient("z", k).text()
              for k in range(1, args.order + 1)}
    obj = {"n": args.n, "order": args.order, "series": series.text(),
           "coefficients": coeffs}
    rows = [{"power": k, "coefficient": coeffs["z^%d" % k]}
            for k in range(1, args.order + 1)]
    return _finish(args, obj, rows, ["power", "coefficient"])


def cmd_curve_hasse(args) -> int:
    from .fgl import hasse_coefficients

    vs = hasse_coefficients(parse_curve(args.curve), args.prime, args.imax)
    v = [x.text() for x in vs]
    obj = {"prime": args.prime, "v": {"v%d" % i: t for i, t in enumerate(v)}}
    rows = [{"i": i, "v_i": t} for i, t in enumerate(v)]
    return _finish(args, obj, rows, ["i", "v_i"])


def cmd_curve_landweber(args) -> int:
    from .regseq import landweber_report

    rep = landweber_report(parse_curve(args.curve), args.prime, args.cutoff)
    reg = rep["regularity"]
    obj = {"prime": args.prime, "v": rep["v"],
           "regular_through_cutoff": reg.regular_through_cutoff,
           "certified": reg.certified,
           "quotient_total_rank": reg.quotient_total_rank,
           "c4_power_in_ideal": rep["c4_power_in_ideal"],
           "delta_power_in_ideal": rep["delta_power_in_ideal"]}
    code = _finish(args, obj)
    return code if reg.regular_through_cutoff else EXIT_INVARIANT


def cmd_cover_fiber(args) -> int:
    from .covers import cover_fiber
    from .curves import AI_NAMES

    if args.cusp:
        coeffs = (0, 0, 0, 0, 0)
    else:
        coeffs = parse_ints(args.curve, "--curve", AI_NAMES)
    fib = cover_fiber(coeffs, args.prime, args.field)
    obj = {"prime": args.prime, "field": fib.field, "rank": fib.rank,
           "variables": list(fib.var_names),
           "weights": list(fib.var_weights),
           "basis": fib.basis_text()}
    rows = [{"monomial": m} for m in fib.basis_text()]
    return _finish(args, obj, rows, ["monomial"])


def cmd_cech(args) -> int:
    from .covers import cech_weighted_projective

    w = parse_ints(args.weights, "--weights", ("w1", "w2"))
    twists = parse_range(args.twists)
    page = cech_weighted_projective(w, twists)
    obj = {"weights": list(w),
           "h0": {str(j): page.h0[j] for j in twists},
           "h1": {str(j): page.h1[j] for j in twists}}
    rows = [{"twist": j, "h0_rank": page.h0_ranks[j],
             "h1_rank": page.h1_ranks[j]} for j in twists]
    return _finish(args, obj, rows, ["twist", "h0_rank", "h1_rank"])


def cmd_descent(args) -> int:
    from .covers import cech_weighted_projective, descent_assemble

    w = parse_ints(args.weights, "--weights", ("w1", "w2"))
    degrees = parse_range(args.degrees)
    jlo = min(min(degrees) // 2 - 1, 0)
    jhi = max(degrees) // 2 + 1
    page = cech_weighted_projective(w, range(jlo, jhi + 1))
    table = descent_assemble(page, degrees)
    gens = {d: ["%s:%s" % g for g in table[d]["generators"]] for d in degrees}
    obj = {"weights": list(w),
           "pi": {str(d): {"rank": table[d]["rank"], "generators": gens[d]}
                  for d in degrees}}
    rows = [{"degree": d, "rank": table[d]["rank"], "generators": gens[d]}
            for d in degrees]
    return _finish(args, obj, rows, ["degree", "rank", "generators"])


def cmd_tmf_mu(args) -> int:
    from .covers import tmf_mu_page

    window = parse_range(args.window)
    out = tmf_mu_page((min(window), max(window)), args.cutoff,
                      prime=args.prime,
                      specialize_p13=args.specialize,
                      validate_h0=args.validate)
    obj = {"window": list(out["window"]), "prime": out["prime"],
           "h0": {str(w): r for w, r in out["h0"].items()},
           "h1": {str(w): r for w, r in out["h1"].items()},
           "h1_meaning": out["h1_meaning"]}
    if "h1_generators" in out:
        obj["h1_generators"] = {str(w): g for w, g in
                                out["h1_generators"].items()}
    if "h0_validated" in out:
        obj["h0_validated"] = out["h0_validated"]
    return _finish(args, obj)


def cmd_hopf_synthesize(args) -> int:
    from .hopf import builtin_algebroid

    H = builtin_algebroid(args.algebroid)
    obj = {"algebroid": H.name,
           "gamma": {n: w for n, w in zip(H.gamma_names, H.gamma_weights)},
           "eta_R": {n: H.eta_r[n].text() for n in H.A.names
                     if n in H.eta_r},
           "delta": {n: H.delta[n].text() for n in H.gamma_names},
           "chi": {n: H.chi_gamma[n].text() for n in H.gamma_names},
           "axioms": H.axioms, "notes": H.notes}
    return _finish(args, obj)


def cmd_hopf_cobar(args) -> int:
    from .cobar import cobar_cohomology, extended_comodule
    from .hopf import builtin_algebroid

    H = builtin_algebroid(args.algebroid)
    twists = parse_range(args.twists)
    comodule = None
    if args.extended is not None:
        comodule = extended_comodule(H, args.extended)
    ch = cobar_cohomology(H, twists, args.smax, prime=args.fp,
                          p_local=args.p_local, comodule=comodule)
    obj = emit.chart_to_obj(ch)
    return _finish(args, obj, obj["cells"], ["s", "t", "rank", "torsion"])


def cmd_hopf_h0(args) -> int:
    from .hopf import builtin_algebroid, invariants_h0

    H = builtin_algebroid(args.algebroid)
    twists = parse_range(args.twists)
    inv = invariants_h0(H, twists)
    obj = {str(j): [p.text() for p in inv[j]] for j in twists}
    rows = [{"twist": j, "rank": len(inv[j]), "generators": obj[str(j)]}
            for j in twists]
    return _finish(args, obj, rows, ["twist", "rank", "generators"])


def cmd_hopf_kucp2(args) -> int:
    from .hopf import ku_cp2_involution

    out = ku_cp2_involution()
    code = _finish(args, out)
    return code if out["is_swap"] else EXIT_INVARIANT


def _xi_generator(args):
    """xi_k in the ring through the cutoff, for 1 <= k <= the number of
    generators, `steenrod.gen_count(cutoff)` (0 at cutoff 0)."""
    from . import steenrod as st

    ring = st.xi_ring(args.cutoff)
    top = st.gen_count(args.cutoff)
    if not 1 <= args.k <= top:
        raise ValueError("k must be in 1..%d at cutoff %d, got %d"
                         % (top, args.cutoff, args.k))
    return ring.gen("xi%d" % args.k)


def cmd_steenrod_conjugate(args) -> int:
    from . import steenrod as st

    img = st.conjugate(_xi_generator(args))
    obj = {"element": "xi%d" % args.k, "conjugate": img.text(),
           "degree": (1 << args.k) - 1}
    return _finish(args, obj)


def cmd_steenrod_coproduct(args) -> int:
    from . import steenrod as st

    img = st.coproduct(_xi_generator(args), args.cutoff)
    obj = {"element": "xi%d" % args.k, "coproduct": img.text()}
    return _finish(args, obj)


def cmd_steenrod_verify(args) -> int:
    from . import steenrod as st

    cutoff = args.cutoff
    bp2 = st.bp_n_homology(2, cutoff)
    tmf = st.tmf_spec(cutoff)
    ku = st.bp_n_homology(1, cutoff)
    ko = st.ko_spec(cutoff)
    results = {
        "antipode_identity_k6": st.antipode_identity_holds(6),
        "tmf_closed": st.comodule_closure_check(tmf, cutoff)["closed"],
        "bp2_closed": st.comodule_closure_check(bp2, cutoff)["closed"],
        "ku_over_ko_free": st.freeness_rank_check(
            ku, ko, [0, 2], cutoff)["free"],
        "bp2_over_tmf_free": st.freeness_rank_check(
            bp2, tmf, [0, 2, 4, 6, 6, 8, 10, 12], cutoff)["free"],
    }
    # both uniqueness probes read the primitives through degree 16
    prim = st.primitives(range(1, 17), 16)
    for case, generator in (("ko", "xi1^4"), ("tmf", "xi1^8")):
        results[case + "_generator_forced"] = st.uniqueness_probe(
            case, prim)["forced_generator"] == generator
    obj = {"cutoff": cutoff, "checks": results,
           "ok": all(results.values())}
    rows = [{"check": k, "ok": v} for k, v in sorted(results.items())]
    code = _finish(args, obj, rows, ["check", "ok"])
    return code if obj["ok"] else EXIT_INVARIANT


def cmd_steenrod_primitives(args) -> int:
    from . import steenrod as st

    window = parse_range(args.window)
    spec = None if args.quotient is None else st.make_spec(
        "C", [(1, 2)], args.cutoff, conjugated=False)
    pr = st.primitives(window, args.cutoff, quotient_by=spec)
    obj = {str(d): pr[d] for d in window}
    rows = [{"degree": d, "primitives": pr[d]} for d in window if pr[d]]
    return _finish(args, obj, rows, ["degree", "primitives"])


def cmd_chart_render(args) -> int:
    from . import chart as chartmod

    with open(emit.resolve_path(args.input)) as fh:
        obj = json.load(fh)
    ch = emit.chart_from_obj(obj)
    x_range = parse_window(args.x_range) if args.x_range else None
    s_range = parse_window(args.s_range) if args.s_range else None
    render = chartmod.render_window_for(ch, x_range, s_range)
    render.title = args.title
    for arrow in args.arrow or []:
        render.arrows.append(tuple(int(x) for x in arrow.split(",")))
    return _write(args, chartmod.chart_svg(render))


# ---------------------------------------------------------------------------
# parser


TABULAR = ("json", "tsv")
JSON_ONLY = ("json",)


def _verb(group, name: str, handler, formats: Sequence[str] = TABULAR,
          prime=False, cutoff: Optional[int] = None, parents=()):
    """Register the verb `name` in `group`, run by `handler`, with
    `--output`, `--format` over `formats` (none when empty), `--prime`
    defaulting to `prime` (none when False) and `--cutoff` defaulting to
    `cutoff` (none when None); returns its parser."""
    p = group.add_parser(name, parents=parents)
    p.add_argument("--output", default=None,
                   help="output path (relative to $CUBALG_OUTPUT_DIR)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    if prime is not False:
        p.add_argument("--prime", type=int, default=prime)
    if cutoff is not None:
        p.add_argument("--cutoff", type=int, default=cutoff)
    p.set_defaults(func=handler)
    return p


def _shared(option: str, **kwargs) -> List[argparse.ArgumentParser]:
    """`parents` for the verbs that take `option`, declared once."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(option, **kwargs)
    return [parent]


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `cubalg` parser, built once per process: parsing leaves it
    unchanged."""
    top = argparse.ArgumentParser(
        prog="cubalg",
        description="exact computational algebra for elliptic cohomology")
    sub = top.add_subparsers(dest="verb", required=True)

    def group(name):
        return sub.add_parser(name).add_subparsers(dest="sub", required=True)

    # --prime None is over Z; the verbs that work at one prime default to 2
    curve = group("curve")
    on_curve = _shared("--curve", default="a1,a2,a3,a4,a6")
    _verb(curve, "invariants", cmd_curve_invariants, prime=None,
          parents=on_curve)
    _verb(curve, "fgl", cmd_curve_fgl, JSON_ONLY, prime=None,
          parents=on_curve).add_argument("--order", type=int, default=4)
    p = _verb(curve, "nseries", cmd_curve_nseries, prime=None,
              parents=on_curve)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=4)
    _verb(curve, "hasse", cmd_curve_hasse, prime=2,
          parents=on_curve).add_argument("--imax", type=int, default=2)
    _verb(curve, "landweber", cmd_curve_landweber, JSON_ONLY, prime=2,
          cutoff=48, parents=on_curve)

    p = _verb(group("cover"), "fiber", cmd_cover_fiber, prime=2)
    p.add_argument("--cusp", action="store_true")
    p.add_argument("--curve", default="0,0,0,0,0",
                   help="integer coefficients a1,a2,a3,a4,a6")
    p.add_argument("--field", default=None, help='"Q" or "F<p>", p prime')

    p = _verb(sub, "cech", cmd_cech)
    p.add_argument("--weights", default="1,3")
    p.add_argument("--twists", default="-6..6")

    p = _verb(sub, "descent", cmd_descent)
    p.add_argument("--weights", default="1,3")
    p.add_argument("--degrees", default="0..12")

    p = _verb(sub, "tmf-mu", cmd_tmf_mu, JSON_ONLY, prime=2, cutoff=8)
    p.add_argument("--window", default="-70..12")
    p.add_argument("--specialize", action="store_true",
                   help="two-variable specialization (exact graded ranks)")
    p.add_argument("--validate", action="store_true",
                   help="certify H0 via the (c4, delta) regular sequence")

    # the names `hopf.builtin_algebroid` builds (no engine is imported here)
    hopf = group("hopf")
    algebroid = _shared("--algebroid", default="weierstrass",
                        choices=("weierstrass", "mqd", "z2_group"))
    _verb(hopf, "synthesize", cmd_hopf_synthesize, JSON_ONLY,
          parents=algebroid)
    p = _verb(hopf, "cobar", cmd_hopf_cobar, parents=algebroid)
    p.add_argument("--twists", default="0..4")
    p.add_argument("--smax", type=int, default=3)
    p.add_argument("--fp", type=int, default=None,
                   help="compute over F_p (p prime) instead of Z")
    p.add_argument("--p-local", dest="p_local", type=int, default=None,
                   help="strip torsion prime to p (p prime)")
    p.add_argument("--extended", type=int, default=None,
                   help="use Gamma itself (truncated at this weight) as "
                        "the comodule")
    _verb(hopf, "h0", cmd_hopf_h0,
          parents=algebroid).add_argument("--twists", default="0..12")
    _verb(hopf, "kucp2", cmd_hopf_kucp2, JSON_ONLY)

    steen = group("steenrod")
    for name, handler in (("conjugate", cmd_steenrod_conjugate),
                          ("coproduct", cmd_steenrod_coproduct)):
        _verb(steen, name, handler, JSON_ONLY,
              cutoff=64).add_argument("--k", type=int, required=True)
    _verb(steen, "verify", cmd_steenrod_verify, cutoff=64)
    p = _verb(steen, "primitives", cmd_steenrod_primitives, cutoff=16)
    p.add_argument("--window", default="1..16")
    p.add_argument("--quotient", default=None, choices=("squares",),
                   help='"squares" for the quotient by Z/2[xi_i^2]')

    p = _verb(group("chart"), "render", cmd_chart_render, formats=())
    p.add_argument("--input", required=True, help="chart JSON path")
    p.add_argument("--x-range", dest="x_range", default=None)
    p.add_argument("--s-range", dest="s_range", default=None)
    p.add_argument("--title", default="")
    p.add_argument("--arrow", action="append", default=None,
                   help="differential arrow s1,t1,s2,t2 (repeatable)")
    return top


def join_negative_values(argv: Sequence[str]) -> List[str]:
    """argv with each long option followed by a separate value that starts
    with "-" and a digit ("--twists -2..2", "--curve -1,0,0,0,1") joined
    into one argument ("--twists=-2..2").  argparse reads such a value as
    an option unless it is a plain negative number, and no option here
    starts with a digit, so the two forms mean the same."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg.startswith("--") and len(arg) > 2 and "=" not in arg
                and i + 1 < len(argv) and argv[i + 1][:1] == "-"
                and argv[i + 1][1:2].isdigit()):
            out.append(arg + "=" + argv[i + 1])
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(join_negative_values(argv))
    try:
        return args.func(args)
    except InvariantError as exc:
        sys.stderr.write("cubalg: invariant failed: %s\n" % exc)
        return EXIT_INVARIANT
    except (ValueError, KeyError, NotImplementedError, RuntimeError,
            OSError) as exc:
        sys.stderr.write("cubalg: error: %s\n" % exc)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
