"""Command-line front end: webfoam <subcommand>.

Output is JSON by default (stable key order) or an aligned table with
``--format table``.  Exit codes: 0 success, 1 domain error, 2 usage
error.

Each command imports only the layers it uses.  Only ``adhm-verify``
loads numpy: the exact GF(2) layers behind ``module`` and ``catalogue``
work on packed Python integers, and no command loads networkx.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "table":
        width = max((len(str(k)) for k in doc), default=0)
        for k in sorted(doc, key=str):
            print(f"{str(k):<{width}}  {doc[k]}")
    else:
        print(json.dumps(doc, sort_keys=True, default=str))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_web_or_diagram(text: str):
    from . import webs

    doc = json.loads(text)
    if isinstance(doc, dict) and "edges" in doc:
        return webs.parse_web(text), None
    d = webs.parse_diagram(text)
    return webs.underlying_web(d), d


def fraction(text: str) -> Fraction:
    """argparse type of the rational options; argparse names it in a
    usage error ("invalid fraction value")."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def cmd_tait(args) -> dict:
    from . import tait

    web, diagram = _load_web_or_diagram(_read(args.input))
    sets = []
    for s in tait.one_sets(web):
        comps = tait.complement_components(web, s)
        sets.append(
            {
                "edges": sorted(map(str, s)),
                "even": all(len(c["vertices"]) % 2 == 0 for c in comps),
                "n": len(comps),
            }
        )
    return {
        "count": tait.tait_count(web),
        "signed": tait.signed_tait(diagram) if diagram is not None else None,
        "one_sets": sets,
        "planar_dim": tait.planar_lsharp_dim(web),
    }


def cmd_euler(args) -> dict:
    from . import skein, webs

    d = webs.parse_diagram(_read(args.input))
    return skein.euler_char_report(d)


def cmd_foam_eval(args) -> dict:
    from . import foams

    expr = foams.parse_expr(args.expr)
    return {"value": expr.value()}


def cmd_module(args) -> dict:
    from . import modules

    mod = modules.known_module(args.web)
    out: dict = {
        "web": args.web,
        "dim": mod.dim,
        "operators": {name: modules.min_poly(m) for name, m in sorted(mod.ops.items())},
    }
    if mod.grading is not None:
        even, odd = mod.graded_dims()
        out["dim_even"] = even
        out["dim_odd"] = odd
        out["chi"] = mod.euler_characteristic()
    if args.decompose and mod.ops:
        dec = modules.edge_decomposition(mod)
        out["decomposition"] = {
            ",".join(sorted(map(str, s))) or "(none)": dim for s, dim in dec.summands.items()
        }
    return out


def cmd_dims(args) -> dict:
    from . import dims

    b = dims.BifoldTopology(
        kappa=args.kappa,
        b_plus=args.bplus,
        b_1=args.b1,
        sigma_self=args.sigma2,
        chi_sigma=args.chi,
        t=args.t,
    )
    return {
        "dim": str(dims.formal_dim(b)),
        "dim_mod6": str(dims.dim_mod6(b)),
        "parity": dims.dim_parity(b),
    }


def cmd_adhm_verify(args) -> dict:
    from . import adhm

    return adhm.verify_report(args.rank)


def cmd_catalogue(args) -> dict:
    from . import catalogue

    if args.verify:
        problems = catalogue.verify_all()
        doc = {"entries": len(catalogue.CATALOGUE), "failures": problems, "pass": not problems}
        _emit(doc, args.format)
        if problems:
            raise SystemExit(1)
        return None
    out = {}
    for e in catalogue.CATALOGUE:
        out[e.name] = {
            "web": e.web_file,
            "diagram": e.diagram_file,
            "tait": e.tait_count,
            "planar_dim": e.planar_dim,
            "dim": e.dim,
            "chi": e.chi,
        }
    return {"entries": out}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webfoam",
        description="Calculators for webs, foams, and their instanton invariants.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tait", help="Tait colorings, 1-sets, planar dimension")
    p.add_argument("input", help="web or diagram JSON file ('-' for stdin)")
    p.set_defaults(func=cmd_tait)

    p = sub.add_parser("euler", help="Euler characteristic by skein expansion")
    p.add_argument("input", help="diagram JSON file")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("foam-eval", help="evaluate a closed dotted foam expression")
    p.add_argument("expr", help="e.g. 'theta 0 1 2' or '(sum-t2 (sphere 0))'")
    p.set_defaults(func=cmd_foam_eval)

    p = sub.add_parser("module", help="module structure of a catalogued web")
    p.add_argument(
        "--web",
        required=True,
        metavar="NAME",
        help="a catalogued web such as theta or hopf, or unlink_N; an unknown name lists them",
    )
    p.add_argument("--decompose", action="store_true")
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("dims", help="moduli dimension formulas")
    p.add_argument("--kappa", type=fraction, default=Fraction(0))
    p.add_argument("--bplus", type=int, default=0)
    p.add_argument("--b1", type=int, default=0)
    p.add_argument("--sigma2", type=fraction, default=Fraction(0))
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("adhm-verify", help="verify the equivariant ADHM construction")
    p.add_argument("--rank", type=int, default=3)
    p.set_defaults(func=cmd_adhm_verify)

    p = sub.add_parser("catalogue", help="bundled examples and expected invariants")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_catalogue)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:  # every layer's error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if doc is not None:
        _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
