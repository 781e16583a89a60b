"""Command-line front end: webfoam <subcommand>.

Output is JSON by default (stable key order) or an aligned table with
``--format table``.  Exit codes: 0 success, 1 domain error (or a failed
``catalogue --verify``, or a stdout that could not be written, such as a
reader that closed it early), 2 usage error.

``run`` is the process entry point (``python -m webfoam.cli`` and the
installed ``webfoam`` script).  It calls ``main``, runs the registered
``atexit`` handlers, flushes stdout and stderr and ends the process with
``os._exit``: a command lives for tens of milliseconds, and the
interpreter's teardown of its modules and objects would add several more
without changing any output.  ``main(argv)`` returns the status instead,
for callers in the same process.

Each command imports only the layers it uses, and none loads numpy or
networkx: the exact GF(2) layers behind ``module`` and ``catalogue``
work on packed Python integers, and ``adhm-verify`` on Python complex
numbers.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys


def _render(doc: dict, fmt: str) -> str:
    """The text of ``doc``, each line ended by a newline."""
    if fmt == "table":
        width = max((len(str(k)) for k in doc), default=0)
        return "".join(f"{str(k):<{width}}  {doc[k]}\n" for k in sorted(doc, key=str))
    return json.dumps(doc, sort_keys=True, default=str) + "\n"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_web_or_diagram(text: str):
    from . import webs

    doc = webs.load_document(text, "diagram")
    if "edges" in doc:
        return webs.parse_web(doc), None
    d = webs.parse_diagram(doc)
    return webs.underlying_web(d), d


MAX_EXPONENT = 4300  # Python's default limit on the digits of a printed int


def fraction(text: str):
    """argparse type of the rational options; argparse names it in a
    usage error ("invalid fraction value").  An exponent above
    ``MAX_EXPONENT`` in absolute value is refused before the power of 10
    is built.  Only ``dims`` uses it, so ``fractions`` is imported here,
    not by every command."""
    from fractions import Fraction

    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def cmd_tait(args) -> dict:
    from . import tait

    web, diagram = _load_web_or_diagram(_read(args.input))
    sets = []
    for s in tait.one_sets(web):
        even, n = tait.one_set_summary(web, s)
        sets.append({"edges": sorted(map(str, s)), "even": even, "n": n})
    return {
        "count": tait.tait_count(web),
        "signed": tait.signed_tait_count(web) if diagram is not None else None,
        "one_sets": sets,
        "planar_dim": sum(2 ** s["n"] for s in sets if s["even"]),
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


def cmd_catalogue(args) -> dict | tuple:
    from . import catalogue

    if args.verify:
        problems = catalogue.verify_all()
        doc = {"entries": len(catalogue.CATALOGUE), "failures": problems, "pass": not problems}
        return doc, 1 if problems else 0
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


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """argparse swallows a failed write; one to stdout (``--help``) raises here, for ``run`` to report."""
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--kappa", type=fraction, default="0")
    p.add_argument("--bplus", type=int, default=0)
    p.add_argument("--b1", type=int, default=0)
    p.add_argument("--sigma2", type=fraction, default="0")
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
    """Run one command and return its status.  A command returns its
    document, or its document and status.  Its text is built inside the
    ``try``, so a result too large to print is an error like any other,
    and written outside it, so a failed write reaches ``run``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
        doc, status = doc if isinstance(doc, tuple) else (doc, 0)
        text = _render(doc, args.format)
    except (ValueError, OSError) as exc:  # every layer's error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return status


def run() -> None:
    """End the process with ``main``'s status on ``sys.argv``, skipping the
    interpreter's teardown.

    The status is the one the interpreter would give: ``main``'s return
    value, or the int (``None`` meaning 0) of a ``SystemExit`` from
    argparse.  Any other exception, and a ``SystemExit`` of any other
    code, propagates to the normal exit.  A write to stdout that fails,
    in ``main`` or at the final flush, ends the command with status 1:
    silently when the reader closed the pipe early, with one ``error:``
    line on stderr otherwise (a full device, say).  The ``atexit``
    handlers run first, as at a normal exit; a stderr that cannot be
    flushed hands over to the normal exit, which reports it.
    """
    try:
        status = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        status = exc.code or 0
    except OSError as exc:
        status = _stdout_failed(exc)
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the fd was closed at start
            sys.stdout.flush()
    except OSError as exc:
        status = _stdout_failed(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


def _stdout_failed(exc: OSError) -> int:
    """Report a failed write to stdout, unless the reader closed the pipe,
    point fd 1 at the null device, so that the output still buffered is
    dropped instead of failing again, and give the status 1."""
    if not isinstance(exc, BrokenPipeError):
        print(f"error: {exc}", file=sys.stderr)
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    return 1


if __name__ == "__main__":
    run()
