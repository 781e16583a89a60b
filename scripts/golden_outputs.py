"""Print deterministic JSON of the outputs of every CLI command.

The document holds the output of ``webfoam tait`` on every bundled data
file, of ``webfoam euler`` on every bundled diagram file, of ``module
--web W --decompose`` for every name in ``modules.KNOWN_WEBS`` and for
``unlink_3`` and ``unlink_5``, of
``catalogue`` and ``catalogue --verify``, of ``foam-eval`` and ``dims``
on fixed argument lists, the ``pass``, ``rank``, ``nu`` and ``nu_mod2``
fields of ``adhm-verify --rank 3``, and the exit code and ``error:``
line of malformed inputs (the ones ``tests/test_cli.py`` checks, bad
module names, a bad ``dims`` fraction, and a 2,400-edge prism web).  It also holds
``euler_char_report`` plus ``euler_char_dual`` on criterion 3's stream
of 200 random diagrams (seed 20250809, up to 10 crossings), and the Tait
counts of the four Tutte-site modifications (``skein.site_modifications``)
at every ordered pair of distinct edges of ``planar_cubic_webs(6)``.
Run it on two checkouts and ``diff`` the outputs to show that a change
leaves these values alone:

    python scripts/golden_outputs.py > golden.json
"""

import contextlib
import io
import json
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from webfoam import catalogue, cli, modules, skein, webs  # noqa: E402
from webfoam.generate import planar_cubic_webs, random_diagram  # noqa: E402
from webfoam.tait import tait_count  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "webfoam" / "data"
STREAM_SEED = 20250809


FOAM_EXPRS = [
    "sphere 2",
    "theta 0 1 2",
    "theta 1 1 2",
    "tet 0 1 2 2 0 1",
    "surface 1 0",
    "crosscap 1 0 0",
    "(sum-t2 (sphere 0))",
    "(sum-r+ (theta 0 1 2) 1)",
    "(sum-r- (sphere 2))",
    "(plus (theta 0 1 2) (union (sphere 2) (surface 2 0)) (sphere 4))",
    "(union (plus (sphere 0) (sphere 2)) (plus (theta 2 1 0) (sphere 1)))",
]

DIMS_ARGS = [
    [],
    ["--kappa", "0", "--chi", "4", "--t", "2"],
    ["--kappa", "1/4", "--bplus", "1", "--b1", "1", "--sigma2", "-1/2", "--chi", "2", "--t", "3"],
    ["--kappa", "3", "--bplus", "2", "--sigma2", "5/2", "--chi", "-2", "--t", "1"],
]


def prism_web(k: int) -> str:
    """Web document of the k-sided prism (3k edges)."""
    inc = {}
    for i in range(k):
        inc[f"a{i}"] = [f"p{i}", f"p{(i - 1) % k}", f"s{i}"]
        inc[f"b{i}"] = [f"q{i}", f"q{(i - 1) % k}", f"s{i}"]
    return webs.serialize_web(webs.web_from_incidences(inc))


# (argv, stdin) of inputs the CLI must refuse with exit code 1 or 2
MALFORMED = [
    (["euler", "-"], '{"vertices": [{"id": "v", "darts": ["a", "a", "a"]}]}'),
    (["tait", "no-such-file.json"], ""),
    (["module"], ""),
    (["foam-eval", "wedge 3"], ""),
    (["foam-eval", "(plus " * 3000 + "(sphere 2)" + ")" * 3000], ""),
    (["foam-eval", "(union " + " ".join(f"(plus (sphere {2 * i}) (sphere {2 * i + 1}))" for i in range(40)) + ")"], ""),
    *((["tait", "-"], json.dumps(doc)) for doc in [
        {"edges": [{"id": [1], "circle": True}]},
        {"edges": 5},
        {"vertices": ["u"], "edges": [{"id": "a", "ends": 5}]},
        {"vertices": [{"darts": ["a", "b", "c"]}]},
        {"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": 5}]},
        {"circles": 5},
        {"circles": [["a"]]},
        {"vertices": [{"id": "u", "darts": "abc"}, {"id": "w", "darts": "acb"}]},
        {"circles": ["a", "a"]},
        {"edges": [{"id": "a", "circle": True}, {"id": "a", "circle": True}]},
        {
            "vertices": ["u", "w"],
            "edges": [
                {"id": "e", "ends": [["u", 0], ["w", 0]]},
                {"id": "e", "ends": [["u", 1], ["w", 1]]},
                {"id": "f", "ends": [["u", 2], ["w", 2]]},
            ],
        },
    ]),
    *((["module", "--web", name], "") for name in ["mystery", "unlink_0", "unlink_-1", "unlink_1_2", "unlink_x"]),
    (["dims", "--kappa", "abc"], ""),
    (["tait", "-"], prism_web(800)),
]


def run_cli(*argv, stdin: str = "") -> str:
    """``exit CODE: STDOUT``, then `` | STDERR`` when something went to stderr.

    An exception that escapes ``cli.main`` is recorded by its type name.
    """
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a traceback is an output to pin too
        code = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = saved
    text = f"exit {code}: {out.getvalue().strip()}"
    return f"{text} | {err.getvalue().strip()}" if err.getvalue() else text


def stream():
    seeds = [
        webs.parse_diagram(json.dumps({"circles": ["a"]})),
        webs.parse_diagram(json.dumps({"circles": ["a", "b"]})),
        catalogue.load_diagram(catalogue.get("theta")),
        catalogue.load_diagram(catalogue.get("tetrahedron")),
        catalogue.load_diagram(catalogue.get("handcuffs")),
    ]
    rng = random.Random(STREAM_SEED)
    for _ in range(200):
        yield random_diagram(seeds, 10, rng)


def tutte_sites():
    for i, w in enumerate(planar_cubic_webs(6)):
        for e in w.edges:
            for f in w.edges:
                if e != f:
                    mods = skein.site_modifications(w, e, f)
                    counts = {k: tait_count(m) for k, m in mods.items()}
                    yield {"web": i, "site": [e, f], "counts": counts}


def adhm_fields() -> dict:
    """The exact fields of ``adhm-verify --rank 3`` (the rest are floats)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["adhm-verify", "--rank", "3"])
    doc = json.loads(out.getvalue())
    return {"exit": code, **{k: doc[k] for k in ("pass", "rank", "nu", "nu_mod2")}}


def main() -> None:
    files = sorted(DATA.glob("*.json"))
    doc = {
        "tait": {p.name: run_cli("tait", str(p)) for p in files},
        "euler": {p.name: run_cli("euler", str(p)) for p in files if p.name.endswith(".diagram.json")},
        "module": {
            name: run_cli("module", "--web", name, "--decompose")
            for name in (*modules.KNOWN_WEBS, "unlink_3", "unlink_5")
        },
        "catalogue": run_cli("catalogue"),
        "catalogue_verify": run_cli("catalogue", "--verify"),
        "foam_eval": {text: run_cli("foam-eval", text) for text in FOAM_EXPRS},
        "dims": {" ".join(args): run_cli("dims", *args) for args in DIMS_ARGS},
        "adhm_verify": adhm_fields(),
        "malformed": [{"argv": [a[:60] for a in argv], "out": run_cli(*argv, stdin=stdin)} for argv, stdin in MALFORMED],
        "criterion_3": [
            {"report": skein.euler_char_report(d), "dual": skein.euler_char_dual(d)} for d in stream()
        ],
        "tutte_sites": list(tutte_sites()),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
