"""Print deterministic JSON of the outputs of every CLI command.

The document holds the output of ``webfoam tait`` on every bundled data
file, of ``webfoam euler`` on every bundled diagram file, of ``module
--web W --decompose`` for every name in ``modules.KNOWN_WEBS`` and for
``unlink_3`` and ``unlink_5``, of
``catalogue`` and ``catalogue --verify``, of ``foam-eval`` and ``dims``
on fixed argument lists, the ``pass``, ``rank``, ``nu`` and ``nu_mod2``
fields of ``adhm-verify --rank 3``, and the exit code and ``error:``
line of malformed inputs (the ones ``tests/test_cli.py`` checks, bad
module names, negative dot counts on a surface, a cross-cap surface, a
tetrahedron suspension and under a decoration, a bad ``dims`` fraction, an ``adhm-verify`` rank above
``adhm.MAX_RANK``, a theta listing its vertices twice, a web end at a
list vertex, a 2,400-edge prism web, the
30-sided prism web with more than ``tait.MAX_ONE_SETS`` 1-sets, a
random cubic web on 100 vertices whose contraction frontier passes
``tait.MAX_WIDTH``, a diagram whose second component is toroidal, a web
document given to ``euler``, a ``dims`` exponent above
``cli.MAX_EXPONENT``, 10,000 free circles, whose chi has more digits
than an int may print, ids that are not strings or integers (a float
node id, a bool arc, a null circle, NaN and Infinity arcs), arcs 0 and
"0" under ``tait`` and ``euler``, web vertices 1 and "1", an
over-pair with a bool, and web slots ``true`` and ``2.0``).
It also holds the faces of every catalogue diagram,
``euler_char_report`` plus ``euler_char_dual`` on criterion 3's stream
of 200 random diagrams (seed 20250809, up to 10 crossings), and the Tait
counts of the four Tutte-site modifications (``skein.site_modifications``)
at every ordered pair of distinct edges of ``planar_cubic_webs(6)``, and
``tait_count``, ``planar_lsharp_dim`` and the number of 1-sets of every
``cubic_multigraphs(n, allow_loops=True)`` graph with n <= 8 and of the
3- to 9-sided prisms.
Its ``digests`` section pins streams of objects too many to print whole:
each entry holds a stream's item count and the sha1 of its items'
encodings, concatenated; ``digests`` spells out each encoding.
The committed copy is ``tests/golden_outputs.json``, and
``tests/test_cli.py::test_golden_document`` compares ``document()`` with
it.  A change that means to alter an output rewrites that file in the
same change:

    python scripts/golden_outputs.py > tests/golden_outputs.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from webfoam import catalogue, cli, modules, skein, webs  # noqa: E402
from webfoam.generate import add_kink, add_poke, cubic_multigraphs, planar_cubic_webs, random_diagram  # noqa: E402
from webfoam.tait import one_sets, planar_lsharp_dim, tait_count  # noqa: E402

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
    "theta 123456789012345678901234567890 0 1",
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


def wide_web() -> str:
    """Web document of a random cubic graph on 100 vertices (150 edges):
    vertices in networkx's node order, edge i of its edge list named
    ``e{i}``, each vertex's slots in edge order."""
    import networkx as nx

    g = nx.random_regular_graph(3, 100, seed=1)
    incidences = {v: [] for v in g.nodes}
    for idx, (u, v) in enumerate(g.edges()):
        incidences[u].append(f"e{idx}")
        incidences[v].append(f"e{idx}")
    return webs.serialize_web(webs.web_from_incidences(incidences))


def malformed() -> list:
    """(argv, stdin) of inputs the CLI must refuse with exit code 1 or 2."""
    return [
        (["euler", "-"], '{"vertices": [{"id": "v", "darts": ["a", "a", "a"]}]}'),
        (["tait", "no-such-file.json"], ""),
        (["module"], ""),
        (["foam-eval", "wedge 3"], ""),
        (["foam-eval", "(plus " * 3000 + "(sphere 2)" + ")" * 3000], ""),
        (["foam-eval", "(union " + " ".join(f"(plus (sphere {2 * i}) (sphere {2 * i + 1}))" for i in range(40)) + ")"], ""),
        *((["foam-eval", text], "")
          for text in ["surface 2 -1", "crosscap 0 1 -2", "tet -1 0 0 1 0 0", "(sum-t2 (surface 1 -2))"]),
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
            {
                "vertices": ["u", "w", "u", "w"],
                "edges": [{"id": f"e{k}", "ends": [["u", k], ["w", k]]} for k in range(3)],
            },
            {
                "vertices": ["u", "w"],
                "edges": [{"id": f"e{k}", "ends": [["u", k], [["w"] if k else "w", k]]} for k in range(3)],
            },
        ]),
        *((["module", "--web", name], "") for name in ["mystery", "unlink_0", "unlink_-1", "unlink_1_2", "unlink_x"]),
        (["dims", "--kappa", "abc"], ""),
        (["adhm-verify", "--rank", "100000"], ""),
        (["tait", "-"], prism_web(800)),
        (["tait", "-"], prism_web(30)),
        (["tait", "-"], wide_web()),
        (["euler", "-"], json.dumps({"crossings": [
            {"id": "x", "darts": ["A", "A", "B", "B"]},
            {"id": "y", "darts": ["a", "b", "a", "b"]},
        ]})),
        (["euler", "-"], (DATA / "unknot.web.json").read_text()),
        (["dims", "--kappa", "1e30000000"], ""),
        (["euler", "-"], json.dumps({"circles": [f"c{i}" for i in range(10000)]})),
        *((["tait", "-"], json.dumps(doc)) for doc in [
            {"vertices": [{"id": 1.5, "darts": ["a", "b", "c"]}, {"id": "w", "darts": ["a", "c", "b"]}]},
            {"crossings": [{"id": "x", "darts": [True, True, "b", "b"]}]},
            {"circles": [None]},
            {"crossings": [{"id": "x", "darts": [float("nan"), float("nan"), float("inf"), float("inf")]}]},
        ]),
        *(([command, "-"], json.dumps({"crossings": [
            {"id": "x", "darts": [0, 0, 1, 1]},
            {"id": "y", "darts": ["0", "0", "1", "1"]},
        ]})) for command in ("tait", "euler")),
        (["tait", "-"], json.dumps({
            "vertices": [1, "1"],
            "edges": [{"id": f"e{k}", "ends": [[1, k], ["1", k]]} for k in range(3)],
        })),
        (["tait", "-"], json.dumps({"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": [True, 3]}]})),
        *((["tait", "-"], json.dumps({
            "vertices": ["u", "w"],
            "edges": [{"id": f"e{k}", "ends": [["u", k], ["w", slot if k == 1 else k]]} for k in range(3)],
        })) for slot in (True, 1.0)),
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


def relabelled(d: webs.Diagram) -> webs.Diagram:
    """``d`` with arc labels the integers 0, 1, ... in ``d.arcs`` order and
    node ids the strings "0", "1", ..., vertices first, in record order:
    two kinds whose ids print alike across kinds, never within one."""
    arc = {a: i for i, a in enumerate(d.arcs)}
    node = {n.id: str(i) for i, n in enumerate(d.vertices + d.crossings)}
    return webs.Diagram(
        tuple(webs.Vertex(node[n.id], tuple(map(arc.get, n.arcs))) for n in d.vertices),
        tuple(webs.Crossing(node[c.id], tuple(map(arc.get, c.arcs)), c.over) for c in d.crossings),
        tuple(map(arc.get, d.circles)),
    )


def resolutions(d: webs.Diagram, crossings=None):
    """Each crossing of ``d`` (all of them by default, in record order)
    resolved by each kind."""
    for c in d.crossings if crossings is None else crossings:
        for kind in webs.RESOLUTIONS:
            yield webs.resolve_crossing(d, c.id, kind)


def web_and_faces(d: webs.Diagram) -> str:
    return webs.serialize_web(webs.underlying_web(d)) + json.dumps(d.faces)


def moved(d: webs.Diagram, i: int):
    """A kink and a poke of ``d``, drawn by ``random.Random(i)``: the moves
    of the random diagram generator, which pick among ``d``'s arcs."""
    rng = random.Random(i)
    yield add_kink(d, rng.choice(d.arcs), "k", rng) if d.arcs else None
    yield add_poke(d, rng, "p")


def digest_streams() -> dict:
    """Each stream as a list of item encodings (JSON texts).  A diagram is
    encoded by ``serialize_diagram``, a web by ``serialize_web`` and faces
    by ``json.dumps``; ``None`` (no arc to kink, or no poke found) as
    ``null``.

    - ``criterion_3``: the 200 diagrams of ``stream()``;
    - ``resolutions``: ``resolutions(d)`` of each of them;
    - ``webs_and_faces``: of each, its underlying web, then its faces;
    - ``tutte_sites``: the webs ``recon_a``, ``recon_b``, ``bar_a``,
      ``bar_b`` of ``skein.site_modifications`` at every ordered pair of
      distinct edges of each of ``planar_cubic_webs(6)``, in ``edges`` order;
    - ``mixed_ids``: of each ``r = relabelled(d)``, the diagram, the
      resolutions of its first crossing (if any), its web and faces, and
      ``moved(r, i)``, ``d`` being the i-th diagram of the stream.
    """
    diagrams = list(stream())
    mixed = []
    for i, d in enumerate(diagrams):
        r = relabelled(d)
        mixed += [webs.serialize_diagram(r), *map(webs.serialize_diagram, resolutions(r, r.crossings[:1]))]
        mixed.append(web_and_faces(r))
        mixed += [json.dumps(None) if m is None else webs.serialize_diagram(m) for m in moved(r, i)]
    sites = [
        webs.serialize_web(m)
        for w in planar_cubic_webs(6)
        for e in w.edges
        for f in w.edges
        if e != f
        for m in skein.site_modifications(w, e, f).values()
    ]
    return {
        "criterion_3": list(map(webs.serialize_diagram, diagrams)),
        "resolutions": [webs.serialize_diagram(r) for d in diagrams for r in resolutions(d)],
        "webs_and_faces": list(map(web_and_faces, diagrams)),
        "tutte_sites": sites,
        "mixed_ids": mixed,
    }


def digests() -> dict:
    """Per stream of ``digest_streams``, its item count and the sha1 of
    its items' UTF-8 encodings, concatenated."""
    return {
        name: {"count": len(items), "sha1": hashlib.sha1("".join(items).encode()).hexdigest()}
        for name, items in digest_streams().items()
    }


def tait_numbers():
    census = [w for n in range(2, 9, 2) for w in cubic_multigraphs(n, allow_loops=True)]
    named = [(f"census {i}", w) for i, w in enumerate(census)]
    named += [(f"prism {k}", webs.parse_web(prism_web(k))) for k in range(3, 10)]
    for name, w in named:
        yield {"web": name, "count": tait_count(w), "planar_dim": planar_lsharp_dim(w), "one_sets": len(one_sets(w))}


def adhm_fields() -> dict:
    """The exact fields of ``adhm-verify --rank 3`` (the rest are floats)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["adhm-verify", "--rank", "3"])
    doc = json.loads(out.getvalue())
    return {"exit": code, **{k: doc[k] for k in ("pass", "rank", "nu", "nu_mod2")}}


def document() -> str:
    """The whole document, as printed (without the final newline)."""
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
        "faces": {e.name: catalogue.load_diagram(e).faces for e in catalogue.CATALOGUE if e.diagram_file},
        "malformed": [{"argv": [a[:60] for a in argv], "out": run_cli(*argv, stdin=stdin)} for argv, stdin in malformed()],
        "criterion_3": [
            {"report": skein.euler_char_report(d), "dual": skein.euler_char_dual(d)} for d in stream()
        ],
        "tutte_sites": list(tutte_sites()),
        "tait_numbers": list(tait_numbers()),
        "digests": digests(),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


if __name__ == "__main__":
    print(document())
