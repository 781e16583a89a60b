"""Print deterministic JSON of Tait counts and Euler characteristics.

The document holds the output of ``webfoam tait`` on every bundled data
file, of ``webfoam euler`` on every bundled diagram file,
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

from webfoam import catalogue, cli, skein, webs  # noqa: E402
from webfoam.generate import planar_cubic_webs, random_diagram  # noqa: E402
from webfoam.tait import tait_count  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "webfoam" / "data"
STREAM_SEED = 20250809


def run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit {code}: {out.getvalue().strip()}"


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


def main() -> None:
    files = sorted(DATA.glob("*.json"))
    doc = {
        "tait": {p.name: run_cli("tait", str(p)) for p in files},
        "euler": {p.name: run_cli("euler", str(p)) for p in files if p.name.endswith(".diagram.json")},
        "criterion_3": [
            {"report": skein.euler_char_report(d), "dual": skein.euler_char_dual(d)} for d in stream()
        ],
        "tutte_sites": list(tutte_sites()),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
