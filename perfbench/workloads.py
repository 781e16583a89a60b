"""The benchmark's workloads: seeded inputs, timed operations, oracles.

Every workload builds its inputs from ``(seed, index)``: ``seed`` is the
run's ``--seed`` and ``index`` numbers the fresh process within the run.
An operation ("op") is the unit of work that gets one latency sample;
each op's output is checked by an oracle that does not share code with
the program path being timed.  A check returns None when the output is
right and a message when it is not.

Warm-up ops use inputs that no timed op of the same process sees.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Callable, Iterable

import numpy as np


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    tally: Callable[[object], dict] | None = None


class KnownDefect(str):
    """A check failure that is exactly a defect documented in README.md."""


@dataclass
class Workload:
    warmup: list
    ops: Iterable[Op]  # may be a generator that reads earlier outputs
    extra: dict = field(default_factory=dict)  # per-layer figures measured by the workload
    child_traces: list = field(default_factory=list)  # (op kind, stderr) of traced children


def _rng(*parts) -> random.Random:
    return random.Random("/".join(map(str, parts)))


# ---------------------------------------------------------------------------
# GF(2) helpers of the benchmark's own, independent of webfoam.gf2


def _rows_as_ints(m: np.ndarray) -> list[int]:
    return [int("".join("1" if x else "0" for x in row) or "0", 2) for row in m]


def _rank_gf2(m: np.ndarray) -> int:
    pivots: dict = {}
    for v in _rows_as_ints(m):
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _mul_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 products are exact here: every sum is at most the dimension
    return (a.astype(np.float64) @ b.astype(np.float64) % 2).astype(np.uint8)


def _random_basis_change(n: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """A random invertible n x n matrix over GF(2) and its inverse."""
    full = (1 << (2 * n)) - 1
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        aug = [(r << n) | (1 << (n - 1 - i)) for i, r in enumerate(rows)]
        ok = True
        for col in range(n):
            bit = 1 << (2 * n - 1 - col)
            pivot = next((i for i in range(col, n) if aug[i] & bit), None)
            if pivot is None:
                ok = False
                break
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for i in range(n):
                if i != col and aug[i] & bit:
                    aug[i] ^= aug[col]
        if ok:
            break

    def to_matrix(ints):
        return np.array([[(v >> (n - 1 - j)) & 1 for j in range(n)] for v in ints], dtype=np.uint8)

    return to_matrix(rows), to_matrix([v & (full >> n) for v in aug])


def _summand_oracle(operators: dict) -> dict:
    """Edge decomposition from commuting projectors.

    u^3 = u makes p = u^2 idempotent with im p = im u and ker p = ker u,
    so V(s) is the image of prod_{e in s}(1 + p_e) * prod_{e not in s} p_e.
    """
    names = sorted(operators)
    if not names:
        return {}
    dim = operators[names[0]].shape[0]
    eye = np.eye(dim, dtype=np.uint8)
    proj = {e: _mul_gf2(operators[e], operators[e]) for e in names}
    out = {}
    for mask in product((0, 1), repeat=len(names)):
        m = eye
        for e, bit in zip(names, mask):
            m = _mul_gf2(m, (eye ^ proj[e]) if bit else proj[e])
        r = _rank_gf2(m)
        if r:
            out[frozenset(e for e, bit in zip(names, mask) if bit)] = r
    return out


# ---------------------------------------------------------------------------
# closed forms for foam values (from the evaluation rules, not the code)


def _sphere_value(l: int) -> int:
    return 1 if l > 0 and l % 2 == 0 else 0


def _reduce(l: int) -> int:
    return l if l < 3 else 2 - (l % 2)


def _theta_value(a: int, b: int, c: int) -> int:
    return 1 if sorted(map(_reduce, (a, b, c))) == [0, 1, 2] else 0


def _torus_like(n: int, dots: int) -> int:
    """Sphere with n torus (or RP^2 of self-intersection -2) summands.

    Neck-cutting one summand gives the same surface with two more dots
    plus the surface without the summand.
    """
    if n == 0:
        return _sphere_value(dots)
    return _torus_like(n - 1, dots + 2) ^ _torus_like(n - 1, dots)


def _random_atom(rng: random.Random, kind: str) -> tuple[str, int]:
    """A random atom (or decorated atom) of the given kind and its value."""
    if kind == "sphere":
        l = rng.randint(0, 8)
        return f"(sphere {l})", _sphere_value(l)
    if kind == "theta":
        d = [rng.randint(0, 6) for _ in range(3)]
        return f"(theta {d[0]} {d[1]} {d[2]})", _theta_value(*d)
    if kind == "tet":
        d = [rng.randint(0, 3) for _ in range(6)]
        return (
            f"(tet {' '.join(map(str, d))})",
            _theta_value(d[0] + d[3], d[1] + d[4], d[2] + d[5]),
        )
    if kind == "surface":
        g, dots = rng.randint(0, 3), rng.randint(0, 4)
        return f"(surface {g} {dots})", _torus_like(g, dots)
    if kind == "crosscap":
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        a += a + b == 0
        dots = rng.randint(0, 4)
        return f"(crosscap {a} {b} {dots})", _torus_like(b, dots)
    deco = rng.choice(("sum-t2", "sum-r+", "sum-r-"))
    if kind == "deco-sphere":
        l = rng.randint(0, 6)
        value = _sphere_value(l) if deco == "sum-r+" else _torus_like(1, l)
        return f"({deco} (sphere {l}))", value
    d = [rng.randint(0, 4) for _ in range(3)]
    facet = rng.randint(0, 2)
    bumped = list(d)
    bumped[facet] += 2
    value = _theta_value(*d)
    if deco != "sum-r+":
        value ^= _theta_value(*bumped)
    return f"({deco} (theta {d[0]} {d[1]} {d[2]}) {facet})", value


FOAM_KINDS = ("sphere", "theta", "tet", "surface", "crosscap", "deco-sphere", "deco-theta")


def _random_foam(rng: random.Random) -> tuple[str, int]:
    """(plus A (union B C) D) over random atoms, and its value.

    Every expression has this one shape, so expressions differ in their
    dot counts and atom kinds but hardly in parsing and evaluation work.
    """
    (a, va), (b, vb), (c, vc), (d, vd) = (
        _random_atom(rng, rng.choice(FOAM_KINDS)) for _ in range(4)
    )
    return f"(plus {a} (union {b} {c}) {d})", va ^ (vb & vc) ^ vd


def _foam_ops(texts_values) -> list[Op]:
    from webfoam import foams

    def op(text, want):
        return Op(
            "foams.eval",
            lambda: foams.parse_expr(text).value(),
            lambda got: None if got == want else f"{text}: {got} != {want}",
            lambda got: {"foams.exprs": 1},
        )

    return [op(t, v) for t, v in texts_values]


# ---------------------------------------------------------------------------
# skein_random


SKEIN_STREAM_SEED = 20250809  # criterion 3's stream
SKEIN_DIAGRAMS = 60
SKEIN_MAX_CROSSINGS = 10
SKEIN_WARMUP = 8


def _skein_seed_diagrams():
    from webfoam import catalogue, webs

    return [
        webs.parse_diagram(json.dumps({"circles": ["a"]})),
        webs.parse_diagram(json.dumps({"circles": ["a", "b"]})),
        catalogue.load_diagram(catalogue.get("theta")),
        catalogue.load_diagram(catalogue.get("tetrahedron")),
        catalogue.load_diagram(catalogue.get("handcuffs")),
    ]


def _skein_op(d, text) -> Op:
    from webfoam import skein, tait, webs

    def check(out):
        want = (-1) ** (len(d.vertices) // 2) * tait.signed_tait(d)
        if out["chi"] != want:
            return f"chi {out['chi']} != (-1)^(V/2) * signed Tait {want}"
        if out["expansion_leaves"] != 2 ** len(d.crossings):
            return f"{out['expansion_leaves']} leaves for {len(d.crossings)} crossings"
        return None

    return Op(
        "skein.euler",
        lambda: skein.euler_char_report(webs.parse_diagram(text)),
        check,
        lambda out: {"skein.leaves": out["expansion_leaves"]},
    )


def build_skein_random(seed: int, index: int, root) -> Workload:
    """A fixed diagram population, visited in a seeded order.

    The population is the first SKEIN_DIAGRAMS diagrams of criterion 3's
    stream.  The seed orders them and draws the warm-up diagrams; it does
    not redraw or relabel the population (README.md gives the measured
    reason).
    """
    from webfoam import generate, webs

    seeds = _skein_seed_diagrams()
    stream = random.Random(SKEIN_STREAM_SEED)
    diagrams = [
        generate.random_diagram(seeds, SKEIN_MAX_CROSSINGS, stream) for _ in range(SKEIN_DIAGRAMS)
    ]
    texts = [webs.serialize_diagram(d) for d in diagrams]
    timed = set(texts)
    warm_rng = _rng("skein", seed, index, "warmup")
    warmup = []
    for _ in range(50 * SKEIN_WARMUP):
        if len(warmup) == SKEIN_WARMUP:
            break
        d = generate.random_diagram(seeds, 3, warm_rng)
        text = webs.serialize_diagram(d)
        if text not in timed:
            timed.add(text)
            warmup.append(_skein_op(d, text))
    order = list(range(SKEIN_DIAGRAMS))
    _rng("skein", seed, index, "order").shuffle(order)
    return Workload(warmup, [_skein_op(diagrams[i], texts[i]) for i in order])


# ---------------------------------------------------------------------------
# planar_census


A000421 = {2: 1, 4: 2, 6: 6, 8: 20, 10: 91}  # connected loop-free cubic multigraphs
CENSUS_MAX = 10
# exact known shortfalls of generate.cubic_multigraphs(n, allow_loops=False)
KNOWN_CENSUS_DEFECTS = {10: 90}
PRISM_SIDES = range(3, 9)  # prisms on 6..16 vertices
LABELLINGS = 3  # seeded relabellings of each census web
PRISM_LABELLINGS = 16  # and of each prism, the heaviest Tait checks


def _web_json(vertices, edge_ends: dict, circles, rng: random.Random) -> str:
    """Serialize a web under a random renaming of vertices and edges."""
    vs = list(vertices)
    rng.shuffle(vs)
    vname = {v: f"v{i}" for i, v in enumerate(vs)}
    es = list(edge_ends) + list(circles)
    rng.shuffle(es)
    ename = {e: f"e{i}" for i, e in enumerate(es)}
    recs = []
    for e in es:
        if e in edge_ends:
            (a, sa), (b, sb) = edge_ends[e]
            recs.append({"id": ename[e], "ends": [[vname[a], sa], [vname[b], sb]]})
        else:
            recs.append({"id": ename[e], "circle": True})
    return json.dumps({"vertices": [vname[v] for v in vs], "edges": recs})


def _prism_ends(k: int) -> tuple[list, dict]:
    """Vertices and edge ends of the k-gonal prism."""
    incid = {}
    for i in range(k):
        incid[f"a{i}"] = [f"r{i}", f"r{(i - 1) % k}", f"s{i}"]
        incid[f"b{i}"] = [f"q{i}", f"q{(i - 1) % k}", f"s{i}"]
    ends: dict = {}
    for v, es in incid.items():
        for slot, e in enumerate(es):
            ends.setdefault(e, []).append((v, slot))
    return list(incid), {e: tuple(p) for e, p in ends.items()}


def _tait_theorem_op(text: str) -> Op:
    from webfoam import tait, webs

    def run():
        w = webs.parse_web(text)
        return tait.tait_count(w), tait.planar_lsharp_dim(w)

    return Op(
        "tait.theorem",
        run,
        lambda out: None if out[0] == out[1] else f"tait_count {out[0]} != planar dim {out[1]}",
    )


def _census_check(n: int):
    import networkx as nx

    def check(graphs):
        for g in graphs:
            if g.number_of_nodes() != n or any(d != 3 for _, d in g.degree()):
                return f"census {n}: a graph is not cubic on {n} vertices"
            if any(u == v for u, v in g.edges()) or not nx.is_connected(g):
                return f"census {n}: a graph has a loop or is disconnected"
        if len(graphs) == A000421[n]:
            return None
        msg = f"census {n}: {len(graphs)} graphs, A000421 gives {A000421[n]}"
        return KnownDefect(msg) if KNOWN_CENSUS_DEFECTS.get(n) == len(graphs) else msg

    return check


def build_planar_census(seed: int, index: int, root) -> Workload:
    """Loop-free cubic census through CENSUS_MAX vertices, then the Tait theorem.

    The census, the planar filter and every Tait-theorem check are ops.
    Census webs and prisms are relabelled by the seed before serialization,
    because the backtrackers order edges by name.  The Tait checks run in a
    seeded order, so every kind of check is spread over the time after the
    census instead of being timed in one short stretch.
    """
    import networkx as nx

    from webfoam import generate

    rng = _rng("census", seed, index, "labels")
    prisms = [
        _web_json(*_prism_ends(k), (), rng) for k in PRISM_SIDES for _ in range(PRISM_LABELLINGS)
    ]

    theta = {"x": (("u", 0), ("w", 0)), "y": (("u", 1), ("w", 1)), "z": (("u", 2), ("w", 2))}
    warm_rng = _rng("census", seed, index, "warmup")
    warmup = [
        Op(
            "generate.census",
            lambda: generate.cubic_multigraphs(2, allow_loops=True),
            lambda gs: None if len(gs) == 2 else f"{len(gs)} cubic multigraphs on 2 vertices",
        ),
        _tait_theorem_op(_web_json(["u", "w"], theta, ["c"], warm_rng)),
    ]

    def ops():
        census: dict = {}
        planar: dict = {}
        for n in range(2, CENSUS_MAX + 1, 2):

            def run_census(n=n):
                census[n] = generate.cubic_multigraphs(n, allow_loops=False)
                return census[n]

            yield Op(
                "generate.census",
                run_census,
                _census_check(n),
                lambda gs: {"generate.census_graphs": len(gs)},
            )

            def run_planar(n=n):
                planar[n] = [g for g in census[n] if generate.is_planar_multigraph(g)]
                return planar[n]

            def check_planar(got, n=n):
                # parallel edges never affect planarity: test the simple graph
                want = [g for g in census[n] if nx.check_planarity(nx.Graph(g))[0]]
                return None if got == want else f"planar filter at {n}: {len(got)} != {len(want)}"

            yield Op("generate.planar", run_planar, check_planar)
        texts = list(prisms)
        for n in sorted(planar):
            for g in planar[n]:
                w = generate.multigraph_to_web(g)
                for _ in range(LABELLINGS):
                    texts.append(_web_json(w.vertices, w.edge_ends, w.circles, rng))
        rng.shuffle(texts)
        for text in texts:
            yield _tait_theorem_op(text)

    return Workload(warmup, ops())


# ---------------------------------------------------------------------------
# module_algebra


UNLINK_SIZES = range(2, 6)
# random bases per unlink size: the twelve 81-dimensional modules put a
# cluster of like ops at the tail percentile, which otherwise falls between
# unlike ops and jumps from one to another with machine noise
UNLINK_BASES = {2: 1, 3: 1, 4: 12, 5: 1}
QUOTIENTS = (
    (["u"], ["u^3 + u"], 3),
    (["u1", "u2", "u3"], ["u1 + u2 + u3", "u1*u2 + u2*u3 + u3*u1 + 1", "u1*u2*u3"], 6),
    (["u1", "u2", "v"], ["v", "u1 + u2", "u1^2 + 1"], 2),
) + tuple(
    ([f"u{i}" for i in range(1, k + 1)], [f"u{i}^3 + u{i}" for i in range(1, k + 1)], 3**k)
    for k in range(2, 5)
)
QUOTIENT_DEGREE = 10
THETA_ORACLE_DOTS = 8
FOAM_EXPRS = 60


def _unlink_operators(k: int) -> dict:
    """Edge operators of the k-component unlink, built independently: e_i is
    multiplication by u (on 1, u, u^2, with u^3 = u) in the i-th factor."""
    u = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    eye = np.eye(3, dtype=np.uint8)
    ops = {}
    for i in range(1, k + 1):
        m = np.eye(1, dtype=np.uint8)
        for j in range(1, k + 1):
            m = np.kron(m, u if j == i else eye)
        ops[f"e{i}"] = m
    return ops


def _module_expectations() -> dict:
    from webfoam import catalogue

    return {e.module_name: e for e in catalogue.CATALOGUE if e.module_name}


def _check_module(entry):
    def check(mod):
        if entry.dim is not None and mod.dim != entry.dim:
            return f"{entry.name}: dim {mod.dim} != {entry.dim}"
        if entry.chi is not None and mod.grading is not None:
            if mod.euler_characteristic() != entry.chi:
                return f"{entry.name}: chi {mod.euler_characteristic()} != {entry.chi}"
        return None

    return check


def _check_summands(want: dict, label: str):
    def check(dec):
        got = dict(dec.summands)
        return None if got == want else f"{label}: summands {got} != {want}"

    return check


def build_module_algebra(seed: int, index: int, root) -> Workload:
    """Catalogued modules, dense unlink modules, quotients and foam values."""
    from webfoam import foams, modules

    expected = _module_expectations()
    rng = _rng("modules", seed, index, "inputs")
    exprs = [_random_foam(rng) for _ in range(FOAM_EXPRS)]
    timed_texts = {t for t, _ in exprs}
    warm_rng = _rng("modules", seed, index, "warmup")
    warm_exprs = [e for e in (_random_foam(warm_rng) for _ in range(40)) if e[0] not in timed_texts]

    def summand_count(dec):
        return {"modules.summands": len(dec.summands)}

    warmup = [
        Op(
            "modules.build",
            lambda: modules.known_module("unlink_1"),
            lambda m: None if m.dim == 3 else f"unlink_1 dim {m.dim}",
        ),
        Op(
            "modules.quotient",
            lambda: modules.quotient_module(modules.Presentation.parse(["u"], ["u^2 + u"]), 6),
            lambda m: None if m.dim == 2 else f"F2[u]/(u^2+u) dim {m.dim}",
        ),
        Op(
            "foams.oracle",
            lambda: foams.theta_closure_oracle(2),
            lambda t: None if all(v == _theta_value(*k) for k, v in t.items()) else "theta table",
        ),
    ] + _foam_ops(warm_exprs[:8])

    def catalogued(name):
        built = {}

        def build():
            built["module"] = modules.known_module(name)
            return built["module"]

        yield Op("modules.build", build, _check_module(expected[name]))
        mod = built.get("module")
        if mod is not None and mod.operators:
            yield Op(
                "modules.decompose",
                lambda: modules.edge_decomposition(mod),
                _check_summands(_summand_oracle(mod.operators), name),
                summand_count,
            )

    def plain_unlink(k):
        want = _unlink_operators(k)

        def check(m):
            if m.dim != 3**k or m.euler_characteristic() != 3**k:
                return f"unlink_{k}: dim {m.dim}, chi {m.euler_characteristic()}"
            if set(m.operators) != set(want) or any(
                not np.array_equal(m.operators[e], want[e]) for e in want
            ):
                return f"unlink_{k}: operators differ from u acting on one tensor factor"
            return None

        yield Op("modules.build", lambda: modules.known_module(f"unlink_{k}"), check)

    def dense_unlink(k, b):
        # conjugating by a random basis change makes every operator dense
        forward, inverse = _random_basis_change(3**k, _rng("modules", seed, index, "basis", k, b))
        dense = {e: _mul_gf2(_mul_gf2(forward, m), inverse) for e, m in _unlink_operators(k).items()}
        built = {}

        def build():
            basis = tuple(f"b{i}" for i in range(3**k))
            built["module"] = modules.F2Module(3**k, basis, dense, (0,) * 3**k)
            return built["module"]

        yield Op(
            "modules.build",
            build,
            lambda m: None if m.dim == 3**k else f"dense unlink_{k}: dim {m.dim}",
        )
        if "module" in built:
            want = {
                frozenset(s): 2 ** (k - r) for r in range(k + 1) for s in combinations(dense, r)
            }
            yield Op(
                "modules.decompose",
                lambda: modules.edge_decomposition(built["module"]),
                _check_summands(want, f"dense unlink_{k}"),
                summand_count,
            )

    quotients = [
        Op(
            "modules.quotient",
            lambda gens=gens, rels=rels: modules.quotient_module(
                modules.Presentation.parse(gens, rels), QUOTIENT_DEGREE
            ),
            lambda m, dim=dim, rels=rels: None if m.dim == dim else f"{rels}: dim {m.dim} != {dim}",
        )
        for gens, rels, dim in QUOTIENTS
    ]
    oracle = Op(
        "foams.oracle",
        lambda: (foams.theta_closure_oracle(THETA_ORACLE_DOTS), foams.sphere_closure_oracle()),
        lambda out: None
        if all(v == _theta_value(*k) for k, v in out[0].items())
        and all(v == _sphere_value(l) for l, v in out[1].items())
        and len(out[0]) == (THETA_ORACLE_DOTS + 1) ** 3
        else "closure tables disagree with the evaluation rules",
    )
    # independent units (a build and the decomposition that needs it stay
    # together) in a seeded order, so that every kind of op is timed all
    # through the pass rather than in one stretch of it
    units = (
        [catalogued(name) for name in modules.KNOWN_WEBS]
        + [plain_unlink(k) for k in UNLINK_SIZES]
        + [dense_unlink(k, b) for k in UNLINK_SIZES for b in range(UNLINK_BASES[k])]
        + [[op] for op in quotients + [oracle] + _foam_ops(exprs)]
    )
    _rng("modules", seed, index, "order").shuffle(units)
    return Workload(warmup, chain.from_iterable(units))


# ---------------------------------------------------------------------------
# cli_cold


CLI_FOAMS = 3
CLI_DIMS = 3
BARE_STARTS = 5


def _cli_commands(root, rng: random.Random) -> list:
    """(kind, argv tail, check) for the command mix over the catalogue."""
    from webfoam import catalogue, modules

    data = "src/webfoam/data"
    cmds = []
    for e in catalogue.CATALOGUE:
        for fname in (e.web_file, e.diagram_file):
            if fname:
                doc = json.loads((root / data / fname).read_text())
                cmds.append(("tait", ["tait", f"{data}/{fname}"], _check_tait(e, doc)))
        if e.diagram_file:
            doc = json.loads((root / data / e.diagram_file).read_text())
            cmds.append(("euler", ["euler", f"{data}/{e.diagram_file}"], _check_euler(e, doc)))
    expected = _module_expectations()
    for name in modules.KNOWN_WEBS:
        mod = modules.known_module(name)
        want = {
            ",".join(sorted(map(str, s))) or "(none)": d
            for s, d in _summand_oracle(mod.operators).items()
        }
        cmds.append(
            ("module", ["module", "--web", name, "--decompose"], _check_module_doc(expected[name], want))
        )
    for _ in range(CLI_FOAMS):
        text, value = _random_foam(rng)
        cmds.append(("foam-eval", ["foam-eval", text], lambda doc, v=value: _eq(doc["value"], v)))
    for _ in range(CLI_DIMS):
        args, want = _random_dims(rng)
        cmds.append(("dims", ["dims", *args], lambda doc, w=want: _eq(doc, w)))
    cmds.append(
        (
            "catalogue",
            ["catalogue", "--verify"],
            lambda doc: _eq((doc["pass"], doc["failures"], doc["entries"]), (True, [], 12)),
        )
    )
    cmds.append(
        (
            "adhm-verify",
            ["adhm-verify", "--rank", "3"],
            lambda doc: _eq((doc["pass"], doc["rank"], doc["nu"], doc["nu_mod2"]), (True, 3, 3, 1)),
        )
    )
    return cmds


def _eq(got, want):
    return None if got == want else f"{got!r} != {want!r}"


def _check_tait(entry, doc):
    def check(out):
        if out["count"] != entry.tait_count:
            return f"{entry.name}: count {out['count']} != {entry.tait_count}"
        if entry.planar_dim is not None and out["planar_dim"] != entry.planar_dim:
            return f"{entry.name}: planar_dim {out['planar_dim']} != {entry.planar_dim}"
        if "edges" not in doc and entry.chi is not None:
            # criterion 3's identity chi = (-1)^(V/2) * signed Tait count
            want = (-1) ** (len(doc.get("vertices", [])) // 2) * entry.chi
            if out["signed"] != want:
                return f"{entry.name}: signed {out['signed']} != {want}"
        return None

    return check


def _check_euler(entry, doc):
    leaves = 2 ** len(doc.get("crossings", []))
    return lambda out: _eq((out["chi"], out["expansion_leaves"]), (entry.chi, leaves))


def _check_module_doc(entry, summands):
    def check(out):
        if out["dim"] != entry.dim:
            return f"{entry.name}: dim {out['dim']} != {entry.dim}"
        if entry.chi is not None and "chi" in out and out["chi"] != entry.chi:
            return f"{entry.name}: chi {out['chi']} != {entry.chi}"
        if out.get("decomposition", {}) != summands:
            return f"{entry.name}: decomposition {out.get('decomposition')} != {summands}"
        return None

    return check


def _random_dims(rng: random.Random):
    """CLI arguments for `dims` and the expected output, from the formula
    dim = 12 kappa - 8 (b+ - b1 + 1) + S.S + 2 chi - t."""
    kappa = Fraction(rng.randint(0, 12), 2)
    bplus, b1, t, chi = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 6), rng.randint(-4, 8)
    sigma = rng.randint(-6, 6)
    sigma += (sigma - t) % 2
    dim = 12 * kappa - 8 * (bplus - b1 + 1) + sigma + 2 * chi - t
    args = ["--kappa", str(kappa), "--bplus", str(bplus), "--b1", str(b1),
            "--sigma2", str(sigma), "--chi", str(chi), "--t", str(t)]
    return args, {"dim": str(dim), "dim_mod6": str(dim % 6), "parity": int(dim) % 2}


def _cli_op(kind, argv, check, env, root, traced: bool, sink: list) -> Op:
    """One command in a fresh interpreter; traced runs start it through
    worker.py, which installs the tracer before calling webfoam.cli.main."""
    if traced:
        cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--cli", *argv]
    else:
        cmd = [sys.executable, "-m", "webfoam.cli", *argv]

    def run():
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if traced:
            sink.append((kind, proc.stderr))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)

    def tally(doc):
        out = {}
        if kind == "euler":
            out["skein.leaves"] = doc["expansion_leaves"]
        if kind == "module":
            out["modules.summands"] = len(doc.get("decomposition", {}))
        return out

    return Op(f"cli.{kind}", run, check, tally)


def _start_ms(code: str, env, root) -> float:
    import time

    times = []
    for _ in range(BARE_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def build_cli_cold(seed: int, index: int, root, env=None, traced=False) -> Workload:
    """Closed loop, one client: each op is a fresh `python -m webfoam.cli`."""
    rng = _rng("cli", seed, index, "inputs")
    cmds = _cli_commands(root, rng)
    _rng("cli", seed, index, "order").shuffle(cmds)
    timed = {tuple(argv) for _, argv, _ in cmds}
    warm_rng = _rng("cli", seed, index, "warmup")
    warm = []
    while len(warm) < 2:
        text, value = _random_foam(warm_rng)
        if ("foam-eval", text) not in timed:
            warm.append(("foam-eval", ["foam-eval", text], lambda doc, v=value: _eq(doc["value"], v)))
    extra = {}
    if traced:
        bare = _start_ms("pass", env, root)
        extra["cli.python_start_ms"] = bare
        extra["cli.import_ms"] = _start_ms("import webfoam.cli", env, root) - bare
    sink: list = []
    return Workload(
        [_cli_op(k, a, c, env, root, False, sink) for k, a, c in warm],
        [_cli_op(k, a, c, env, root, traced, sink) for k, a, c in cmds],
        extra,
        sink,
    )


WORKLOADS = {
    "skein_random": (("webs", "tait", "skein", "generate", "catalogue"), build_skein_random),
    "planar_census": (("webs", "tait", "generate"), build_planar_census),
    "module_algebra": (("gf2", "modules", "foams", "catalogue"), build_module_algebra),
    "cli_cold": (("catalogue", "modules", "foams"), build_cli_cold),
}
