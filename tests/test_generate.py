import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfoam import generate
from webfoam.generate import (
    add_kink,
    add_poke,
    cubic_multigraphs,
    is_planar_multigraph,
    planar_cubic_webs,
    random_diagram,
)
from webfoam.skein import euler_char
from webfoam.tait import tait_count
from webfoam.webs import parse_diagram, underlying_web, web_component_count

SIZES = range(2, 11, 2)
A005967 = [2, 5, 17, 71, 388]  # connected cubic multigraphs, loops allowed, n = 2..10
A000421 = [1, 2, 6, 20, 91]  # the loop-free ones
PLANAR_LOOP_FREE = [1, 2, 5, 17, 71]


@pytest.fixture(scope="session")
def levels() -> list:
    """The census levels for n = 2..10, grown once: ``generate._census(10)``."""
    return list(generate._census(max(SIZES)))


def from_levels(levels, build):
    """``build()`` with ``generate._census`` serving the levels grown once,
    so the public functions it calls do not regrow them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "_census", lambda top: iter([lv for lv in levels if lv[0] <= top]))
        return build()


@pytest.fixture(scope="session")
def census(levels):
    """The census for n = 2..10, by ``cubic_multigraphs(n)``."""
    return from_levels(levels, lambda: {n: cubic_multigraphs(n) for n in SIZES})


@pytest.fixture(scope="session")
def planar_webs(levels):
    return from_levels(levels, lambda: planar_cubic_webs(10))


@pytest.fixture(scope="module")
def planar(census, planar_webs):
    """The planarity of each census graph: a loop-free one is planar when
    ``planar_cubic_webs(10)`` lists it, a looped one when
    ``is_planar_multigraph`` says so."""
    listed = {key_of(w) for w in planar_webs}
    return {n: [key_of(w) in listed if not w.has_loop() else is_planar_multigraph(w) for w in census[n]] for n in SIZES}


def key_of(w) -> tuple:
    """The edge list a census web was built from: edge ``e{i}`` is pair i."""
    ends = (w.edge_ends[f"e{i}"] for i in range(len(w.edge_ends)))
    return tuple((min(u, v), max(u, v)) for (u, _), (v, _) in ends)


def nx_graph(w) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(w.vertices)
    g.add_edges_from((u, v) for (u, _), (v, _) in w.edge_ends.values())
    return g


def labelled_cubic(n: int):
    """Every labelled multiplicity matrix on n vertices whose rows sum to 3
    (a loop counts 2), as an edge list: a backtrack over the entries
    (i, j), i <= j, in row order."""
    rem = [3] * n
    edges = []

    def place(i, j):
        if i == n:
            yield list(edges)
        elif j == n:
            if rem[i] == 0:
                yield from place(i + 1, i + 1)
        else:
            most = rem[i] // 2 if i == j else min(rem[i], rem[j])
            for k in range(most + 1):
                rem[i] -= k
                rem[j] -= k  # when i == j, a loop takes 2 from the row
                edges.extend([(i, j)] * k)
                yield from place(i, j + 1)
                del edges[len(edges) - k :]
                rem[i] += k
                rem[j] += k

    return place(0, 0)


def brute_force_classes(n: int) -> list:
    """The connected labelled cubic multigraphs on n vertices, one per
    ``nx.is_isomorphic`` class (compared within buckets of equal
    multiplicity multisets)."""
    buckets: dict = {}
    for edges in labelled_cubic(n):
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if nx.is_connected(g):
            bucket = buckets.setdefault(tuple(sorted(Counter(edges).values())), [])
            if not any(nx.is_isomorphic(g, h) for h in bucket):
                bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


def test_census_counts():
    # connected cubic multigraphs without loops: 1, 2, 6, 20
    assert len(cubic_multigraphs(2, allow_loops=False)) == 1
    assert len(cubic_multigraphs(4, allow_loops=False)) == 2
    assert len(cubic_multigraphs(6, allow_loops=False)) == 6
    assert len(cubic_multigraphs(8, allow_loops=False)) == 20


def test_census_matches_oeis(census):
    assert [len(census[n]) for n in SIZES] == A005967
    assert [sum(not w.has_loop() for w in census[n]) for n in SIZES] == A000421
    for n in (2, 4, 6, 8):
        assert cubic_multigraphs(n, allow_loops=False) == [w for w in census[n] if not w.has_loop()]
    assert cubic_multigraphs(0) == cubic_multigraphs(5) == []


def test_census_is_canonical_and_repeatable(census):
    """Each web is its own canonical key, relabelled 0..n-1 with edges in
    key order; each level is sorted by key; a second call returns an
    equal list."""
    for n in SIZES:
        keys = [key_of(w) for w in census[n]]
        assert keys == sorted(set(keys))
        for w, key in zip(census[n], keys):
            assert w.vertices == tuple(range(n)) and not w.circles
            assert generate._canonical(n, key) == key
    for seed in (((0, 1), (0, 1), (0, 1)), ((0, 0), (0, 1), (1, 1))):  # theta, dumbbell
        assert generate._canonical(2, seed) == seed
    assert cubic_multigraphs(8) == census[8]


def test_census_does_not_depend_on_the_hash_seed(census):
    code = (
        "from webfoam.generate import cubic_multigraphs\n"
        "print([sorted(w.edge_ends.items()) for w in cubic_multigraphs(6)])"
    )
    src = os.path.dirname(os.path.dirname(generate.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == f"{[sorted(w.edge_ends.items()) for w in census[6]]}\n"


def test_census_equals_brute_force(census):
    for n in (2, 4, 6):
        classes = brute_force_classes(n)
        graphs = [nx_graph(w) for w in census[n]]
        matches = [[i for i, g in enumerate(graphs) if nx.is_isomorphic(c, g)] for c in classes]
        assert sorted(matches) == [[i] for i in range(len(graphs))], n


def test_census_pairwise_non_isomorphic(census):
    for n in (2, 4, 6, 8):
        graphs = [nx_graph(w) for w in census[n]]
        assert not any(nx.is_isomorphic(a, b) for a, b in combinations(graphs, 2)), n


def test_planarity_agrees_with_networkx(census, planar):
    """``Diagram``'s Euler test over rotation systems against networkx on
    the subdivided graph (a simple graph, so loops and parallel edges
    count)."""
    for n in SIZES:
        for w, flag in zip(census[n], planar[n]):
            g = nx.Graph()
            g.add_nodes_from(w.vertices)
            for e, ((u, _), (v, _)) in w.edge_ends.items():
                nx.add_path(g, [u, ("mid", e), v])
            assert flag == nx.check_planarity(g)[0], key_of(w)


def test_planar_census(census, planar, planar_webs):
    assert len(planar_webs) == 96
    assert [sum(len(w.vertices) == n for w in planar_webs) for n in SIZES] == PLANAR_LOOP_FREE
    assert planar_webs == [w for n in SIZES for w, flag in zip(census[n], planar[n]) if flag and not w.has_loop()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_relabelled_graph_has_the_same_key(census, data):
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    key = key_of(data.draw(st.sampled_from(census[n])))
    perm = data.draw(st.permutations(range(n)))
    edges = [(perm[v], perm[u]) if data.draw(st.booleans()) else (perm[u], perm[v]) for u, v in key]
    edges = data.draw(st.permutations(edges))
    assert generate._canonical(n, tuple(edges)) == key


def test_import_loads_no_networkx():
    src = os.path.dirname(os.path.dirname(generate.__file__))
    code = "import sys, webfoam.generate; print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_webs_are_valid_and_trivalent():
    for w in planar_cubic_webs(6):
        assert len(w.vertices) % 2 == 0
        for v in w.vertices:
            assert len(w.slot_edges[v]) == 3


def test_k4_and_cube_present():
    taits = sorted(tait_count(w) for w in planar_cubic_webs(8))
    assert 24 in taits  # the cube
    assert taits.count(6) >= 2  # theta and the tetrahedron at least


def test_nonplanar_excluded():
    # K_3,3 is the unique non-planar connected cubic multigraph on 6 vertices
    all6 = cubic_multigraphs(6, allow_loops=False)
    planar6 = [w for w in all6 if is_planar_multigraph(w)]
    assert len(all6) - len(planar6) == 1
    k33 = [w for w in all6 if not is_planar_multigraph(w)][0]
    assert tait_count(k33) == 12


def test_kink_preserves_web():
    d = parse_diagram(json.dumps({"circles": ["a"]}))
    rng = random.Random(0)
    d2 = add_kink(d, "a", "x1", rng)
    assert len(d2.crossings) == 1
    assert len(underlying_web(d2).circles) == 1


def test_poke_adds_two_crossings():
    d = parse_diagram(
        json.dumps(
            {
                "vertices": [
                    {"id": "u", "darts": ["e2", "e1", "e3"]},
                    {"id": "w", "darts": ["e1", "e2", "e3"]},
                ]
            }
        )
    )
    rng = random.Random(1)
    d2 = add_poke(d, rng, "t")
    assert d2 is not None
    assert len(d2.crossings) == 2
    w1 = underlying_web(d)
    w2 = underlying_web(d2)
    assert web_component_count(w1) == web_component_count(w2)
    assert euler_char(d2) == euler_char(d)


def test_random_diagrams_valid_and_bounded():
    seeds = [
        parse_diagram(json.dumps({"circles": ["a"]})),
        parse_diagram(
            json.dumps(
                {
                    "vertices": [
                        {"id": "u", "darts": ["e2", "e1", "e3"]},
                        {"id": "w", "darts": ["e1", "e2", "e3"]},
                    ]
                }
            )
        ),
    ]
    rng = random.Random(3)
    for _ in range(30):
        d = random_diagram(seeds, 6, rng)
        assert len(d.crossings) <= 6
        underlying_web(d)  # validates


def test_poke_failure_other_than_value_error_propagates(monkeypatch):
    def broken(*args):
        raise RuntimeError("bug in _poke")

    monkeypatch.setattr(generate, "_poke", broken)
    theta = {"vertices": [{"id": "u", "darts": ["e2", "e1", "e3"]}, {"id": "w", "darts": ["e1", "e2", "e3"]}]}
    with pytest.raises(RuntimeError):
        add_poke(parse_diagram(json.dumps(theta)), random.Random(0), "t")
