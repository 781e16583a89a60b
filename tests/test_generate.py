import json
import random

import pytest

from webfoam import generate
from webfoam.generate import (
    add_kink,
    add_poke,
    cubic_multigraphs,
    is_planar_multigraph,
    multigraph_to_web,
    planar_cubic_webs,
    random_diagram,
)
from webfoam.skein import euler_char
from webfoam.tait import tait_count
from webfoam.webs import parse_diagram, underlying_web, web_component_count


def test_census_counts():
    # connected cubic multigraphs without loops: 1, 2, 6, 20
    assert len(cubic_multigraphs(2, allow_loops=False)) == 1
    assert len(cubic_multigraphs(4, allow_loops=False)) == 2
    assert len(cubic_multigraphs(6, allow_loops=False)) == 6
    assert len(cubic_multigraphs(8, allow_loops=False)) == 20


def test_webs_are_valid_and_trivalent():
    for w in planar_cubic_webs(6):
        assert len(w.vertices) % 2 == 0
        for v in w.vertices:
            assert len(w.vertex_edges(v)) == 3


def test_k4_and_cube_present():
    taits = sorted(tait_count(w) for w in planar_cubic_webs(8))
    assert 24 in taits  # the cube
    assert taits.count(6) >= 2  # theta and the tetrahedron at least


def test_nonplanar_excluded():
    # K_3,3 is the unique non-planar connected cubic multigraph on 6 vertices
    all6 = cubic_multigraphs(6, allow_loops=False)
    planar6 = [g for g in all6 if is_planar_multigraph(g)]
    assert len(all6) - len(planar6) == 1
    k33 = [g for g in all6 if not is_planar_multigraph(g)][0]
    assert tait_count(multigraph_to_web(k33)) == 12


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
