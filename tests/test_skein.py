import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfoam import catalogue, tait
from webfoam.generate import add_kink, add_poke, cubic_multigraphs, multigraph_to_web, planar_cubic_webs, random_diagram
from webfoam.skein import (
    ALIGNED_PAIRING,
    CALIBRATED_PAIRING,
    euler_char,
    euler_char_dual,
    euler_char_report,
    site_modifications,
    tutte_check,
)
from webfoam.tait import planar_lsharp_dim, signed_tait, signed_tait_count, tait_colorings, tait_count
from webfoam.webs import (
    Crossing,
    Diagram,
    SMOOTH_A,
    SMOOTH_B,
    EDGE_A,
    EDGE_B,
    WebError,
    disjoint_union_diagrams,
    flip_crossing,
    parse_diagram,
    resolve_crossing,
    serialize_diagram,
    Vertex,
    underlying_web,
    web_from_incidences,
)

KINK = json.dumps({"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": [0, 2]}]})


def leaf_expansion(d, smooth_kind, edge_kind):
    """The skein expansion as the paper states it: resolve crossings one at
    a time with the validated public operation, then count the Tait
    colorings of each crossing-free leaf.  The leaves are counted by the
    enumeration, since ``tait_count`` and ``euler_char`` share one
    contraction kernel."""
    if not d.crossings:
        return len(list(tait_colorings(underlying_web(d))))
    cid = min((c.id for c in d.crossings), key=str)
    return leaf_expansion(resolve_crossing(d, cid, smooth_kind), smooth_kind, edge_kind) - (
        leaf_expansion(resolve_crossing(d, cid, edge_kind), smooth_kind, edge_kind)
    )


def seed_diagrams():
    return [
        parse_diagram(json.dumps({"circles": ["a"]})),
        parse_diagram(json.dumps({"circles": ["a", "b"]})),
        catalogue.load_diagram(catalogue.get("theta")),
        catalogue.load_diagram(catalogue.get("tetrahedron")),
        catalogue.load_diagram(catalogue.get("handcuffs")),
    ]


def criterion_3_stream():
    """Criterion 3's 200 random diagrams (seed 20250809, up to 10 crossings)."""
    rng = random.Random(20250809)
    seeds = seed_diagrams()
    return [random_diagram(seeds, 10, rng) for _ in range(200)]


def census_webs():
    return [multigraph_to_web(g) for n in range(2, 9, 2) for g in cubic_multigraphs(n, allow_loops=True)]


class TestBaseCases:
    def test_unknot(self):
        assert euler_char(parse_diagram(json.dumps({"circles": ["a"]}))) == 3

    def test_unlink_multiplicativity(self):
        assert euler_char(parse_diagram(json.dumps({"circles": ["a", "b"]}))) == 9

    def test_planar_base_equals_tait(self):
        for name in ("theta", "tetrahedron", "cube", "handcuffs"):
            d = catalogue.load_diagram(catalogue.get(name))
            w = underlying_web(d)
            assert euler_char(d) == tait_count(w) == planar_lsharp_dim(w)

    def test_plane_prism_at_scale(self):
        # 1,600 vertices, 4,800 darts, 2,400 arcs; chi is the prism's Tait count
        from test_tait import prism_diagram

        d = prism_diagram(800)
        assert euler_char_report(d) == {"chi": 2**800 + 8, "expansion_leaves": 1}
        assert "partner" not in d.__dict__ and "arc_ends" not in d.__dict__


def test_evaluation_builds_no_tuple_tables():
    # a parse and an evaluation read the integer dart tables alone
    for d in criterion_3_stream()[:60]:
        d = parse_diagram(serialize_diagram(d))
        euler_char_report(d)
        assert not {"partner", "arc_ends", "arc_at", "faces"} & d.__dict__.keys()


class TestKnownValues:
    def test_hopf(self):
        assert euler_char(catalogue.load_diagram(catalogue.get("hopf"))) == 9

    def test_trefoil(self):
        assert euler_char(catalogue.load_diagram(catalogue.get("trefoil"))) == 3

    def test_lhc(self):
        assert euler_char(catalogue.load_diagram(catalogue.get("lhc"))) == 0

    def test_kink(self):
        assert euler_char(parse_diagram(KINK)) == 3

    def test_k33(self):
        assert euler_char(catalogue.load_diagram(catalogue.get("k33"))) == 0

    def test_report_counts_leaves(self):
        rep = euler_char_report(catalogue.load_diagram(catalogue.get("trefoil")))
        assert rep == {"chi": 3, "expansion_leaves": 8}


class TestCalibration:
    """The pairing of smoothings with inserted-edge webs is the one where
    the edge web groups darts like the opposite smoothing; the aligned
    pairing misses the calibration targets."""

    def test_calibrated_pairing_hits_targets(self):
        assert euler_char(parse_diagram(KINK), CALIBRATED_PAIRING) == 3
        assert euler_char(catalogue.load_diagram(catalogue.get("hopf")), CALIBRATED_PAIRING) == 9
        assert euler_char(catalogue.load_diagram(catalogue.get("trefoil")), CALIBRATED_PAIRING) == 3

    def test_aligned_pairing_fails_targets(self):
        kink_val = euler_char(parse_diagram(KINK), ALIGNED_PAIRING)
        hopf_val = euler_char(catalogue.load_diagram(catalogue.get("hopf")), ALIGNED_PAIRING)
        assert (kink_val, hopf_val) != (3, 9)
        assert kink_val != 3
        assert hopf_val != 9

    def test_pairings_are_complementary(self):
        assert CALIBRATED_PAIRING == {SMOOTH_A: EDGE_B, SMOOTH_B: EDGE_A}


class TestInvariance:
    def test_crossing_change(self):
        for name in ("hopf", "trefoil", "lhc", "k33"):
            d = catalogue.load_diagram(catalogue.get(name))
            base = euler_char(d)
            for c in d.crossings:
                assert euler_char(flip_crossing(d, c.id)) == base

    def test_dual_expansion_agrees(self):
        rng = random.Random(11)
        seeds = seed_diagrams()
        for d in [random_diagram(seeds, 7, rng) for _ in range(40)] + criterion_3_stream():
            assert euler_char(d) == euler_char_dual(d)

    def test_signed_tait_identity(self):
        rng = random.Random(23)
        seeds = seed_diagrams()
        for _ in range(60):
            d = random_diagram(seeds, 8, rng)
            n = len(d.vertices)
            assert euler_char(d) == (-1) ** (n // 2) * signed_tait(d)

    def test_signed_tait_identity_up_to_20_crossings(self):
        rng = random.Random(29)
        seeds = seed_diagrams()
        largest = 0
        for _ in range(50):
            d = random_diagram(seeds, 20, rng)
            largest = max(largest, len(d.crossings))
            n = len(d.vertices)
            assert euler_char(d) == (-1) ** (n // 2) * signed_tait(d)
        assert largest == 20

    def test_kink_poke_and_flip_leave_chi(self):
        rng = random.Random(37)
        pokes = 0
        for d in criterion_3_stream():
            chi = euler_char(d)
            if d.arcs:
                assert euler_char(add_kink(d, rng.choice(d.arcs), "kink", rng)) == chi
            poked = add_poke(d, rng, "poke")
            if poked is not None:
                pokes += 1
                assert euler_char(poked) == chi
            for c in d.crossings:
                assert euler_char(flip_crossing(d, c.id)) == chi
        assert pokes > 100

    def test_kernel_signed_count_matches_oracle(self):
        for d in criterion_3_stream():
            assert signed_tait_count(d) == signed_tait(d)

    def test_multiplicativity(self):
        d1 = catalogue.load_diagram(catalogue.get("hopf"))
        d2 = catalogue.load_diagram(catalogue.get("trefoil"))
        u = disjoint_union_diagrams(d1, d2)
        assert euler_char(u) == euler_char(d1) * euler_char(d2)

    @pytest.mark.parametrize("pairing", [CALIBRATED_PAIRING, ALIGNED_PAIRING])
    def test_state_sum_matches_leaf_expansion(self, pairing):
        rng = random.Random(3)
        seeds = seed_diagrams()
        crossings = 0
        for _ in range(100):
            d = random_diagram(seeds, 5, rng)
            crossings += len(d.crossings)
            assert euler_char(d, pairing) == leaf_expansion(d, SMOOTH_A, pairing[SMOOTH_A])
            assert euler_char_dual(d, pairing) == leaf_expansion(d, SMOOTH_B, pairing[SMOOTH_B])
        assert crossings > 100

    def test_fast_engine_matches_public_resolutions(self):
        # expand one crossing by hand with the validated public operation
        for name in ("hopf", "trefoil", "lhc"):
            d = catalogue.load_diagram(catalogue.get(name))
            cid = min((c.id for c in d.crossings), key=str)
            direct = euler_char(d)
            via_public = euler_char(resolve_crossing(d, cid, SMOOTH_A)) - euler_char(
                resolve_crossing(d, cid, EDGE_B)
            )
            assert direct == via_public


def stream_values(diagrams) -> list:
    return [[euler_char_report(d)["chi"], euler_char_dual(d)] for d in diagrams]


def test_results_ignore_process_history():
    """In this process, whose table cache earlier tests have filled, the
    criterion-3 stream forward, then backward between census Tait counts,
    gives the values a fresh interpreter computes."""
    tests = str(pathlib.Path(__file__).resolve().parent)
    src = str(pathlib.Path(tait.__file__).resolve().parents[1])
    script = f"""
import json, sys
sys.path[:0] = [{src!r}, {tests!r}]
from test_skein import census_webs, criterion_3_stream, stream_values
from webfoam import tait
assert tait._local_table.cache_info().currsize == 0
print(json.dumps([stream_values(criterion_3_stream()), [tait.tait_count(w) for w in census_webs()]]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    fresh_stream, fresh_census = json.loads(out.stdout)
    stream, census = criterion_3_stream(), census_webs()
    assert stream_values(stream) == fresh_stream
    backward, counts = [], []
    for i, d in enumerate(reversed(stream)):
        backward += stream_values([d])
        counts.append(tait.tait_count(census[i % len(census)]))
    assert backward[::-1] == fresh_stream
    assert counts == [fresh_census[i % len(census)] for i in range(len(stream))]
    assert tait._local_table.cache_info().currsize > 0


examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def diagram_pool():
    rng = random.Random(31)
    return [random_diagram(seed_diagrams(), 6, rng) for _ in range(30)]


POOL = diagram_pool()


def relabelled(d, data):
    """``d`` with its nodes reordered, each vertex's arcs rotated, some
    crossings turned half way round, and new node and arc labels."""
    arcs = data.draw(st.permutations(sorted(d.arc_ends, key=str) + sorted(d.circles, key=str)))
    new_arc = {a: f"a{i}" for i, a in enumerate(arcs)}
    ids = iter(data.draw(st.permutations(range(len(d.vertices) + len(d.crossings)))))

    def turned(t, k):
        return tuple(new_arc[a] for a in t[k:] + t[:k])

    vertices = [Vertex(next(ids), turned(v.arcs, data.draw(st.integers(0, 2)))) for v in d.vertices]
    crossings = [Crossing(next(ids), turned(c.arcs, data.draw(st.sampled_from([0, 2]))), c.over) for c in d.crossings]
    return Diagram(
        tuple(data.draw(st.permutations(vertices))),
        tuple(data.draw(st.permutations(crossings))),
        tuple(data.draw(st.permutations([new_arc[a] for a in d.circles]))),
    )


@examples
@given(st.sampled_from(POOL), st.data())
def test_euler_char_ignores_labels(d, data):
    e = relabelled(d, data)
    assert euler_char(e) == euler_char(d)
    assert euler_char_dual(e) == euler_char_dual(d)


@examples
@given(st.sampled_from(POOL), st.sampled_from(POOL), st.data())
def test_euler_char_multiplies_under_disjoint_union(a, b, data):
    # relabelled, so the two components' nodes interleave
    u = relabelled(disjoint_union_diagrams(a, b), data)
    assert euler_char(u) == euler_char(a) * euler_char(b)
    assert euler_char_dual(u) == euler_char_dual(a) * euler_char_dual(b)


def site_values(w, e, f):
    """Tait counts of recon_a, recon_b, bar_a, bar_b at the site (e, f)."""
    mods = site_modifications(w, e, f)
    return [tait_count(mods[k]) for k in ("recon_a", "recon_b", "bar_a", "bar_b")]


class TestTutte:
    def test_theta_site(self):
        d = catalogue.load_diagram(catalogue.get("theta"))
        assert tutte_check(d, ("e1", "e2"))

    def test_cube_site(self):
        d = catalogue.load_diagram(catalogue.get("cube"))
        assert tutte_check(d, ("o12", "i56"))

    def test_unlink_site(self):
        d = parse_diagram(json.dumps({"circles": ["a", "b"]}))
        assert tutte_check(d, ("a", "b"))

    def test_random_sites(self):
        rng = random.Random(5)
        for w in planar_cubic_webs(8):
            edges = w.edges
            for _ in range(3):
                e, f = rng.sample(edges, 2)
                mods = site_modifications(w, e, f)
                lhs = tait_count(mods["bar_a"]) + tait_count(mods["recon_a"])
                rhs = tait_count(mods["bar_b"]) + tait_count(mods["recon_b"])
                assert lhs == rhs

    def test_all_sites(self):
        for w in planar_cubic_webs(6):
            for e in w.edges:
                for f in w.edges:
                    if e != f:
                        mods = site_modifications(w, e, f)
                        lhs = tait_count(mods["bar_a"]) + tait_count(mods["recon_a"])
                        rhs = tait_count(mods["bar_b"]) + tait_count(mods["recon_b"])
                        assert lhs == rhs

    def test_circle_and_edge_site(self):
        # a theta edge and a free circle: either reconnection splices the
        # circle into the edge (a theta, 6); either bar gives 12
        theta = catalogue.load_diagram(catalogue.get("theta"))
        d = disjoint_union_diagrams(theta, parse_diagram(json.dumps({"circles": ["c"]})))
        w = underlying_web(d)
        for site in (("A:e1", "B:c"), ("B:c", "A:e2")):
            assert site_values(w, *site) == [6, 6, 12, 12]
            assert tutte_check(d, site)

    def test_loop_site(self):
        # handcuffs: reconnecting or barring its two loops gives a theta or a
        # tetrahedron; a loop with the bridge keeps a bridge
        w = catalogue.load_web(catalogue.get("handcuffs"))
        assert site_values(w, "l1", "l2") == [6, 6, 6, 6]
        assert site_values(w, "l1", "b") == [0, 0, 0, 0]

    def test_parallel_edge_site(self):
        # two digons joined in a ring (12 colorings); recon_a turns the
        # digon p into two loops, recon_b rebuilds it
        w = web_from_incidences(
            {"a": ["p1", "p2", "x"], "b": ["p1", "p2", "y"], "c": ["x", "q1", "q2"],
             "d": ["y", "q1", "q2"]}
        )
        assert tait_count(w) == 12
        assert site_values(w, "p1", "p2") == [0, 12, 24, 12]
        assert site_values(w, "p1", "q1") == [12, 6, 6, 12]

    def test_unknown_site_edge(self):
        w = catalogue.load_web(catalogue.get("theta"))
        for site in (("e1", "nope"), ("nope", "e1")):
            with pytest.raises(WebError, match="not an edge"):
                site_modifications(w, *site)

    def test_site_on_crossing_diagram_rejected(self):
        d = catalogue.load_diagram(catalogue.get("hopf"))
        with pytest.raises(WebError):
            tutte_check(d, ("a", "b"))

    def test_invalid_site(self):
        d = catalogue.load_diagram(catalogue.get("theta"))
        with pytest.raises(WebError):
            tutte_check(d, ("e1", "nope"))

    def test_theta_site_values(self):
        # reconnections give the handcuffs (0) and a theta (6); the bars
        # give the doubled square (12) and the tetrahedron (6)
        d = catalogue.load_diagram(catalogue.get("theta"))
        w = underlying_web(d)
        mods = site_modifications(w, "e1", "e2")
        values = sorted(
            (tait_count(mods[k]) for k in ("recon_a", "recon_b", "bar_a", "bar_b"))
        )
        assert sorted([0, 6, 6, 12]) == values
