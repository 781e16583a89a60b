import json
import pathlib
import subprocess
import sys

import pytest

from webfoam.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_path(name: str) -> str:
    from importlib import resources

    return str(resources.files("webfoam").joinpath("data", name))


class TestSubcommands:
    def test_tait_theta(self, capsys):
        code, out, _ = run_cli(capsys, "tait", data_path("theta.web.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 6
        assert doc["planar_dim"] == 6
        assert len(doc["one_sets"]) == 3

    def test_tait_on_diagram_includes_signed(self, capsys):
        code, out, _ = run_cli(capsys, "tait", data_path("tetrahedron.diagram.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 6 and doc["signed"] == 6

    def test_euler(self, capsys):
        code, out, _ = run_cli(capsys, "euler", data_path("hopf.diagram.json"))
        assert code == 0
        assert json.loads(out) == {"chi": 9, "expansion_leaves": 4}

    def test_foam_eval(self, capsys):
        code, out, _ = run_cli(capsys, "foam-eval", "theta 0 1 2")
        assert code == 0
        assert json.loads(out) == {"value": 1}

    def test_module(self, capsys):
        code, out, _ = run_cli(capsys, "module", "--web", "unknot", "--decompose")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert doc["chi"] == 3
        assert doc["decomposition"] == {"(none)": 2, "e": 1}
        assert doc["operators"]["e"] == "u^3 + u"

    def test_dims(self, capsys):
        code, out, _ = run_cli(
            capsys, "dims", "--kappa", "0", "--chi", "4", "--t", "2"
        )
        assert code == 0
        assert json.loads(out) == {"dim": "-2", "dim_mod6": "4", "parity": 0}

    def test_adhm_verify(self, capsys):
        code, out, _ = run_cli(capsys, "adhm-verify", "--rank", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["nu"] == 3 and doc["nu_mod2"] == 1 and doc["pass"]

    def test_catalogue_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalogue")
        assert code == 0
        doc = json.loads(out)["entries"]
        assert len(doc) >= 12
        assert doc["cube"]["tait"] == 24
        assert doc["k33"]["dim"] == 12 and doc["k33"]["chi"] == 0

    def test_catalogue_verify(self, capsys):
        code, out, _ = run_cli(capsys, "catalogue", "--verify")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "table", "foam-eval", "sphere 2")
        assert code == 0
        assert "value" in out and "1" in out


class TestExitCodes:
    def test_domain_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [{"id": "v", "darts": ["a", "a", "a"]}]}')
        code, _, err = run_cli(capsys, "euler", str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_cli(capsys, "tait", "no-such-file.json")
        assert code == 1

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["module"])  # missing --web
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--kappa", "abc"), ("--sigma2", "1/2/3"), ("--kappa", "1/0")])
    def test_bad_fraction_is_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["dims", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid fraction value: '{value}'" in err
        assert "_frac" not in err

    def test_bad_expression_is_one(self, capsys):
        code, _, err = run_cli(capsys, "foam-eval", "wedge 3")
        assert code == 1

    def test_deep_expression_is_one(self, capsys):
        code, out, err = run_cli(capsys, "foam-eval", "(plus " * 3000 + "(sphere 2)" + ")" * 3000)
        assert code == 1
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("name", ["unlink_0", "unlink_-1", "unlink_1_2", "unlink_x", "unlink_6", "unlink_9"])
    def test_bad_unlink_name_is_one(self, capsys, name):
        code, out, err = run_cli(capsys, "module", "--web", name, "--decompose")
        assert code == 1
        assert out == "" and err.startswith("error: ")

    def test_runaway_union_is_one(self, capsys):
        # 40 distinct two-term factors would multiply out to 2^40 terms
        sums = (f"(plus (sphere {2 * i}) (sphere {2 * i + 1}))" for i in range(40))
        code, out, err = run_cli(capsys, "foam-eval", "(union " + " ".join(sums) + ")")
        assert code == 1
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": [{"id": [1], "circle": True}]},
        {"edges": 5},
        {"vertices": ["u"], "edges": [{"id": "a", "ends": 5}]},
        {"vertices": [{"darts": ["a", "b", "c"]}]},
        {"crossings": [{"id": "x", "darts": ["A", "A", "B", "B"], "over": 5}]},
        {"circles": 5},
        {"circles": [["a"]]},
        # a string of darts is not a list of three arcs (it would parse as a theta)
        {"vertices": [{"id": "u", "darts": "abc"}, {"id": "w", "darts": "acb"}]},
        # repeated labels are refused, not merged
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
    ],
)
def test_malformed_input_is_a_domain_error(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "tait", str(bad))
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_console_script_runs():
    out = subprocess.run(
        [sys.executable, "-m", "webfoam.cli", "foam-eval", "sphere 2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"value": 1}


def modules_loaded(*argvs) -> list:
    """Run ``cli.main`` on each argv in turn in a fresh interpreter (other
    tests import numpy into this one); after each, the names in
    ``sys.modules`` that start with ``numpy``, ``networkx`` or ``webfoam.``."""
    import webfoam

    src = str(pathlib.Path(webfoam.__file__).resolve().parents[1])
    script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from webfoam.cli import main
loaded = []
for argv in {[list(a) for a in argvs]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append(sorted({{m if m.startswith("webfoam.") else m.split(".")[0]
                          for m in sys.modules if m.startswith(("numpy", "networkx", "webfoam."))}}))
print(json.dumps(loaded))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


LIGHT = [
    ["tait", data_path("hopf.diagram.json")],
    ["euler", data_path("trefoil.diagram.json")],
    ["foam-eval", "theta 0 1 2"],
    ["dims", "--chi", "4", "--t", "2"],
]
EXACT_GF2 = [
    ["module", "--web", "theta", "--decompose"],
    ["module", "--web", "unlink_2"],
    ["catalogue"],
    ["catalogue", "--verify"],
]


def test_light_commands_load_no_numpy():
    """tait, euler, foam-eval and dims load neither numpy, networkx nor a
    GF(2) layer; module and catalogue load neither numpy nor networkx."""
    loaded = modules_loaded(*LIGHT, *EXACT_GF2)
    for argv, names in zip(LIGHT, loaded):
        assert not {"numpy", "networkx", "webfoam.gf2", "webfoam.modules", "webfoam.adhm"} & set(names), argv
    for argv, names in zip(EXACT_GF2, loaded[len(LIGHT) :]):
        assert not {"numpy", "networkx", "webfoam.adhm"} & set(names), argv


def test_catalogue_listing_loads_no_layer():
    (names,) = modules_loaded(["catalogue"])
    assert names == ["webfoam.catalogue", "webfoam.cli"]


def test_only_adhm_verify_loads_numpy():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    runs = LIGHT + EXACT_GF2 + [["adhm-verify", "--rank", "3"]]
    assert {argv[0] for argv in runs} == set(sub.choices)  # every command is run
    loaded = modules_loaded(*runs)
    assert ["numpy" in names for names in loaded] == [False] * (len(runs) - 1) + [True]


def test_golden_outputs(capsys):
    """Schema-stable JSON with deterministic key order."""
    golden = {
        ("euler", data_path("trefoil.diagram.json")): '{"chi": 3, "expansion_leaves": 8}',
        ("foam-eval", "theta 0 1 2"): '{"value": 1}',
        ("dims", "--kappa", "0", "--chi", "4", "--t", "2"): '{"dim": "-2", "dim_mod6": "4", "parity": 0}',
        # the one_sets edge names come from underlying_web's label merge
        ("tait", data_path("hopf.diagram.json")): (
            '{"count": 9, "one_sets": [{"edges": [], "even": true, "n": 2}, '
            '{"edges": ["a"], "even": true, "n": 1}, {"edges": ["a", "c"], "even": true, "n": 0}, '
            '{"edges": ["c"], "even": true, "n": 1}], "planar_dim": 9, "signed": 9}'
        ),
        ("tait", data_path("lhc.diagram.json")): (
            '{"count": 0, "one_sets": [{"edges": ["bar"], "even": false, "n": 2}], '
            '"planar_dim": 0, "signed": 0}'
        ),
        ("tait", data_path("k33.diagram.json")): (
            '{"count": 12, "one_sets": [{"edges": ["d1a", "d2a", "d3"], "even": true, "n": 1}, '
            '{"edges": ["d1a", "h2", "h5"], "even": true, "n": 1}, '
            '{"edges": ["d2a", "h3", "h6"], "even": true, "n": 1}, '
            '{"edges": ["d3", "h1", "h4"], "even": true, "n": 1}, '
            '{"edges": ["h1", "h3", "h5"], "even": true, "n": 1}, '
            '{"edges": ["h2", "h4", "h6"], "even": true, "n": 1}], "planar_dim": 12, "signed": 0}'
        ),
    }
    for argv, expected in golden.items():
        code = main(list(argv))
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == expected
