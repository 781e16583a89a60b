import contextlib
import copy
import difflib
import importlib.util
import io
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfoam.adhm import MAX_RANK
from webfoam.cli import build_parser, main
from webfoam.modules import KNOWN_WEBS, MAX_UNLINK


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

    def test_failed_catalogue_verify_returns_one(self, capsys, monkeypatch):
        """``main`` returns the status of a failed verification and emits its
        report; no ``SystemExit`` leaves it."""
        from webfoam import catalogue

        monkeypatch.setattr(catalogue, "verify_all", lambda: ["theta: tait 5 != 6"])
        code, out, err = run_cli(capsys, "catalogue", "--verify")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"entries": len(catalogue.CATALOGUE), "failures": ["theta: tait 5 != 6"], "pass": False}

    def test_catalogue_verify_parses_each_diagram_once(self, monkeypatch):
        from webfoam import catalogue, webs

        parsed = []
        parse = webs.parse_diagram
        monkeypatch.setattr(webs, "parse_diagram", lambda text: parsed.append(text) or parse(text))
        assert catalogue.verify_all() == []
        files = [e.diagram_file for e in catalogue.CATALOGUE if e.diagram_file]
        assert sorted(parsed) == sorted(map(catalogue.data_text, files))

    def test_tait_erases_the_crossings_once(self, capsys, monkeypatch):
        from webfoam import tait, webs

        erased = []
        erase = webs.underlying_web
        counted = lambda d: erased.append(d) or erase(d)
        monkeypatch.setattr(webs, "underlying_web", counted)
        monkeypatch.setattr(tait, "underlying_web", counted)
        code, out, _ = run_cli(capsys, "tait", data_path("hopf.diagram.json"))
        assert (code, json.loads(out)["signed"], len(erased)) == (0, 9, 1)

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

    # an exponent past MAX_EXPONENT is refused before the power of 10 is
    # built: Fraction("1e30000000") alone takes ~27 s
    @pytest.mark.parametrize(
        "flag,value",
        [("--kappa", "abc"), ("--sigma2", "1/2/3"), ("--kappa", "1/0"),
         ("--kappa", "1e30000000"), ("--kappa", "1e-30000000"), ("--sigma2", "1E+4301")],
    )
    def test_bad_fraction_is_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["dims", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid fraction value: '{value}'" in err
        assert "_frac" not in err

    def test_large_exponent_is_exact(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--kappa", "1e400")
        assert (code, err) == (0, "")
        dim = json.loads(out)["dim"]
        assert dim == str(12 * 10**400 - 8) and len(dim) == 402

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_result_past_the_digit_limit_is_one(self, capsys, tmp_path, fmt):
        # chi = 3^10000 has 4,772 digits, more than an int may print
        doc = tmp_path / "circles.json"
        doc.write_text(json.dumps({"circles": [f"c{i}" for i in range(10000)]}))
        code, out, err = run_cli(capsys, "--format", fmt, "euler", str(doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["unknot.web.json", "theta.web.json"])
    def test_euler_on_a_web_is_one(self, capsys, name):
        code, out, err = run_cli(capsys, "euler", data_path(name))
        assert (code, out, err) == (1, "", "error: this is a web document (it has 'edges'), not a diagram\n")

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

    @pytest.mark.parametrize("rank", [MAX_RANK + 1, 100_000])
    def test_rank_above_limit_is_one(self, capsys, rank):
        # refused before any matrix is built; 100,000 would run out of memory
        code, out, err = run_cli(capsys, "adhm-verify", "--rank", str(rank))
        assert code == 1
        assert out == "" and err == f"error: the rank N = {rank} is above MAX_RANK = {MAX_RANK}\n"

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
        # a theta listing each vertex twice; the copies would share slots
        {
            "vertices": ["u", "w", "u", "w"],
            "edges": [{"id": f"e{k}", "ends": [["u", k], ["w", k]]} for k in range(3)],
        },
        # an end whose vertex is a list
        {
            "vertices": ["u", "w"],
            "edges": [{"id": f"e{k}", "ends": [["u", k], [["w"] if k else "w", k]]} for k in range(3)],
        },
    ],
)
def test_malformed_input_is_a_domain_error(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "tait", str(bad))
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_tait_on_invalid_json_names_the_document(capsys, tmp_path):
    """``tait`` decodes its input once, through the loader of ``webs``, and
    reports invalid JSON as ``euler`` does; a JSON array is still "not an
    object"."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    for cmd in ("tait", "euler"):
        code, out, err = run_cli(capsys, cmd, str(bad))
        assert (code, out) == (1, "")
        assert err == "error: diagram document is not valid JSON: Expecting value: line 1 column 15 (char 14)\n"
    bad.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "tait", str(bad))
    assert (code, out, err) == (1, "", "error: diagram document must be a JSON object\n")


def _data_documents() -> list:
    from importlib import resources

    folder = resources.files("webfoam").joinpath("data")
    return [json.loads(f.read_text(encoding="utf-8")) for f in sorted(folder.iterdir(), key=lambda f: f.name)]


DOCUMENTS = _data_documents()
JSON_LEAVES = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["a", "e1", "u", "", "x"])
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=4)


@st.composite
def documents(draw) -> str:
    """A bundled web or diagram document with up to three mutations (a
    value replaced, deleted or duplicated), or a short random text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet='{}[]":,0aev ', max_size=12))
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            k = draw(st.sampled_from(keys))
            if isinstance(node[k], (dict, list)) and node[k] and draw(st.booleans()):
                node = node[k]
                continue
            action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if action == "replace":
                node[k] = draw(JSON_VALUES)
            elif action == "delete":
                del node[k]
            elif isinstance(node, list):
                node.append(copy.deepcopy(node[k]))
            break
    return json.dumps(doc)


SMALL_INTS = st.integers(-2, 5).map(str)
FOAM_ATOMS = st.one_of(
    st.tuples(st.just("sphere"), SMALL_INTS),
    st.tuples(st.just("theta"), SMALL_INTS, SMALL_INTS, SMALL_INTS),
    st.tuples(st.just("tet"), *[SMALL_INTS] * 6),
    st.tuples(st.just("surface"), SMALL_INTS, SMALL_INTS),
    st.tuples(st.just("crosscap"), SMALL_INTS, SMALL_INTS, SMALL_INTS),
    st.tuples(st.sampled_from(["wedge", "sphere"]), st.sampled_from(["x", "1/2", ""])),
).map(" ".join)
FOAM_EXPRS = st.recursive(
    FOAM_ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["plus", "union"]), st.lists(inner, min_size=1, max_size=3)).map(
            lambda x: f"({x[0]} " + " ".join(f"({e})" for e in x[1]) + ")"
        ),
        st.tuples(st.sampled_from(["sum-t2", "sum-r+", "sum-r-"]), inner, st.sampled_from(["", " 1", " 9", " x"])).map(
            lambda x: f"({x[0]} ({x[1]}){x[2]})"
        ),
    ),
    max_leaves=6,
) | st.text(alphabet="() spheretauniol0123-", max_size=24)
FRACTIONS = st.sampled_from(["0", "1/4", "-3/2", "7", "abc", "1/0", "2.5", "", "1//2"])
INTEGERS = st.sampled_from(["0", "1", "-2", "3", "x", "1.5"])
MODULE_NAMES = st.sampled_from([*KNOWN_WEBS, *(f"unlink_{k}" for k in range(-1, MAX_UNLINK + 2)), "unlink_x", "mystery"])
RANKS = st.sampled_from(["-1", "0", "1", "2", "3", str(MAX_RANK + 1), "100000", "x"])


COMMANDS = ["tait", "euler", "foam-eval", "module", "dims", "adhm-verify", "catalogue", "frob"]


@st.composite
def invocations(draw, command: str):
    """``(argv, text)``: an argv of ``command``, and the document that a
    ``FILE`` or ``-`` argument stands for."""
    argv = draw(st.sampled_from([[], ["--format", "table"]])) + [command]
    text = ""
    if command in ("tait", "euler"):
        text = draw(documents())
        argv.append(draw(st.sampled_from(["FILE", "-", "no-such-file.json"])))
    elif command == "foam-eval":
        argv.append(draw(FOAM_EXPRS))
    elif command == "module":
        if draw(st.integers(0, 9)):
            argv += ["--web", draw(MODULE_NAMES)]
        if draw(st.booleans()):
            argv.append("--decompose")
    elif command == "dims":
        for flag, values in (("--kappa", FRACTIONS), ("--sigma2", FRACTIONS), ("--bplus", INTEGERS), ("--b1", INTEGERS),
                             ("--chi", INTEGERS), ("--t", INTEGERS)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    elif command == "adhm-verify":
        if draw(st.booleans()):
            argv += ["--rank", draw(RANKS)]
    elif command == "catalogue" and draw(st.booleans()):
        argv.append("--verify")
    if draw(st.integers(0, 19)) == 0:
        argv.append("--help")
    return argv, text


def call_main(argv, stdin: str):
    """``main(argv)`` in this process: its status (that of argparse's
    ``SystemExit`` too), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code or 0
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property") / "doc.json"


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_main_contract(document_path, command, data):
    """On any argv of every subcommand (and an unknown one), ``main``
    raises nothing but argparse's ``SystemExit``, ends with status 0, 1
    or 2, gives one ``error:`` line with status 1, and prints the same on
    a second call."""
    argv, text = data.draw(invocations(command))
    document_path.write_text(text, encoding="utf-8")
    argv = [str(document_path) if a == "FILE" else a for a in argv]
    first = call_main(argv, text)
    status, _, err = first
    assert status in (0, 1, 2), argv
    if status == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert call_main(argv, text) == first, argv


SRC = str(pathlib.Path(importlib.util.find_spec("webfoam").origin).resolve().parents[1])
# what setuptools writes for ``[project.scripts] webfoam = "webfoam.cli:run"``
CONSOLE_SCRIPT = "import sys; from webfoam.cli import run; sys.argv[0] = 'webfoam'; sys.exit(run())"


def process(*argv, code=None, unbuffered=False, **kwargs):
    """``python -m webfoam.cli ARGV`` (or ``python -c CODE ARGV``) in a new
    process, with this tree's ``src`` first on its path; stdout and stderr
    are captured as text unless ``kwargs`` redirect them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    launch = ["-c", code] if code is not None else ["-m", "webfoam.cli"]
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *launch, *argv], env=env, text=True, timeout=120, **kwargs)


class TestProcessBoundary:
    """``cli.run`` ends the process without the interpreter's teardown; each
    way out keeps its exit status, stdout and stderr."""

    @pytest.mark.parametrize("code", [None, CONSOLE_SCRIPT], ids=["python-m", "console-script"])
    def test_success(self, code):
        out = process("foam-eval", "sphere 2", code=code)
        assert (out.returncode, out.stdout, out.stderr) == (0, '{"value": 1}\n', "")

    def test_domain_error(self):
        out = process("tait", "no-such-file.json")
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1

    def test_result_past_the_digit_limit(self):
        out = process("euler", "-", input=json.dumps({"circles": [f"c{i}" for i in range(10000)]}))
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr.startswith("error: Exceeds the limit (4300 digits)") and out.stderr.count("\n") == 1

    def test_usage_error(self):
        out = process("frob")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith(build_parser().format_usage())
        assert "invalid choice: 'frob'" in out.stderr and out.stderr.endswith(")\n")

    def test_help(self):
        out = process("--help")
        assert (out.returncode, out.stdout, out.stderr) == (0, build_parser().format_help(), "")

    def test_catalogue_verify(self):
        out = process("catalogue", "--verify")
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["pass"] is True

    def test_closed_stdout_at_start(self):
        """With fd 1 closed, ``sys.stdout`` is None: nothing is printed and
        nothing fails."""
        out = process("catalogue", stdout=None, preexec_fn=lambda: os.close(1))
        assert (out.returncode, out.stderr) == (0, "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["foam-eval", "sphere 2"], ["catalogue"]], ids=["short", "long"])
    def test_broken_pipe(self, argv, unbuffered):
        """A reader that closed stdout ends the command with status 1 and
        no traceback, whether the write fails in ``print`` (unbuffered, or
        more than a buffer) or at the final flush."""
        read, write = os.pipe()
        os.close(read)
        try:
            out = process(*argv, unbuffered=unbuffered, stdout=write)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (1, "")

    def test_catalogue_verify_into_closed_pipe(self):
        """``catalogue --verify`` emits its report where every command does,
        so a closed pipe ends it silently too."""
        read, write = os.pipe()
        os.close(read)
        try:
            out = process("catalogue", "--verify", unbuffered=True, stdout=write)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout(self, unbuffered):
        """A write to stdout that fails for another reason, in ``print``
        (unbuffered) or at the final flush, ends the command with status 1
        and one ``error:`` line."""
        with open("/dev/full", "w") as full:
            out = process("foam-eval", "sphere 2", unbuffered=unbuffered, stdout=full)
        assert (out.returncode, out.stderr) == (1, "error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["tait", "--help"]], ids=["help", "tait-help"])
    def test_help_into_unwritable_stdout(self, argv, unbuffered):
        """argparse swallows a failed write of its help; the CLI's parsers
        let it raise, so ``--help`` fails as every other write does."""
        with open("/dev/full", "w") as full:
            out = process(*argv, unbuffered=unbuffered, stdout=full)
        assert (out.returncode, out.stderr) == (1, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["tait", "--help"]], ids=["help", "tait-help"])
    def test_help_into_closed_pipe(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            out = process(*argv, unbuffered=unbuffered, stdout=write)
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (1, "")

    def test_atexit_handlers_run(self):
        code = (
            "import atexit, sys; atexit.register(print, 'bye', file=sys.stderr); "
            "sys.argv = ['webfoam', 'foam-eval', 'sphere 2']; from webfoam.cli import run; run()"
        )
        out = process(code=code)
        assert (out.returncode, out.stdout, out.stderr) == (0, '{"value": 1}\n', "bye\n")

    def test_other_exits_propagate(self):
        """A ``SystemExit`` whose code is not an int, and a
        ``KeyboardInterrupt``, take the interpreter's normal exit."""
        stub = "import sys, webfoam.cli as cli; cli.main = lambda: {}; cli.run()"
        out = process(code=stub.format("sys.exit('stopped')"))
        assert (out.returncode, out.stdout, out.stderr) == (1, "", "stopped\n")
        out = process(code=stub.format("(_ for _ in ()).throw(KeyboardInterrupt)"))
        assert out.returncode == -signal.SIGINT and out.stderr.endswith("KeyboardInterrupt\n")


def test_console_script_targets_run():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"webfoam": "webfoam.cli:run"}
    # numpy is a test-only oracle, not a run-time dependency
    assert not [d for d in project["project"].get("dependencies", []) if d.startswith("numpy")]
    assert any(d.startswith("numpy") for d in project["project"]["optional-dependencies"]["test"])


def modules_loaded(*argvs) -> list:
    """Run ``cli.main`` on each argv in turn in a fresh interpreter (other
    tests import numpy into this one); after each, the names in
    ``sys.modules`` that start with ``numpy``, ``networkx``, ``fractions``,
    ``dataclasses``, ``inspect`` or ``webfoam.``."""
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
                          for m in sys.modules
                          if m.startswith(("numpy", "networkx", "fractions", "dataclasses", "inspect", "webfoam."))}}))
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


def test_no_command_loads_numpy_or_inspect():
    """No command loads numpy or ``inspect``, ``adhm-verify`` included (its
    matrices are Python complex numbers).  No command loads
    ``dataclasses``, which would load ``inspect`` (and ``ast``, ``dis``,
    ``tokenize``) at every start."""
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    runs = LIGHT + EXACT_GF2 + [["adhm-verify", "--rank", "3"]]
    assert {argv[0] for argv in runs} == set(sub.choices)  # every command is run
    loaded = modules_loaded(*runs)
    assert not any({"numpy", "inspect", "dataclasses"} & set(names) for names in loaded)


def test_only_dims_loads_fractions():
    """``fractions`` (and ``decimal`` with it) is imported by ``dims``'s
    argument type alone, not at start-up."""
    runs = LIGHT + EXACT_GF2 + [["adhm-verify", "--rank", "3"]]
    dims = [argv for argv in runs if argv[0] == "dims"]
    runs = [argv for argv in runs if argv[0] != "dims"] + dims
    loaded = modules_loaded(*runs)
    assert ["fractions" in names for names in loaded] == [False] * (len(runs) - 1) + [True]


def test_dims_defaults_are_fractions():
    from fractions import Fraction

    args = build_parser().parse_args(["dims"])
    assert type(args.kappa) is type(args.sigma2) is Fraction
    assert args.kappa == args.sigma2 == 0


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


ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"


@pytest.fixture(scope="module")
def digest_runs():
    """Two processes computing the golden document's digests under other
    ``PYTHONHASHSEED``s, each printing them as JSON; waited for at teardown."""
    code = "import json, golden_outputs; print(json.dumps(golden_outputs.digests()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "scripts"))
    with contextlib.ExitStack() as runs:
        yield [
            runs.enter_context(
                subprocess.Popen([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE)
            )
            for seed in ("1", "2")
        ]


@pytest.fixture(scope="module")
def golden_document(digest_runs) -> str:
    """``document()`` of ``scripts/golden_outputs.py``, computed once; the
    digest processes, started first, run meanwhile."""
    spec = importlib.util.spec_from_file_location("golden_outputs", ROOT / "scripts" / "golden_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.document()


def test_golden_document(golden_document):
    """Every output that ``scripts/golden_outputs.py`` pins equals the
    committed ``tests/golden_outputs.json``; a change that means to alter
    an output rewrites that file in the same change."""
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(expected, golden_document.splitlines(), "committed", "now", lineterm="", n=1))
    assert not diff, "\n".join(diff[:80])


def test_digests_do_not_depend_on_the_hash_seed(golden_document, digest_runs):
    """The committed digests equal those computed in this process (by the
    golden document) and in the two processes under other hash seeds."""
    committed = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    assert json.loads(golden_document)["digests"] == committed
    for run in digest_runs:
        out, _ = run.communicate(timeout=120)
        assert run.returncode == 0
        assert json.loads(out) == committed
