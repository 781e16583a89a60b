"""The BENCH_*.json document that scripts/bench_pairs.py writes, on made-up
result lines: no benchmark runs here."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
SHARED = {"what": "a change", "host": {"platform": "p", "cpus": 2, "python": "3"},
          "parent": "aaa", "change": "bbb"}


def result_line(value: float, failed: int = 0) -> dict:
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {m: {"value": value, "unit": "u"} for m in METRICS}}


def lines(parent: list, change: list) -> dict:
    return {"parent": [result_line(v) for v in parent], "change": [result_line(v) for v in change]}


def test_pairs_summary_applies_the_gain_rule():
    won = bench_pairs.pairs_summary(lines([10, 11, 12, 13], [5, 6, 7, 8]))
    assert won["pairs"] == 4 and won["correct"]
    assert won["attempted_failed"] == {"parent": [[100, 0]] * 4, "change": [[100, 0]] * 4}
    wall = won["metrics"]["wall_s"]  # lower is better
    assert (wall["parent_median"], wall["change_median"]) == (11.5, 6.5)
    assert wall["parent_q1_q3"] == [10.75, 12.25]
    assert (wall["change_wins"], wall["gain_holds"]) == ("4/4", True)
    ops = won["metrics"]["ops_per_s"]  # higher is better
    assert (ops["change_wins"], ops["gain_holds"]) == ("0/4", False)
    tied = bench_pairs.pairs_summary(lines([10, 11, 12, 13], [10, 11, 12, 13]))
    assert tied["metrics"]["wall_s"]["change_wins"] == "0/4"


def test_no_regression_verdicts_use_each_metrics_bound():
    parent = [10, 10.5, 11, 11.5, 12]  # median 11, quartile spread 1
    near = bench_pairs.pairs_summary(lines(parent, [11, 12, 12.5, 13, 13]))["metrics"]  # median 12.5
    assert near["wall_s"]["bound"] == 0.25 and near["wall_s"]["no_regression"] == "within_bound"  # 1.5 <= 0.25 * 11
    assert near["peak_rss_mb"]["bound"] == 0.1 and near["peak_rss_mb"]["no_regression"] == "worse"  # 1.5 > 0.1 * 11
    far = bench_pairs.pairs_summary(lines(parent, [14, 15, 15, 16, 16]))["metrics"]  # median 15
    assert far["wall_s"]["no_regression"] == "worse"
    assert far["ops_per_s"]["no_regression"] == "within_bound"  # higher is better
    wide = [5, 10, 15, 20, 25]  # quartile spread 10 > 0.25 * 15
    assert bench_pairs.pairs_summary(lines(wide, wide))["metrics"]["wall_s"]["no_regression"] == "unresolved"
    beaten = bench_pairs.pairs_summary(lines(wide, [1, 2, 3, 4, 4.5]))["metrics"]  # every change run beats every parent run
    assert beaten["wall_s"]["no_regression"] == "within_bound"
    assert beaten["ops_per_s"]["no_regression"] == "unresolved"


def test_one_pair_is_summarised_without_a_gain():
    one = bench_pairs.pairs_summary(lines([10], [5]))
    assert one["pairs"] == 1
    wall = one["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["parent_q1_q3"], wall["change_q1_q3"]) == (10, [10, 10], [5, 5])
    assert (wall["change_wins"], wall["gain_holds"], wall["no_regression"]) == ("1/1", False, "within_bound")


def test_merge_adds_one_key_and_overwrites_nothing():
    first = bench_pairs.pairs_summary(lines([1, 2, 3], [1, 2, 3]))
    doc = bench_pairs.merge(None, SHARED, "skein_random/seed7", first)
    assert doc == {**SHARED, "perfbench": {"skein_random/seed7": first}, "counters": {}}
    written = json.loads(json.dumps(doc))
    second = bench_pairs.pairs_summary(lines([4, 5, 6], [4, 5, 6]))
    again = bench_pairs.merge(written, {**SHARED, "what": None}, "cli_cold/seed7", second)
    assert again == {**doc, "perfbench": {"skein_random/seed7": first, "cli_cold/seed7": second}}
    assert written == json.loads(json.dumps(doc))  # the input is left as it was


@pytest.mark.parametrize("doc,shared,match", [
    ("existing", SHARED, "already holds"),
    ("existing", {**SHARED, "parent": "ccc"}, "parent 'ccc' differs"),
    ("existing", {**SHARED, "what": "another change"}, "what 'another change' differs"),
    (None, {**SHARED, "what": None}, "needs --what"),
])
def test_merge_refuses(doc, shared, match):
    if doc == "existing":
        doc = bench_pairs.merge(None, SHARED, "cli_cold/seed7", {})
    with pytest.raises(ValueError, match=match):
        bench_pairs.merge(doc, shared, "cli_cold/seed7", {})


def test_each_run_records_the_bytecode_caches(tmp_path, monkeypatch):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    (trees["parent"] / "src" / "webfoam" / "__pycache__").mkdir(parents=True)

    def writes_caches(root, workload, seed):  # a run that leaves bytecode caches behind
        (root / "src" / "webfoam" / "__pycache__").mkdir(parents=True, exist_ok=True)
        return result_line(1.0)

    monkeypatch.setattr(bench_pairs, "run", writes_caches)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    line = bench_pairs.recorded_run(trees, "change", "cli_cold", 7)
    assert line["metrics"] == result_line(1.0)["metrics"]
    assert line["bytecode"] == {
        "before": {"PYTHONDONTWRITEBYTECODE": True, "parent": True, "change": False},
        "after": {"PYTHONDONTWRITEBYTECODE": True, "parent": True, "change": True},
    }
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.bytecode_state(trees) == {"PYTHONDONTWRITEBYTECODE": False, "parent": True, "change": True}
