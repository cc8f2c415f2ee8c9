"""Smoke runs of the experiment scripts at small sizes."""

import importlib.util
import os
import re

import pytest

from cgalign import generate_graph, save_call_graph

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("scaling_study", ["--sizes", "16,26"], 2),
    ("sparsity_tradeoff", ["--n", "30", "--timing-iters", "2", "--ratios", "0,0.5"], 2),
    ("mutation_benchmark", ["--n", "20", "--seeds", "2", "--levels", "0,0.2"], 2),
    ("cli_startup", ["--n", "12", "--runs", "1"], 5),
])
def test_script_runs_at_small_size(name, argv, rows, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, one line per size, ratio, level or subcommand, and for the
    # scaling study its fit
    assert len(lines) == 1 + rows + (name == "scaling_study")


def test_diff_memory_reports_one_diff(tmp_path, capsys):
    paths = []
    for seed, name in ((3, "A"), (4, "B")):
        paths.append(str(tmp_path / ("%s.json" % name)))
        save_call_graph(generate_graph(30, edge_density=0.1, seed=seed, name=name), paths[-1])
    assert load_script("diff_memory").main(paths + ["--max-iters", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["metric", "peak_rss", "minor_faults",
                                                  "build_problem", "bp_iterate"]
    values = [float(line.split()[1]) for line in lines[1:]]
    assert values[0] > 0 and all(value >= 0 for value in values)


def test_report_digests_cover_every_output_of_a_workload(capsys):
    assert load_script("report_digests").main(["--seed", "11", "--workload", "churn"]) == 0
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    # 20 pairs, one variant each, and a diff, a ged and an eval per operation
    assert len(lines) == 60
    assert [(op, output) for _, op, output, _ in lines] == [
        ("pair%03d/v0" % k, output) for k in range(20) for output in ("diff", "ged", "eval")]
    for workload, _, _, digest in lines:
        assert workload == "churn" and re.fullmatch("[0-9a-f]{64}", digest)
    # each report names its own pair of programs
    assert len({digest for _, _, output, digest in lines if output == "diff"}) == 20


def test_ab_summary_counts_wins_in_each_metrics_direction():
    def run(**metrics):
        return {"exit": 0, "correct": True, "failed": 0, "metrics": metrics}

    base = [run(diff_s=s, recall=0.9) for s in (1.0, 2.0, 3.0, 4.0, 5.0)]
    head = [run(diff_s=s, recall=r) for s, r in ((0.5, 0.9), (1.5, 0.95), (3.5, 0.8),
                                                 (2.0, 0.9), (4.0, 1.0))]
    pairs = [{"base": b, "head": h} for b, h in zip(base, head)]
    pairs.append({"base": {"exit": 3}, "head": run(diff_s=0.1, recall=0.1)})  # a failed run
    summary = load_script("ab").summarize(pairs, {"diff_s": "lower", "recall": "higher",
                                                  "ged_s": "lower"})
    assert set(summary) == {"diff_s", "recall"}  # no run reported ged_s
    diff_s, recall = summary["diff_s"], summary["recall"]
    assert (diff_s["pairs"], diff_s["base_median"], diff_s["head_median"]) == (5, 3.0, 2.0)
    assert diff_s["base_iqr"] == 3.0  # quartiles 1.5 and 4.5 of 1..5, exclusive method
    assert diff_s["change"] == pytest.approx(-1 / 3)
    assert diff_s["wins"] == 4 and diff_s["better"] == "lower"  # 3.5 lost to 3.0
    assert recall["wins"] == 2 and recall["base_iqr"] == 0.0  # ties are no wins


@pytest.mark.parametrize("body, reason", [
    ("print('not json')", "unreadable result (JSONDecodeError"),
    ("pass", "unreadable result (IndexError"),
    ("import time; time.sleep(30)", "no result within 1 s"),
])
def test_ab_run_without_a_result_is_a_failed_run(body, reason, tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body + "\n")
    ab = load_script("ab")
    monkeypatch.setattr(ab, "RUN_TIMEOUT_S", 1)
    run = ab.run_once(str(tmp_path), "churn", 11, 20)
    assert run["exit"] == -1 and run["stderr"].startswith(reason) and "metrics" not in run
