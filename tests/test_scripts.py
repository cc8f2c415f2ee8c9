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
