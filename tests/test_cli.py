"""End-to-end tests for the command line interface.

Everything goes through cli.main(argv) in-process; files live in tmp_path.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

from cgalign import cli, evaluation, matchers, nap, similarity, synthetic
from cgalign.graphs import load_call_graph, save_call_graph


def run(capsys, argv):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # a usage error
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--json"])
    assert rc == 0, err
    return json.loads(out)


def write_graph_pair(tmp_path, graph_a, graph_b):
    path_a = str(tmp_path / "a.json")
    path_b = str(tmp_path / "b.json")
    save_call_graph(graph_a, path_a)
    save_call_graph(graph_b, path_b)
    return path_a, path_b


def test_diff_identical_exports_is_identity(tmp_path, capsys):
    graph = synthetic.generate_graph(12, edge_density=0.2, seed=5)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report = run_json(capsys, ["diff", path_a, path_b, "--matcher", "nap"])
    assert len(report["matched"]) == graph.n
    assert all(ka == kb for ka, kb, _ in report["matched"])
    assert report["unmatched_a"] == [] and report["unmatched_b"] == []
    assert report["ged"] == pytest.approx(0.0, abs=1e-9)
    assert report["squares"] == len(graph.edges)
    assert report["converged"]


def test_diff_human_readable_summary(tmp_path, capsys):
    graph = synthetic.generate_graph(6, edge_density=0.2, seed=1)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    rc, out, err = run(capsys, ["diff", path_a, path_b])
    assert rc == 0
    assert out.startswith("matched 6 of 6 x 6 functions")
    assert "ged 0.000000" in out


def test_mwm_equals_nap_without_squares(tmp_path, capsys):
    # with no calls there are no square potentials, so belief propagation
    # degenerates to a plain maximum-weight matching
    for seed in range(6):
        a = synthetic.generate_graph(6, edge_density=0.0, seed=seed)
        b = synthetic.generate_graph(5, edge_density=0.0, seed=seed + 100)
        path_a, path_b = write_graph_pair(tmp_path, a, b)
        reports = [run_json(capsys, ["diff", path_a, path_b,
                                     "--matcher", matcher, "--alpha", "1.0"])
                   for matcher in ("mwm", "nap")]
        assert reports[0]["matched"] == reports[1]["matched"]


def test_diff_missing_file_names_the_path(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    present = str(tmp_path / "b.json")
    save_call_graph(synthetic.generate_graph(3, seed=0), present)
    rc, out, err = run(capsys, ["diff", missing, present])
    assert rc == 2
    assert "nowhere.json" in err


UNREADABLE_INPUTS = [("diff", "graph", "directory"), ("ged", "report", "directory"),
                     ("diff", "graph", "latin-1"), ("eval", "report", "latin-1"),
                     ("eval", "truth", "latin-1")]


@pytest.mark.parametrize("command, role, kind", UNREADABLE_INPUTS,
                         ids=["-".join(case) for case in UNREADABLE_INPUTS])
def test_unreadable_input_file_is_a_one_line_data_error(tmp_path, capsys,
                                                        command, role, kind):
    graph = synthetic.generate_graph(3, seed=4)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [["fn0000", "fn0000", 1.0]]}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([("fn0000", "fn0000")]), truth_path)
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    paths = {"graph": path_a, "report": report_path, "truth": truth_path}
    paths[role] = str(bad)
    argv = {"diff": ["diff", paths["graph"], path_b],
            "ged": ["ged", path_a, path_b, paths["report"]],
            "eval": ["eval", paths["report"], paths["truth"]]}[command]
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: ") and str(bad) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


NESTED_INPUTS = [("diff", "graph"), ("eval", "report"), ("eval", "truth"), ("ged", "report")]


@pytest.mark.parametrize("command, role", NESTED_INPUTS,
                         ids=["-".join(case) for case in NESTED_INPUTS])
def test_deeply_nested_json_is_a_one_line_data_error(tmp_path, capsys, command, role):
    graph = synthetic.generate_graph(3, seed=4)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [["fn0000", "fn0000", 1.0]]}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([("fn0000", "fn0000")]), truth_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    paths = {"graph": path_a, "report": report_path, "truth": truth_path}
    paths[role] = str(deep)
    argv = {"diff": ["diff", paths["graph"], path_b],
            "ged": ["ged", path_a, path_b, paths["report"]],
            "eval": ["eval", paths["report"], paths["truth"]]}[command]
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err == "error: %s: not valid JSON (nested too deeply)\n" % deep


def test_feature_too_large_for_a_float_is_a_one_line_data_error(tmp_path, capsys):
    graph = synthetic.generate_graph(3, seed=4)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    with open(path_b) as handle:
        doc = json.load(handle)
    doc["functions"][1]["topology"]["jumps"] = 10 ** 400
    with open(path_b, "w") as handle:
        json.dump(doc, handle)
    rc, _, err = run(capsys, ["diff", path_a, path_b])
    assert rc == 2
    assert err == "error: functions[1].jumps must be finite and non-negative\n"


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_version_that_is_not_the_integer_one_is_a_data_error(tmp_path, capsys,
                                                                     version):
    graph = synthetic.generate_graph(4, edge_density=0.3, seed=2)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    with open(path_b) as handle:
        doc = json.load(handle)
    doc["header"]["format_version"] = version
    with open(path_b, "w") as handle:
        json.dump(doc, handle)
    rc, _, err = run(capsys, ["diff", path_a, path_b])
    assert rc == 2
    assert err == "error: %s: unsupported format_version %r\n" % (path_b, version)

    report_path, truth_path = str(tmp_path / "report.json"), str(tmp_path / "truth.json")
    assert run(capsys, ["diff", path_a, path_a, "--output", report_path])[0] == 0
    with open(truth_path, "w") as handle:
        json.dump({"format_version": version, "pairs": []}, handle)
    rc, _, err = run(capsys, ["eval", report_path, truth_path])
    assert rc == 2
    assert err.startswith("error: %s: expected a ground truth document" % truth_path)
    assert len(err.splitlines()) == 1


def test_diff_writes_report_file(tmp_path, capsys):
    graph = synthetic.generate_graph(5, edge_density=0.3, seed=2)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    out_path = str(tmp_path / "report.json")
    rc, _, _ = run(capsys, ["diff", path_a, path_b, "--output", out_path])
    assert rc == 0
    with open(out_path) as handle:
        report = json.load(handle)
    assert report["ged"] == pytest.approx(0.0)


def test_eval_accepts_what_diff_emits(tmp_path, capsys):
    graph = synthetic.generate_graph(10, edge_density=0.2, seed=3)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    run(capsys, ["diff", path_a, path_b, "--output", report_path])
    truth_path = str(tmp_path / "truth.json")
    truth = evaluation.GroundTruth.from_pairs((name, name) for name in graph.names)
    evaluation.save_ground_truth(truth, truth_path)
    payload = run_json(capsys, ["eval", report_path, truth_path])
    assert payload["precision"] == 1.0
    assert payload["recall"] == 1.0
    assert payload["swapped_precision"] == 1.0
    assert payload["swapped_recall"] == 1.0
    assert payload["f1"] == 1.0


def test_eval_empty_prediction_scores_zero_recall(tmp_path, capsys):
    report_path = str(tmp_path / "empty.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": []}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([("f", "f"), ("g", "g")]), truth_path)
    payload = run_json(capsys, ["eval", report_path, truth_path])
    assert payload["recall"] == 0.0
    assert payload["f1"] == 0.0


def test_eval_prints_both_conventions(tmp_path, capsys):
    # 3 common pairs, 6 predicted, 4 true
    predicted = [["a", "a"], ["b", "b"], ["c", "c"],
                 ["x1", "y1"], ["x2", "y2"], ["x3", "y3"]]
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": predicted}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs(
            [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d")]), truth_path)
    rc, out, err = run(capsys, ["eval", report_path, truth_path])
    assert rc == 0
    assert "common 3 of 6 predicted / 4 truth" in out
    assert "precision 0.5000  recall 0.7500  f1 0.6000" in out
    assert "swapped convention: precision 0.7500  recall 0.5000" in out


def test_eval_resolves_keys_against_programs(tmp_path, capsys):
    graph = synthetic.generate_graph(4, edge_density=0.0, seed=4)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [[i, i] for i in range(4)]}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs((name, name) for name in graph.names), truth_path)
    bare = run_json(capsys, ["eval", report_path, truth_path])
    assert bare["precision"] == 0.0  # indices vs names never intersect
    resolved = run_json(capsys, ["eval", report_path, truth_path,
                                 "--program-a", path_a, "--program-b", path_b])
    assert resolved["precision"] == 1.0 and resolved["recall"] == 1.0


def test_eval_unknown_name_is_a_data_error(tmp_path, capsys):
    graph = synthetic.generate_graph(3, seed=6)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [["ghost", "ghost"]]}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([("ghost", "ghost")]), truth_path)
    rc, out, err = run(capsys, ["eval", report_path, truth_path,
                                "--program-a", path_a, "--program-b", path_b])
    assert rc == 2
    assert "ghost" in err


def test_ged_routes_agree_on_reported_mapping(tmp_path, capsys):
    base = synthetic.generate_graph(15, edge_density=0.15, seed=7)
    mutated, _ = synthetic.mutate(
        base, synthetic.MutationSpec(insert=2, perturb=3), seed=8)
    path_a, path_b = write_graph_pair(tmp_path, base, mutated)
    report_path = str(tmp_path / "report.json")
    run(capsys, ["diff", path_a, path_b, "--output", report_path])
    payload = run_json(capsys, ["ged", path_a, path_b, report_path])
    assert payload["difference"] <= 1e-9
    assert payload["ged_direct"] == pytest.approx(payload["ged_editpath"], abs=1e-9)


def test_diff_ged_matches_both_ged_routes_at_other_settings(tmp_path, capsys):
    # diff solves at alpha 0.3 and takes its ged from that problem; cgalign ged
    # rebuilds at its own alpha, and the edit path does not build one at all
    base = synthetic.generate_graph(20, edge_density=0.2, seed=17)
    mutated, _ = synthetic.mutate(
        base, synthetic.MutationSpec(insert=2, delete=1, perturb=3, rewire=2), seed=18)
    path_a, path_b = write_graph_pair(tmp_path, base, mutated)
    report_path = str(tmp_path / "report.json")
    costs = ["--d-node", "0.7", "--d-edge", "0.2", "--sparsity", "0.5"]
    report = run_json(capsys, ["diff", path_a, path_b, "--alpha", "0.3",
                               "--output", report_path] + costs)
    assert report["squares"] > 0
    payload = run_json(capsys, ["ged", path_a, path_b, report_path] + costs)
    assert report["ged"] == pytest.approx(payload["ged_direct"], abs=1e-9)
    assert report["ged"] == pytest.approx(payload["ged_editpath"], abs=1e-9)


def test_ged_rejects_duplicate_column(tmp_path, capsys):
    graph = synthetic.generate_graph(3, seed=9)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [[0, 0], [1, 0]]}, handle)
    rc, out, err = run(capsys, ["ged", path_a, path_b, report_path])
    assert rc == 2
    assert err == ("error: one-to-one constraint violated: function 0 of program B "
                   "is in pairs (0, 0) and (1, 0)\n")


@pytest.fixture
def builds(monkeypatch):
    """The candidate count of every nap.build_problem call, in call order."""
    real, sizes = nap.build_problem, []

    def recording(sim, *args, **kwargs):
        sizes.append(len(sim))
        return real(sim, *args, **kwargs)

    monkeypatch.setattr(nap, "build_problem", recording)
    return sizes


@pytest.mark.parametrize("sparsity", ["0", "0.5"])
def test_only_belief_propagation_builds_the_full_problem(tmp_path, capsys, builds, sparsity):
    base = synthetic.generate_graph(30, edge_density=0.2, seed=21)
    other, _ = synthetic.mutate(
        base, synthetic.MutationSpec(insert=2, delete=2, perturb=4, rewire=3), seed=22)
    path_a, path_b = write_graph_pair(tmp_path, base, other)
    costs = ["--sparsity", sparsity, "--d-node", "0.4", "--d-edge", "0.3"]
    sim = similarity.build_similarity_matrix(
        base, other, similarity.SimilarityConfig(sparsity_ratio=float(sparsity)))
    full = nap.build_problem(sim, base, other, alpha=0.6, d_node=0.4, d_edge=0.3)
    builds.clear()

    run(capsys, ["diff", path_a, path_b, "--alpha", "0.6",
                 "--output", str(tmp_path / "nap.json")] + costs)
    assert builds == [len(sim)]
    for matcher in ("mwm", "mcs"):
        builds.clear()
        report = run_json(capsys, ["diff", path_a, path_b, "--matcher", matcher, "--alpha",
                                   "0.6", "--output", str(tmp_path / (matcher + ".json"))]
                          + costs)
        assert builds == [len(report["matched"])] and len(report["matched"]) < len(sim)
        mapping = nap.Mapping.from_pairs((base.names.index(ka), other.names.index(kb))
                                         for ka, kb, _ in report["matched"])
        assert report["objective"] == nap.nap_objective(full, mapping)
        assert report["ged"] == nap.edit_cost(full, mapping)
        assert report["squares"] == nap.count_squares(full, mapping) > 0
    for matcher in ("nap", "mwm", "mcs"):
        path = str(tmp_path / (matcher + ".json"))
        builds.clear()
        assert run_json(capsys, ["ged", path_a, path_b, path] + costs)["difference"] <= 1e-9
        with open(path) as handle:
            assert builds == [len(json.load(handle)["matched"])]


def test_ged_rejects_non_report_file(tmp_path, capsys):
    graph = synthetic.generate_graph(3, seed=9)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    bogus = str(tmp_path / "bogus.json")
    with open(bogus, "w") as handle:
        json.dump([1, 2, 3], handle)
    rc, out, err = run(capsys, ["ged", path_a, path_b, bogus])
    assert rc == 2
    assert "matched" in err


def test_generate_is_reproducible(tmp_path, capsys):
    paths = [str(tmp_path / name) for name in ("g1.json", "g2.json")]
    for path in paths:
        rc, out, err = run(capsys, ["generate", "--n", "12", "--density", "0.2",
                                    "--seed", "7", "--out", path])
        assert rc == 0
    with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
        assert first.read() == second.read()


def test_generate_with_mutation_writes_three_files(tmp_path, capsys):
    out = str(tmp_path / "base.json")
    out_b = str(tmp_path / "mut.json")
    out_truth = str(tmp_path / "truth.json")
    rc, stdout, _ = run(capsys, ["generate", "--n", "10", "--seed", "11",
                                 "--out", out, "--mutate", "insert=2,perturb=3",
                                 "--out-b", out_b, "--out-truth", out_truth])
    assert rc == 0
    assert "wrote" in stdout
    base = load_call_graph(out)
    mutated = load_call_graph(out_b)
    truth = evaluation.load_ground_truth(out_truth)
    assert base.n == 10
    assert mutated.n == 12
    assert len(truth.pairs) == 10


def test_generate_mutation_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    rc, _, err = run(capsys, ["generate", "--n", "4", "--out", out,
                              "--mutate", "insert=2"])
    assert rc == 2
    assert "--out-b" in err
    assert list(tmp_path.iterdir()) == []  # nothing written

    rc, _, err = run(capsys, ["generate", "--n", "4", "--out", out,
                              "--mutate", "bogus=1",
                              "--out-b", str(tmp_path / "b.json"),
                              "--out-truth", str(tmp_path / "t.json")])
    assert rc == 2
    assert "bogus" in err
    assert list(tmp_path.iterdir()) == []


def test_diff_unwritable_output_is_a_data_error(tmp_path, capsys):
    graph = synthetic.generate_graph(4, edge_density=0.3, seed=2)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    target = str(tmp_path / "missing" / "report.json")
    rc, _, err = run(capsys, ["diff", path_a, path_b, "--output", target])
    assert rc == 2
    assert err.startswith("error: cannot write") and target in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--out", "--out-b", "--out-truth"])
def test_generate_unwritable_output_is_a_data_error(tmp_path, capsys, flag):
    paths = {name: str(tmp_path / (name.strip("-") + ".json"))
             for name in ("--out", "--out-b", "--out-truth")}
    paths[flag] = str(tmp_path / "missing" / "file.json")
    argv = ["generate", "--n", "6", "--mutate", "perturb=1"]
    for name, path in paths.items():
        argv += [name, path]
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: cannot write") and paths[flag] in err
    assert len(err.splitlines()) == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["diff", "only_one_path.json"])
    assert exc.value.code == 1

    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flags", [["--out-b"], ["--out-truth"], ["--out-b", "--out-truth"]])
def test_generate_output_of_a_mutation_without_mutate_is_a_usage_error(tmp_path, capsys,
                                                                       flags):
    argv = ["generate", "--n", "4", "--out", str(tmp_path / "g.json")]
    for flag in flags:
        argv += [flag, str(tmp_path / (flag.strip("-") + ".json"))]
    rc, _, err = run(capsys, argv)
    assert rc == 1
    assert len(err.splitlines()) == 1 and "need --mutate" in err
    assert list(tmp_path.iterdir()) == []  # nothing written


BAD_FLAGS = [
    ("diff", ["--alpha", "2"]), ("diff", ["--alpha", "nan"]),
    ("diff", ["--sparsity", "1.5"]), ("diff", ["--epsilon", "-1"]),
    ("diff", ["--threads", "0"]), ("diff", ["--threads", "-1"]),
    ("diff", ["--threads", "65"]), ("diff", ["--threads", "100000"]),
    ("diff", ["--max-iters", "-1"]), ("diff", ["--damping", "1"]),
    ("diff", ["--d-node", "-1"]), ("diff", ["--d-node", "inf"]),
    ("diff", ["--d-edge", "-0.5"]), ("diff", ["--matcher", "mcs", "--k", "0"]),
    ("diff", ["--max-iters", "9" * 400]),
    ("ged", ["--sparsity", "2"]), ("ged", ["--d-node", "-1"]),
    ("generate", ["--n", "-3"]), ("generate", ["--n", "4", "--density", "5"]),
    ("generate", ["--n", "4", "--templates", "0"]),
    ("generate", ["--n", "4", "--templates", "-1"]),
    ("generate", ["--n", "4", "--seed", "-1"]),
    # -0.0 equals 0, but its sign puts it below every lower bound of 0
    ("diff", ["--alpha", "-0"]), ("diff", ["--sparsity", "-0.0"]),
    ("diff", ["--epsilon", "-0"]), ("diff", ["--damping", "-0.0"]),
    ("diff", ["--d-node", "-0"]), ("diff", ["--d-edge", "-0.0"]),
    ("ged", ["--sparsity", "-0"]), ("ged", ["--d-edge", "-0.0"]),
    ("generate", ["--n", "4", "--density", "-0.0"]),
]


@pytest.mark.parametrize("command, flags", BAD_FLAGS,
                         ids=[" ".join([c] + f) for c, f in BAD_FLAGS])
def test_out_of_range_flag_is_a_one_line_usage_error(tmp_path, capsys, command, flags):
    graph = synthetic.generate_graph(5, edge_density=0.3, seed=3)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [[0, 0]]}, handle)
    out_path = tmp_path / "generated.json"
    paths = {"diff": [path_a, path_b], "ged": [path_a, path_b, report_path],
             "generate": ["--out", str(out_path)]}[command]
    rc, _, err = run(capsys, [command] + paths + flags)
    assert rc == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert flags[-2] in err
    assert not out_path.exists()


@pytest.mark.parametrize("key", [["x"], {"x": 1}, True, 1.0, None])
@pytest.mark.parametrize("command", ["eval", "ged"])
def test_report_key_that_is_not_an_int_or_str_is_a_data_error(tmp_path, capsys,
                                                              command, key):
    graph = synthetic.generate_graph(3, seed=6)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": [["fn0000", "fn0000", 0.5], [key, "fn0001", 0.5]]}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([("fn0000", "fn0000")]), truth_path)
    argv = (["eval", report_path, truth_path] if command == "eval"
            else ["ged", path_a, path_b, report_path])
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: ") and "matched[1]" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--program-a", "--program-b"])
def test_eval_program_flag_without_its_partner_is_a_usage_error(tmp_path, capsys, flag):
    graph = synthetic.generate_graph(3, seed=6)
    path_a, _ = write_graph_pair(tmp_path, graph, graph)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as handle:
        json.dump({"matched": []}, handle)
    truth_path = str(tmp_path / "truth.json")
    evaluation.save_ground_truth(evaluation.GroundTruth.from_pairs([]), truth_path)
    rc, _, err = run(capsys, ["eval", report_path, truth_path, flag, path_a])
    assert rc == 1
    assert len(err.splitlines()) == 1 and "--program-a and --program-b" in err


# Runs in a fresh interpreter: each command, then the sorted names of the
# scipy modules in sys.modules so far, as the last line of stdout.  Loading
# the assignment routine adds its extension, matchers.LSAP_MODULE, and
# nothing else: neither the scipy package nor scipy.optimize is imported.
FRESH_PROCESS = """
import json, sys
import cgalign.cli as cli
from cgalign import matchers

cli.build_parser()
real, calls = matchers.linear_sum_assignment, []

def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

matchers.linear_sum_assignment = counting
for argv in json.loads(sys.argv[1]):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 0, argv
print(json.dumps({"calls": len(calls), "scipy": sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy.")),
    "futures": "concurrent.futures" in sys.modules}))
"""


def fresh_process(argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fresh_commands_import_no_scipy_package(tmp_path, capsys):
    graph = synthetic.generate_graph(6, edge_density=0.3, seed=4)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report, truth = str(tmp_path / "report.json"), str(tmp_path / "truth.json")
    assert run(capsys, ["diff", path_a, path_b, "--output", report])[0] == 0
    evaluation.save_ground_truth(
        evaluation.GroundTruth.from_pairs([(k, k) for k in graph.names]), truth)
    seen = fresh_process([
        ["-h"],
        ["generate", "--n", "6", "--out", str(tmp_path / "g.json"), "--mutate", "insert=1",
         "--out-b", str(tmp_path / "h.json"), "--out-truth", str(tmp_path / "t.json")],
        ["eval", report, truth],
        ["ged", path_a, path_b, report],
    ])
    assert seen == {"calls": 0, "scipy": [matchers.LSAP_MODULE], "futures": False}


def test_fresh_diff_never_imports_scipy_optimize(tmp_path):
    base = synthetic.generate_graph(20, edge_density=0.15, seed=5)
    other, _ = synthetic.mutate(base, synthetic.MutationSpec(insert=2, perturb=4), seed=6)
    path_a, path_b = write_graph_pair(tmp_path, base, other)
    seen = fresh_process([["diff", path_a, path_b], ["diff", path_a, path_b, "--threads", "4"],
                          ["diff", path_a, path_b, "--matcher", "mwm"],
                          ["diff", path_a, path_b, "--matcher", "mcs"]])
    assert seen["calls"] > 0  # the assignment ran, so its loading was exercised
    assert seen["scipy"] == [matchers.LSAP_MODULE]  # so no scipy.optimize
    assert not seen["futures"]  # belief propagation starts no thread pool


def test_every_flag_has_help():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands.choices) == ["diff", "eval", "ged", "generate"]
    for name, sub in [("cgalign", parser)] + sorted(commands.choices.items()):
        for action in sub._actions:
            if action.option_strings:
                assert action.help and action.help.strip(), (name, action.option_strings)


def test_max_iters_zero_reports_the_empty_mapping_as_not_converged(tmp_path, capsys):
    graph = synthetic.generate_graph(8, edge_density=0.3, seed=5)
    path_a, path_b = write_graph_pair(tmp_path, graph, graph)
    report = run_json(capsys, ["diff", path_a, path_b, "--max-iters", "0"])
    assert report["matched"] == [] and report["objective"] == 0.0
    assert report["iterations"] == 0 and report["converged"] is False


def fail_allocating(message):
    def allocate(*args, **kwargs):
        raise MemoryError(*message)
    return allocate


@pytest.mark.parametrize("layer, message", [
    ((similarity, "build_similarity_matrix"), ()),
    ((nap, "build_problem"),
     ("Unable to allocate 275. MiB for an array\nwith shape (6000, 6000) and data type float64",)),
    ((matchers, "linear_sum_assignment"), ("cannot allocate memory",)),
])
def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, layer, message):
    graph = synthetic.generate_graph(12, edge_density=0.2, seed=5)
    other, _ = synthetic.mutate(graph, synthetic.MutationSpec(insert=2, perturb=3), seed=6)
    path_a, path_b = write_graph_pair(tmp_path, graph, other)
    monkeypatch.setattr(*layer, fail_allocating(message))
    rc, out, err = run(capsys, ["diff", path_a, path_b])
    assert rc == 3 and out == ""
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if message:
        assert err == "error: out of memory: %s\n" % " ".join(message[0].split())


OUT_OF_MEMORY = r"""
import os, resource, sys
from cgalign import cli, synthetic
from cgalign.graphs import save_call_graph

n, directory = int(sys.argv[1]), sys.argv[2]
base = synthetic.generate_graph(n, edge_density=3 / (n - 1), seed=11, name="A")
other, _ = synthetic.mutate(base, synthetic.MutationSpec(perturb=n // 10), seed=12)
paths = [os.path.join(directory, name) for name in ("a.json", "b.json")]
save_call_graph(base, paths[0])
save_call_graph(other, paths[1])
del base, other
# this process only: its address space may grow by HEADROOM, less than the
# n x n float64 scores that an unpruned diff holds
with open("/proc/self/statm") as statm:
    size = int(statm.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = size + int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY
                                        else min(limit, hard), hard))
sys.exit(cli.main(["diff"] + paths))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux's statm")
def test_diff_out_of_address_space_exits_three_in_one_line(tmp_path):
    n = 3000
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    headroom = n * n * 8 // 2
    done = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY, str(n), str(tmp_path),
                           str(headroom)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory") and "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
