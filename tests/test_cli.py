"""CLI behavior: exit codes, report shapes, environment, parallel survey."""

import io
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

import tripm.cli
from tripm import DEFAULT_BUDGET, make_graph, write_edge_list, write_graph6
from tripm.cli import main
from tripm.generators import k4, no_pm_cubic16, petersen, wheel

PETERSEN_G6 = "IheA@GUAo"
K2_G6 = "A_"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_petersen_graph6_constant_matches_generator():
    assert write_graph6(petersen()) == PETERSEN_G6


def test_check_admissible_report(tmp_path, capsys):
    path = write(tmp_path, "g.g6", PETERSEN_G6 + "\n")
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "admissible"
    assert (report["n"], report["m"]) == (10, 15)
    assert report["budget"] == DEFAULT_BUDGET
    assert report["certificate"]["type"] == "triple"
    assert report["structural_certificate"]["type"] == "skeleton"
    assert report["nodes"] > 0
    assert "elapsed_ms" in report


def test_check_reads_stdin_by_default(capsys, monkeypatch):
    code, out, _ = run(capsys, ["check"], stdin="C~\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["verdict"] == "admissible"


def test_check_exit_codes(tmp_path, capsys):
    assert run(capsys, ["check", write(tmp_path, "k2.g6", K2_G6)])[0] == 1
    code, out, _ = run(capsys, ["check", write(tmp_path, "p.g6", PETERSEN_G6),
                                "--budget", "5"])
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown"
    bad = write(tmp_path, "bad.g6", write_graph6(no_pm_cubic16()))
    code, out, _ = run(capsys, ["check", bad])
    assert code == 3
    assert json.loads(out)["reason"].startswith("not matching covered")


def test_check_parse_error_exit_and_message(tmp_path, capsys):
    code, out, err = run(capsys, ["check", write(tmp_path, "junk", "C!!!")])
    assert code == 4
    assert out == ""
    assert err.startswith("tripm: ")


def test_check_edgelist_sniffing_and_format_override(tmp_path, capsys):
    path = write(tmp_path, "g.el", "4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert json.loads(out)["verdict"] == "admissible"
    code, _, err = run(capsys, ["check", path, "--format", "graph6"])
    assert code == 4
    assert "tripm:" in err


def test_budget_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "p.g6", PETERSEN_G6)
    monkeypatch.setenv("TRIPM_BUDGET", "7")
    code, out, _ = run(capsys, ["check", path])
    assert code == 2
    assert json.loads(out)["budget"] == 7
    code, out, _ = run(capsys, ["check", path, "--budget", "100000"])
    assert code == 0
    assert json.loads(out)["budget"] == 100000
    monkeypatch.setenv("TRIPM_BUDGET", "plenty")
    code, _, err = run(capsys, ["check", path])
    assert code == 4
    assert "TRIPM_BUDGET" in err


def test_cert_out_then_verify_round_trip(tmp_path, capsys):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    cpath = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, ["check", gpath, "--cert-out", cpath])
    assert code == 0
    blob = json.loads(open(cpath).read())
    assert blob["type"] == "skeleton"  # structural wins over the raw triple
    code, out, _ = run(capsys, ["verify", gpath, cpath])
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_cert_out_skipped_when_not_admissible(tmp_path, capsys):
    gpath = write(tmp_path, "k2.g6", K2_G6)
    cpath = tmp_path / "cert.json"
    assert run(capsys, ["check", gpath, "--cert-out", str(cpath)])[0] == 1
    assert not cpath.exists()


def test_verify_tampered_certificate_fails_semantically(tmp_path, capsys):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    cpath = str(tmp_path / "cert.json")
    run(capsys, ["check", gpath, "--cert-out", cpath])
    blob = json.loads(open(cpath).read())
    blob["coloring"]["0"] = blob["coloring"]["1"]
    tampered = write(tmp_path, "tampered.json", json.dumps(blob))
    code, out, _ = run(capsys, ["verify", gpath, tampered])
    assert code == 1
    assert not json.loads(out)["ok"]


def test_verify_schema_break_is_an_error(tmp_path, capsys):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    cpath = str(tmp_path / "cert.json")
    run(capsys, ["check", gpath, "--cert-out", cpath])
    blob = json.loads(open(cpath).read())
    del blob["type"]
    broken = write(tmp_path, "broken.json", json.dumps(blob))
    assert run(capsys, ["verify", gpath, broken])[0] == 4
    notjson = write(tmp_path, "notjson.json", "{")
    assert run(capsys, ["verify", gpath, notjson])[0] == 4
    other = write(tmp_path, "k4.g6", "C~")
    assert run(capsys, ["verify", other, cpath])[0] == 4


@pytest.mark.parametrize("path, value", [
    (("chain_map", 0, 0), "x"),
    (("cycle_components",), [["x"]]),
    (("coloring", "0"), ["x"]),
    (("chain_map",), 5),
    (("skeleton", "edges", 0), [0]),
    (("spanning", "edges", 0), [0, "x"]),
], ids=["chain-id", "cycle-id", "color", "chain-map", "skeleton-edge",
        "matching-entry"])
def test_verify_malformed_certificate_is_an_error(tmp_path, capsys, path, value):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    cpath = str(tmp_path / "cert.json")
    run(capsys, ["check", gpath, "--cert-out", cpath])
    blob = json.loads(open(cpath).read())
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    broken = write(tmp_path, "broken.json", json.dumps(blob))
    code, out, err = run(capsys, ["verify", gpath, broken])
    assert code == 4
    assert out == ""
    assert err.startswith("tripm: ")


@pytest.mark.parametrize("pair", [[-10, 1], [99, 100]])
def test_verify_vertex_pair_outside_the_graph_is_an_error(tmp_path, capsys, pair):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    blob = json.loads(run(capsys, ["check", gpath])[1])["certificate"]
    for m in blob["matchings"]:
        del m["edge_ids"]
    blob["matchings"][0]["edges"][0] = pair
    broken = write(tmp_path, "broken.json", json.dumps(blob))
    code, out, err = run(capsys, ["verify", gpath, broken])
    assert code == 4
    assert out == ""
    assert "out of range" in err


def test_verify_truncated_branch_vertices_reports_violations(tmp_path, capsys):
    gpath = write(tmp_path, "p.g6", PETERSEN_G6)
    cpath = str(tmp_path / "cert.json")
    run(capsys, ["check", gpath, "--cert-out", cpath])
    blob = json.loads(open(cpath).read())
    blob["branch_vertices"] = blob["branch_vertices"][:-2]
    truncated = write(tmp_path, "truncated.json", json.dumps(blob))
    code, out, _ = run(capsys, ["verify", gpath, truncated])
    assert code == 1
    assert not json.loads(out)["ok"]


def survey_input(tmp_path):
    lines = [PETERSEN_G6, "", "C~", "!!!", K2_G6,
             write_graph6(no_pm_cubic16())]
    return write(tmp_path, "stream.g6", "\n".join(lines) + "\n")


def test_survey_records_in_input_order_with_summary(tmp_path, capsys):
    path = survey_input(tmp_path)
    code, out, _ = run(capsys, ["survey", path, "--jobs", "1"])
    assert code == 0
    *records, summary = [json.loads(ln) for ln in out.splitlines()]
    # the blank line is skipped but keeps its line number
    assert [r["line"] for r in records] == [1, 3, 4, 5, 6]
    assert [r["verdict"] for r in records] == [
        "admissible", "admissible", "error", "not-admissible", "ineligible"]
    assert "error" in records[2]
    assert summary == {"summary": {
        "admissible": 2, "not-admissible": 1, "unknown": 0,
        "ineligible": 1, "error": 1, "total": 5}}


def test_survey_decides_a_graph_deeper_than_the_recursion_limit(tmp_path, capsys):
    k48 = make_graph(48, combinations(range(48), 2))  # m = 1128
    path = write(tmp_path, "deep.g6",
                 PETERSEN_G6 + "\n" + write_graph6(k48) + "\n")
    code, out, _ = run(capsys, ["survey", path, "--jobs", "1"])
    assert code == 0
    *records, summary = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["line"], r["verdict"]) for r in records] == [
        (1, "admissible"), (2, "admissible")]
    assert summary["summary"]["admissible"] == 2
    assert summary["summary"]["total"] == 2


def test_survey_turns_an_exception_into_an_error_record(tmp_path, capsys,
                                                        monkeypatch):
    real_check = tripm.cli.check

    def check_failing_on_k4(g, budget):
        if g == k4():
            raise RuntimeError("boom")
        return real_check(g, budget)

    monkeypatch.setattr(tripm.cli, "check", check_failing_on_k4)
    lines = [PETERSEN_G6, "C~", K2_G6, write_graph6(no_pm_cubic16())]
    path = write(tmp_path, "s.g6", "\n".join(lines) + "\n")
    code, out, err = run(capsys, ["survey", path, "--jobs", "1"])
    assert code == 0
    *records, summary = [json.loads(ln) for ln in out.splitlines()]
    assert [r["verdict"] for r in records] == [
        "admissible", "error", "not-admissible", "ineligible"]
    assert records[1] == {"line": 2, "graph6": "C~", "verdict": "error",
                          "error": "boom", "error_type": "RuntimeError"}
    assert summary["summary"]["error"] == 1
    assert summary["summary"]["total"] == 4
    assert "survey line 2" in err and "RuntimeError: boom" in err


def test_survey_prints_each_record_before_deciding_the_next(tmp_path, monkeypatch):
    out = io.StringIO()
    lines_seen = []
    real_check = tripm.cli.check

    def counting_check(g, budget):
        lines_seen.append(len(out.getvalue().splitlines()))
        return real_check(g, budget)

    monkeypatch.setattr(tripm.cli, "check", counting_check)
    monkeypatch.setattr(sys, "stdout", out)
    path = write(tmp_path, "s.g6", "\n".join([PETERSEN_G6, "C~", K2_G6]) + "\n")
    assert main(["survey", path, "--jobs", "1"]) == 0
    assert lines_seen == [0, 1, 2]
    assert len(out.getvalue().splitlines()) == 4


def test_survey_parallel_output_matches_serial(tmp_path, capsys):
    path = survey_input(tmp_path)
    _, serial, _ = run(capsys, ["survey", path, "--jobs", "1"])
    _, parallel, _ = run(capsys, ["survey", path, "--jobs", "2"])

    def stable(text):
        rows = [json.loads(ln) for ln in text.splitlines()]
        for r in rows:
            r.pop("elapsed_ms", None)
        return rows

    assert stable(serial) == stable(parallel)


def test_survey_cross_validate(tmp_path, capsys):
    path = survey_input(tmp_path)
    code, out, _ = run(capsys, ["survey", path, "--jobs", "1", "--cross-validate"])
    assert code == 0
    *records, summary = [json.loads(ln) for ln in out.splitlines()]
    checked = [r for r in records if r["verdict"] in ("admissible", "not-admissible")]
    assert checked and all(r["agree"] for r in checked)
    assert all(r["direct"] == r["structural"] == r["verdict"] for r in checked)
    assert summary["summary"]["disagreements"] == 0


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only survey --jobs N > 1 needs the pool; importing it costs every
    # other command memory
    code = ("import sys, tripm.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_generate_named_and_parametric(capsys):
    code, out, _ = run(capsys, ["generate", "petersen"])
    assert code == 0 and out == PETERSEN_G6 + "\n"
    code, out, _ = run(capsys, ["generate", "wheel", "--n", "5"])
    assert out.strip() == write_graph6(wheel(5))
    code, out, _ = run(capsys, ["generate", "random-regular", "--n", "10",
                                "--k", "3", "--seed", "5", "--count", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    _, again, _ = run(capsys, ["generate", "random-regular", "--n", "10",
                               "--k", "3", "--seed", "5", "--count", "3"])
    assert again.splitlines() == lines
    _, shifted, _ = run(capsys, ["generate", "random-regular", "--n", "10",
                                 "--k", "3", "--seed", "6"])
    assert shifted.strip() == lines[1]  # count increments the seed per graph


def test_generate_edge_list_output(capsys):
    code, out, _ = run(capsys, ["generate", "k4", "--format", "edgelist"])
    assert code == 0
    assert out == write_edge_list(k4())
    # above the graph6 size limit the edge list is chosen automatically
    code, out, _ = run(capsys, ["generate", "wheel", "--n", "62"])
    assert code == 0
    assert out.splitlines()[0] == "63 124"


def test_generate_missing_parameters(capsys):
    code, _, err = run(capsys, ["generate", "wheel"])
    assert code == 4
    assert "wheel requires n" in err
    with pytest.raises(SystemExit):
        main(["generate", "moebius"])


def test_decompose_reports_closed_form_structure(tmp_path, capsys):
    path = write(tmp_path, "g.g6", write_graph6(no_pm_cubic16()))
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0
    report = json.loads(out)
    assert report["a"] == [0]
    assert report["c"] == []
    assert report["d"] == list(range(1, 16))
    assert report["components"] == [list(range(1, 6)), list(range(6, 11)),
                                    list(range(11, 16))]
    assert report["t"] == [1, 1, 1]
    assert report["omega"] == 3 and report["omega1"] == 3
    assert all(report["properties"].values())


def test_decompose_on_perfectly_matchable_graph(tmp_path, capsys):
    path = write(tmp_path, "p.g6", PETERSEN_G6)
    code, out, _ = run(capsys, ["decompose", path])
    report = json.loads(out)
    assert report["d"] == [] and report["a"] == []
    assert report["c"] == list(range(10))
    assert report["omega"] == 0
