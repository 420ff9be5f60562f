import json

import pytest

from congtower import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_identities_exit_zero(capsys):
    code, out = run_cli(capsys, "check-identities")
    assert code == 0
    assert "all checks pass" in out


def test_check_identities_json(capsys):
    code, out = run_cli(capsys, "check-identities", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["checks"]) >= 8


def test_lemma22_pass_and_output(capsys):
    code, out = run_cli(capsys, "lemma22", "SL2", "--prime", "1+i",
                        "--j", "1", "--k", "2")
    assert code == 0
    assert "elementary abelian: True" in out
    code, out = run_cli(capsys, "lemma22", "SL2", "--prime", "1+i",
                        "--j", "2", "--k", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["order"] == 64


def test_lemma22_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "lemma22", "SL2", "--prime", "zeta5-1",
                      "--j", "1", "--k", "4", "--budget", "10")
    assert code == cli.EXIT_BUDGET


@pytest.mark.parametrize("index", ["9", "-1"])
def test_lemma22_prime_index_out_of_range(capsys, index):
    # 2 has a single prime above it in d=1
    code = cli.main(["lemma22", "--j", "1", "--k", "2",
                     "--prime-index", index])
    assert code == cli.EXIT_INPUT
    assert "--prime-index %s is out of range" % index in capsys.readouterr().err


def test_tree_text_and_dot(capsys):
    code, out = run_cli(capsys, "tree", "pgl2", "--radius", "2")
    assert code == 0
    assert "vertices: 10" in out
    code, dot = run_cli(capsys, "tree", "pgl2", "--radius", "2",
                        "--format", "dot")
    assert code == 0
    assert dot.startswith("graph tree {")


def test_tree_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "tree", "pgl2", "--radius", "3",
                      "--format", "json")
    _, out2 = run_cli(capsys, "tree", "pgl2", "--radius", "3",
                      "--format", "json")
    assert out1 == out2


def test_tree_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit):
        cli.main(["tree", "nosuch"])


def test_homology_table_text(capsys):
    code, out = run_cli(capsys, "homology", "--field", "1", "--norm-max", "5")
    assert code == 0
    assert "2     0  2^5" in out.replace("  ", " ").replace(" ", " ") or "2^5" in out


def test_homology_json_deterministic(capsys):
    code, out1 = run_cli(capsys, "homology", "--field", "1", "--norm-max", "5",
                         "--format", "json")
    assert code == 0
    _, out2 = run_cli(capsys, "homology", "--field", "1", "--norm-max", "5",
                      "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rows"][0] == {
        "norm": 2, "index": 6, "rank": 0, "torsion": "2^5"}


def test_tower_text_pass(capsys):
    code, out = run_cli(capsys, "tower", "magic", "--steps", "2",
                        "--recheck-points", "10")
    assert code == 0
    assert "verdict: PASS" in out


def test_tower_json_schema(capsys):
    code, out = run_cli(capsys, "tower", "magic", "--steps", "2",
                        "--recheck-points", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["example"] == "magic"
    assert "cofinality_radius" in payload
    steps = payload["steps"]
    assert steps[0]["n"] == 0
    for s in steps[1:]:
        cert = s["certificate"]
        assert {"a", "b", "pass", "min_valuation"} <= set(cert)
        assert cert["basis_checks"] == 2 * 2 + 1
        assert cert["direction"] == "left"
        assert "grid" not in cert and "mode" not in cert
        assert s["reverified"] is True


def test_tower_zero_recheck_points_not_reverified(capsys):
    # no point rechecked: the step is not reported as reverified, and the
    # verdict rests on the complete certificate
    code, out = run_cli(capsys, "tower", "magic", "--steps", "1",
                        "--recheck-points", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["steps"][1]["reverified"] is False
    assert payload["steps"][1]["certificate"]["pass"] is True


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(capsys, "homology", "--field", "1", "--norm-max", "2",
                      "--format", "json", "--output", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["rows"][0]["torsion"] == "2^5"


def test_input_error_exit_code(capsys):
    code = cli.main(["homology", "--field", "6"])
    assert code == cli.EXIT_INPUT


def test_matrices_file_without_matrices_is_input_error(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text('{"ring": 1}')
    code = cli.main(["homology", "--field", "1", "--norm-max", "2",
                     "--matrices", str(path)])
    assert code == cli.EXIT_INPUT
    assert '"matrices"' in capsys.readouterr().err


def test_matrices_file_not_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text("gens a, b; rels a^2;")
    code = cli.main(["homology", "--field", "1", "--norm-max", "2",
                     "--matrices", str(path)])
    assert code == cli.EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["tower", "magic", "--steps", "abc"], "invalid int value"),
    (["tower", "magic", "--format", "dot"], "invalid choice: 'dot'"),
    (["homology", "--format", "dot"], "invalid choice: 'dot'"),
    (["tower", "magic", "--recheck-points", "-5"], "must be at least 0"),
    (["tower", "magic", "--steps", "-1"], "must be at least 0"),
    (["tree", "pgl2", "--radius", "-1"], "must be at least 0"),
    (["tree", "pgl2", "--budget", "0"], "must be at least 1"),
    ([], "required"),
])
def test_usage_error_exits_input(capsys, argv, message):
    # argparse would exit 2, which here means a budget was exceeded
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: congtower")
    assert message in err


def test_zero_counts_accepted(capsys):
    code, out = run_cli(capsys, "tower", "magic", "--steps", "0",
                        "--recheck-points", "0")
    assert code == 0 and "verdict: PASS" in out
    code, out = run_cli(capsys, "tree", "pgl2", "--radius", "0")
    assert code == 0 and "vertices: 1 " in out
