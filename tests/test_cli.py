import contextlib
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from congtower import cli, homology
from congtower.errors import InputError
from congtower.presentations import parse_presentation
from congtower.rings import make_ring


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
    (["homology", "--index-cap", "-1"], "must be at least 0"),
    (["homology", "--norm-max", "-3"], "must be at least 0"),
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


def test_tree_pgl2_at_ramified_prime(capsys):
    # 7 ramifies in O_7: the swap seed uses the prime's generator
    code, out = run_cli(capsys, "tree", "pgl2", "--p", "7", "--radius", "1")
    assert code == 0
    assert "valences: {'v': 8}" in out and "vertices: 9 " in out


# the d=1 generator matrices as a scheme file; a valid file runs
D1_SCHEME = {"ring": "d=1", "matrices": {
    "a": [[1, 1], [0, 1]], "b": [[0, -1], [1, 0]],
    "u": [[1, [0, 1]], [0, 1]], "j": [[-1, 0], [0, -1]]}}


def _homology_on(tmp_dir, flag, content):
    """Exit code and stderr of `homology --norm-max 2 <flag> <file>`."""
    path = tmp_dir / "input"
    if isinstance(content, str):
        content = content.encode()
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["homology", "--field", "1", "--norm-max", "2",
                         flag, str(path)])
    return code, err.getvalue()


def test_valid_scheme_file_runs(tmp_path):
    code, _ = _homology_on(tmp_path, "--matrices", json.dumps(D1_SCHEME))
    assert code == 0


def _with_entry(entry):
    payload = json.loads(json.dumps(D1_SCHEME))
    payload["matrices"]["a"][0][1] = entry
    return json.dumps(payload)


@pytest.mark.parametrize("flag, content, message", [
    ("--matrices", _with_entry("abc"), "bad coordinate 'abc'"),
    ("--matrices", _with_entry("1/0"), "bad coordinate '1/0'"),
    ("--matrices", _with_entry(True), "bad coordinate True"),
    ("--matrices", json.dumps({**D1_SCHEME, "ring": True}),
     "cannot parse ring spec True"),
    ("--presentation", b"# provenance: test\ngens a\xff; rels a^2;",
     "is not UTF-8 text"),
    ("--presentation", b"# provenance: test\ngens a; rels a^10000000;",
     "exceeds the limit"),
    ("--presentation", b"# provenance: test\ngens a, b; rels "
     + b"[" * 18 + b"a,b]" + b",b]" * 17 + b";", "exceeds the limit"),
    ("--presentation", b"# provenance: test\ngens a; rels "
     + b", ".join([b"a^60000"] * 2) + b";", "relators total"),
], ids=["letters", "zero-denominator", "boolean", "boolean-ring",
        "not-utf8", "huge-power", "nested-commutators", "huge-total"])
def test_malformed_file_exits_input(tmp_path, flag, content, message):
    code, err = _homology_on(tmp_path, flag, content)
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and message in err


def _bundled_reflections():
    path = os.path.join(homology.data_dir(), "matrices", "o41_reflections.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _corrupt_entry(payload):
    payload["matrices"][0][0][0] = 5
    return json.dumps(payload)


@pytest.mark.parametrize("argv, edit, message", [
    (["tower", "o41"], lambda p: "[1, 2", "not valid JSON"),
    (["tower", "o41"], lambda p: json.dumps({"ring": "rational"}),
     '"matrices" must list'),
    (["tower", "o41"], lambda p: json.dumps({**p, "ring": "d=7"}),
     '"ring": "rational"'),
    (["tower", "o41"], lambda p: json.dumps({**p, "matrices": p["matrices"][:4]}),
     '"matrices" must list'),
    (["tower", "o41"], lambda p: json.dumps(
        {**p, "matrices": [[row[:4] for row in m[:4]] for m in p["matrices"]]}),
     "five 5x5"),
    (["tower", "o41"], None, "not found"),
    (["check-identities"], lambda p: json.dumps({"ring": "rational"}),
     '"matrices" must list'),
    (["check-identities"], _corrupt_entry, "integrality or form"),
    (["tower", "magic", "--steps", "2"], None, "not found"),
], ids=["not-json", "no-matrices", "wrong-ring", "four-matrices",
        "four-by-four", "missing", "identities-no-matrices",
        "identities-corrupt-entry", "magic-missing-presentation"])
def test_malformed_reflection_file_exits_input(capsys, tmp_path, monkeypatch,
                                               argv, edit, message):
    payload = _bundled_reflections()
    (tmp_path / "matrices").mkdir()
    if edit is not None:
        (tmp_path / "matrices" / "o41_reflections.json").write_text(edit(payload))
    monkeypatch.setenv(homology.DATA_ENV_VAR, str(tmp_path))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("flag", ["--presentation", "--matrices"])
def test_directory_as_input_file_exits_input(capsys, tmp_path, flag):
    code = cli.main(["homology", "--field", "1", flag, str(tmp_path)])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_lemma22_non_numeric_prime(capsys):
    code = cli.main(["lemma22", "--prime", "x", "--j", "1", "--k", "2"])
    assert code == cli.EXIT_INPUT
    assert "--prime 'x'" in capsys.readouterr().err


# -- malformed input, property-based --------------------------------------

PRES_TOKENS = ["gens", "rels", "a", "b", "u", "j", "x1", "_", ",", ";",
               "(", ")", "[", "]", "^", "*", "2", "-1", "0", "1", "#", "\n",
               "@", "é", "²", "%"]
pres_soup = st.lists(st.sampled_from(PRES_TOKENS), max_size=20).map(" ".join)
pres_texts = st.one_of(pres_soup,
                       pres_soup.map(lambda t: "gens a, b; rels " + t))


def _parses(text):
    try:
        parse_presentation(text)
    except InputError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=pres_texts, cut=st.none() | st.integers(min_value=0))
def test_malformed_presentation_exits_input(tmp_path_factory, text, cut):
    if cut is None:
        assume(not _parses(text))
        content = text.encode()
    else:
        # bytes that are never UTF-8
        raw = ("# provenance: test\n" + text).encode()
        cut %= len(raw) + 1
        content = raw[:cut] + b"\xff" + raw[cut:]
    code, err = _homology_on(tmp_path_factory.mktemp("pres"),
                             "--presentation", content)
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:")


def _not_a_coordinate(v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        return True
    try:
        Fraction(v)
    except (ValueError, ZeroDivisionError):
        return True
    return False


def _not_d1(v):
    try:
        return make_ring(v) != make_ring(1)
    except InputError:
        return True


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _replace(path, value):
    """D1_SCHEME with the item at `path` (a key sequence) replaced."""
    payload = json.loads(json.dumps(D1_SCHEME))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


malformed_schemes = st.one_of(
    # not an object, or no usable "ring" or "matrices"
    json_values.filter(lambda v: not isinstance(v, dict)),
    json_values.filter(_not_d1).map(lambda v: _replace(["ring"], v)),
    json_values.filter(lambda v: not isinstance(v, dict) or not v).map(
        lambda v: _replace(["matrices"], v)),
    # a generator missing, or its rows not a square list of lists
    st.sampled_from("abuj").map(lambda g: {**D1_SCHEME, "matrices": {
        k: v for k, v in D1_SCHEME["matrices"].items() if k != g}}),
    json_values.filter(lambda v: not isinstance(v, list) or len(v) != 2
                       or any(not isinstance(r, list) or len(r) != 2
                              for r in v)).map(
        lambda v: _replace(["matrices", "b"], v)),
    # one entry that is no ring element: a bad coordinate, or a
    # coordinate list of the wrong length or with a bad coordinate
    json_values.filter(lambda v: not isinstance(v, list)
                       and _not_a_coordinate(v)).map(
        lambda v: _replace(["matrices", "u", 0, 1], v)),
    st.lists(st.integers(), max_size=4).filter(lambda v: len(v) != 2).map(
        lambda v: _replace(["matrices", "u", 0, 1], v)),
    json_values.filter(_not_a_coordinate).map(
        lambda v: _replace(["matrices", "u", 0, 1], [0, v])),
    # a scheme block that is not an object or names no known kind
    json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: _replace(["scheme"], v)),
    json_values.filter(lambda v: str(v).upper() not in ("SL2", "O", "SU")).map(
        lambda v: _replace(["scheme"], {"kind": v})),
).map(json.dumps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=malformed_schemes | st.text(max_size=30),
       cut=st.none() | st.integers(min_value=0))
def test_malformed_matrices_file_exits_input(tmp_path_factory, text, cut):
    raw = text.encode()
    if cut is None:
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        assume(payload != D1_SCHEME)
        content = raw
    else:
        cut %= len(raw) + 1
        content = raw[:cut] + b"\xff" + raw[cut:]
    code, err = _homology_on(tmp_path_factory.mktemp("mats"),
                             "--matrices", content)
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:")
