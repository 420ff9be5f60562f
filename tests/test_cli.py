import contextlib
import io
import json
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
    code, out = run_cli(capsys, "lemma22", "--prime", "1+i",
                        "--j", "1", "--k", "2")
    assert code == 0
    assert "elementary abelian: True" in out
    code, out = run_cli(capsys, "lemma22", "--prime", "1+i",
                        "--j", "2", "--k", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["order"] == 64


def test_lemma22_past_2j_reports_the_exponent_as_data(capsys):
    # k = 3 > 2j: the lemma claims nothing of the kernel, which is neither
    # abelian nor of exponent p; the verdict passes and the data stays
    code, out = run_cli(capsys, "lemma22", "--prime", "1+i",
                        "--j", "1", "--k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert (payload["order"], payload["exponent"]) == (64, 4)
    assert payload["abelian"] is False


def test_lemma22_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "lemma22", "--prime", "zeta5-1",
                      "--j", "1", "--k", "4", "--budget", "10")
    assert code == cli.EXIT_BUDGET


def test_lemma22_budget_covers_the_pair_passes(capsys):
    # 256 candidates fit the budget, but the kernel has order 64 and its
    # group passes are declared at up to 4 * 64 * log2(64) = 1536 products
    code = cli.main(["lemma22", "--prime", "1+i", "--j", "1",
                     "--k", "3", "--budget", "1000"])
    assert code == cli.EXIT_BUDGET
    assert "1536 products" in capsys.readouterr().err


def test_budget_exit_names_estimate_and_budget(capsys):
    # the tree search stops at the 11th vertex, one past the budget
    code = cli.main(["tree", "pgl2", "--radius", "9", "--budget", "10"])
    assert code == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:")
    assert "(estimate 11, budget 10)" in err


@pytest.mark.parametrize("index", ["9", "-1"])
def test_lemma22_prime_index_out_of_range(capsys, index):
    # 2 has a single prime above it in d=1
    code = cli.main(["lemma22", "--j", "1", "--k", "2",
                     "--prime-index", index])
    assert code == cli.EXIT_INPUT
    assert "--prime-index %s is out of range" % index in capsys.readouterr().err


@pytest.mark.parametrize("prime, field", [("1+i", "d=7"), ("1+i", "2"),
                                          ("zeta5-1", "d=1")])
def test_lemma22_alias_rejects_another_field(capsys, prime, field):
    # an alias fixes its own ring; a --field naming another one used to be
    # dropped
    code = cli.main(["lemma22", "--field", field, "--prime", prime,
                     "--j", "1", "--k", "2"])
    assert code == cli.EXIT_INPUT
    assert "--prime %s lies in" % prime in capsys.readouterr().err


def test_lemma22_alias_with_its_own_field(capsys):
    plain = run_cli(capsys, "lemma22", "--j", "1", "--k", "2",
                    "--format", "json")
    for field in ("d=1", "1", "O_1"):
        assert run_cli(capsys, "lemma22", "--field", field, "--prime", "1+i",
                       "--j", "1", "--k", "2", "--format", "json") == plain


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


@pytest.mark.parametrize("offset", [-1, 1])
def test_image_of_the_wrong_order_exits_input(monkeypatch, capsys, offset):
    # one below the true order, the closure passes its budget; one above,
    # it ends with too few elements: either way the input is at fault
    true_order = homology.sl2_image_order
    monkeypatch.setattr(homology, "sl2_image_order",
                        lambda q: true_order(q) + offset)
    code = cli.main(["homology", "--field", "1", "--norm-max", "2"])
    assert code == cli.EXIT_INPUT
    assert "presentation or matrices wrong" in capsys.readouterr().err


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
    (["lemma22", "SL2", "--j", "1", "--k", "2"], "unrecognized arguments: SL2"),
    (["homology", "--budget", "5"], "unrecognized arguments: --budget 5"),
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


@pytest.mark.parametrize("p, vertices", [("3", 11), ("11", 13)])
def test_tree_pgl2_at_primes_outside_the_small_box(capsys, p, vertices):
    # 3 is inert in O_7 (generator 3), and the primes over 11 need a
    # coordinate of size 3: both are principal, so both trees build
    code, out = run_cli(capsys, "tree", "pgl2", "--p", p, "--radius", "1")
    assert code == 0
    assert "vertices: %d " % vertices in out


@pytest.mark.parametrize("p", ["0", "1", "4", "-2"])
def test_tree_pgl2_rejects_non_prime(capsys, p):
    # --p 0 is an explicit value, not the default p=2
    code = cli.main(["tree", "pgl2", "--p", p, "--radius", "1"])
    assert code == cli.EXIT_INPUT
    assert "not a prime in the supported range" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["oq", "su"])
def test_tree_p_applies_to_pgl2_only(capsys, model):
    # the oq and su models fix their own prime; --p used to be dropped
    code = cli.main(["tree", model, "--p", "3", "--radius", "1"])
    assert code == cli.EXIT_INPUT
    assert "--p applies to the pgl2 model only" in capsys.readouterr().err


# the d=1 generator matrices as a generator-matrices file; a valid file runs
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


def test_sl2_scheme_block_is_optional(capsys, tmp_path):
    outputs = []
    for payload in (D1_SCHEME, {**D1_SCHEME, "scheme": {"kind": "SL2"}}):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "homology", "--norm-max", "5",
                            "--matrices", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0] == run_cli(capsys, "homology", "--norm-max", "5")[1]


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
    ("--matrices", json.dumps({**D1_SCHEME, "scheme": {
        "kind": "SU", "form": [[0, 1], [1, 0]], "special": True}}),
     '"scheme" must be {"kind": "SL2"}'),
    ("--matrices", json.dumps({**D1_SCHEME, "scheme": {
        "kind": "O", "form": [[1, 0], [0, 1]]}}),
     '"scheme" must be {"kind": "SL2"}'),
    ("--matrices", json.dumps({**D1_SCHEME, "matrices": {
        **D1_SCHEME["matrices"], "j": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]}}),
     "must be 2x2"),
    ("--presentation", b"# provenance: test\ngens a\xff; rels a^2;",
     "is not UTF-8 text"),
    ("--presentation", b"# provenance: test\ngens a; rels a^10000000;",
     "exceeds the limit"),
    ("--presentation", b"# provenance: test\ngens a, b; rels "
     + b"[" * 18 + b"a,b]" + b",b]" * 17 + b";", "exceeds the limit"),
    ("--presentation", b"# provenance: test\ngens a; rels "
     + b", ".join([b"a^60000"] * 2) + b";", "relators total"),
], ids=["letters", "zero-denominator", "boolean", "boolean-ring",
        "su-scheme", "o-scheme", "three-by-three", "not-utf8", "huge-power",
        "nested-commutators", "huge-total"])
def test_malformed_file_exits_input(tmp_path, flag, content, message):
    code, err = _homology_on(tmp_path, flag, content)
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and message in err


def _with_matrix(name, rows):
    payload = json.loads(json.dumps(D1_SCHEME))
    payload["matrices"][name] = rows
    return json.dumps(payload)


# the SL2(Z[i]) presentation with j = -Id adjoined: it carries the centre
# already, so its central lift would present SL2 x Z/2
SL2_D1 = ("# provenance: test\ngens a, b, u, j;\n"
          "rels (a*b)^3*j^-1, b^2*j^-1, j^2, [a,u], (b*u*b*u^-1)^3, "
          "(b*u^2*b*u^-1)^2*j^-1, (a*u*b*a*u^-1*b)^2*j^-1, [a,j], [u,j];")


@pytest.mark.parametrize("flag, content, message", [
    ("--presentation", "# provenance: test\ngens a, b, u; rels b^2, a;",
     "relator (1,) is neither Id nor -Id"),
    ("--matrices", _with_matrix("a", [[1, 2], [0, 1]]),
     "is neither Id nor -Id"),
    ("--presentation", SL2_D1, "generator 'j' has the matrix +-Id"),
    ("--matrices", _with_matrix("u", [[-1, 0], [0, -1]]),
     "generator 'u' has the matrix +-Id"),
    ("--matrices", _with_matrix("u", [[1, 0], [0, 1]]),
     "generator 'u' has the matrix +-Id"),
], ids=["relator-presentation", "relator-matrices", "sl2-presentation",
        "minus-id-matrix", "id-matrix"])
def test_input_without_a_central_lift_exits_input(tmp_path, flag, content,
                                                  message):
    code, err = _homology_on(tmp_path, flag, content)
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and message in err


def test_presentation_file_takes_psl2(capsys, tmp_path):
    # the bundled PSL2(Z[i]) file as --presentation: its row over 2 on the
    # central lift, its odd rows on the PSL2 image, as without the flag
    path = tmp_path / "psl2.pres"
    with open(homology.presentation_path("psl2_d1.pres")) as fh:
        path.write_text(fh.read())
    code, out = run_cli(capsys, "homology", "--norm-max", "5", "--format",
                        "json", "--presentation", str(path))
    assert code == 0
    assert out == run_cli(capsys, "homology", "--norm-max", "5", "--format",
                          "json")[1]
    assert [r["index"] for r in json.loads(out)["rows"]] == [6, 120]


def test_missing_presentation_file_exits_input(capsys, tmp_path, monkeypatch):
    # a data directory without the bundled presentations
    monkeypatch.setenv(homology.DATA_ENV_VAR, str(tmp_path))
    code = cli.main(["tower", "magic", "--steps", "2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("input error:") and "not found" in err


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
    # a scheme block that is not an object or names a kind other than SL2
    json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: _replace(["scheme"], v)),
    json_values.filter(lambda v: v != "SL2").map(
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
