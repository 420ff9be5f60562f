import json
from fractions import Fraction

import pytest

from congtower import catalog, congsub, ringmat
from congtower.errors import InputError
from congtower.rings import factor_rational_prime, make_ring


def test_mat_mul_and_inverse():
    ring = make_ring(1)
    m = ringmat.mat(ring, [[1, 2], [0, 1]])
    mi = ringmat.mat_inverse(m)
    assert ringmat.mat_eq(ringmat.mat_mul(m, mi), ringmat.identity(ring, 2))
    with pytest.raises(InputError):
        ringmat.mat_inverse(ringmat.mat(ring, [[1, 1], [1, 1]]))


def test_det_values():
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()
    m = ((z, ring.zero), (ring.zero, z ** 4))
    assert ringmat.det(m) == ring.one
    g0 = catalog.pu21_swap()
    assert ringmat.det(g0) == ring.one


def test_preserves_form_kinds_and_errors():
    ring = make_ring(1)
    form = ringmat.mat(ring, [[1, 0], [0, 1]])
    rot = ringmat.mat(ring, [[0, -1], [1, 0]])
    assert ringmat.preserves_form(rot, form, "bilinear")
    # i * rotation is unitary but not orthogonal over Z[i]
    i = ring.gen()
    scaled = ringmat.mat_scale(rot, i)
    assert not ringmat.preserves_form(scaled, form, "bilinear")
    assert ringmat.preserves_form(scaled, form, "hermitian")
    with pytest.raises(InputError):
        ringmat.preserves_form(rot, form, "sesquilinear")
    other = ringmat.mat(make_ring(2), [[1, 0], [0, 1]])
    with pytest.raises(InputError):
        ringmat.preserves_form(rot, other, "bilinear")


def test_congruent_to_identity(gaussian_prime2):
    ring = make_ring(1)
    m = ringmat.mat(ring, [[1, 2], [2, 1]])
    assert ringmat.congruent_to_identity(m, gaussian_prime2, 2)
    assert not ringmat.congruent_to_identity(m, gaussian_prime2, 3)


@pytest.mark.parametrize("example", ["o41", "pu21"])
def test_congruent_to_identity_matches_valuations(example):
    # one lattice membership per entry answers as the full valuation does,
    # fractional entries included: 1/2 in o41_swap, conj(pi)^-1 in pu21_swap
    if example == "o41":
        swap = catalog.o41_swap()
        prime = factor_rational_prime(make_ring("rational"), 2)[0]
    else:
        swap = catalog.pu21_swap()
        prime = catalog.pu21_ring_and_prime()[1]
    ring = swap[0][0].ring
    p = ring(prime.p)
    entries = {x for row in swap for x in row}
    values = {y for x in entries for y in (x, x * p, x * p * p, x / p, x + 1)}
    seen = set()
    for x in values:
        m = ((ring.one + x,),)
        for level in range(5):
            expected = prime.valuation(x) >= level
            assert ringmat.congruent_to_identity(m, prime, level) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_json_roundtrip_integral_and_fractional():
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()
    m = ((z + 1, ring.zero), (ring.one / 2, z ** 3 * Fraction(3, 7)))
    payload = ringmat.matrix_to_json(m)
    text = json.dumps(payload)
    back = ringmat.matrix_from_json(json.loads(text))
    assert ringmat.mat_eq(m, back)
    # rational shortcut entries
    obj = {"ring": "rational", "rows": [[1, "1/2"], [0, 3]]}
    m2 = ringmat.matrix_from_json(obj)
    assert m2[0][1] == make_ring("rational")(Fraction(1, 2))


def test_load_matrix_file(tmp_path):
    ring = make_ring(7)
    m = catalog.magic_swap()
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(ringmat.matrix_to_json(m)))
    back = ringmat.load_matrix_file(str(path))
    assert ringmat.mat_eq(m, back)


def test_scheme_file_roundtrip(tmp_path):
    ring = make_ring(1)
    gens = catalog.sl2_gen_matrices(ring)
    payload = {
        "ring": "d=1",
        "scheme": {"kind": "SL2"},
        "matrices": {k: ringmat.matrix_to_json(v)["rows"]
                     for k, v in gens.items()},
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(payload))
    file_ring, scheme, named = congsub.load_scheme_file(str(path))
    assert file_ring == ring
    assert scheme.name == "SL"
    assert set(named) == {"a", "b", "u", "j"}
    assert ringmat.mat_eq(named["a"], gens["a"])


def test_scheme_file_form_kind(tmp_path):
    payload = {
        "ring": "rational",
        "scheme": {"kind": "O",
                   "form": ringmat.matrix_to_json(catalog.q0_form())["rows"]},
        "matrices": {"r%d" % i: ringmat.matrix_to_json(m)["rows"]
                     for i, m in enumerate(catalog.o41_reflections())},
    }
    path = tmp_path / "o.json"
    path.write_text(json.dumps(payload))
    ring, scheme, named = congsub.load_scheme_file(str(path))
    assert scheme.kind == "bilinear" and scheme.n == 5
    from congtower.rings import factor_rational_prime, residue_ring
    prime = factor_rational_prime(ring, 2)[0]
    R = residue_ring(prime, 1)
    for m in named.values():
        assert scheme.check(R, congsub.reduce_matrix(R, m))


def test_reflection_data_file_is_validated(tmp_path, monkeypatch):
    # corrupting the data file must be caught on load
    import json as _json
    import os
    from congtower import homology
    src = os.path.join(homology.data_dir(), "matrices", "o41_reflections.json")
    with open(src, encoding="utf-8") as fh:
        payload = _json.load(fh)
    payload["matrices"][0][0][0] = 5
    (tmp_path / "matrices").mkdir()
    (tmp_path / "matrices" / "o41_reflections.json").write_text(
        _json.dumps(payload))
    monkeypatch.setenv(homology.DATA_ENV_VAR, str(tmp_path))
    with pytest.raises(InputError, match="integrality or form"):
        catalog.o41_reflections()
