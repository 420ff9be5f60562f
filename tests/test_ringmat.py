import functools
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congtower import catalog, homology, ringmat, rings
from congtower.errors import InputError
from congtower.rings import make_ring


def test_mat_mul_and_inverse():
    ring = make_ring(1)
    m = ringmat.mat(ring, [[1, 2], [0, 1]])
    mi = ringmat.mat_inverse(m)
    assert ringmat.mat_eq(ringmat.mat_mul(m, mi), ringmat.identity(ring, 2))
    with pytest.raises(InputError):
        ringmat.mat_inverse(ringmat.mat(ring, [[1, 1], [1, 1]]))


RINGS = [make_ring(spec) for spec in ("rational", 1, 7, "cyclotomic-5")]
RINGS.append(rings.NumberRing(rings.SQRT_1_PLUS_SQRT5))


def fold_mat_mul(a, b):
    """Each entry as the left fold of RingElt * and + over its terms: the
    reference for the fused product."""
    return tuple(
        tuple(functools.reduce(operator.add, (x * y for x, y in zip(row, col)))
              for col in zip(*b))
        for row in a)


# zero entries, and denominators mixed within a row and a column
entry_coords = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 5, 7, 12])))


@st.composite
def product_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    n, m, k = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(ring(tuple(draw(entry_coords) for _ in range(ring.degree)))
                           for _ in range(cols)) for _ in range(rows))

    return matrix(n, m), matrix(m, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(product_cases())
def test_mat_mul_matches_the_entrywise_fold(case):
    a, b = case
    assert ringmat.mat_mul(a, b) == fold_mat_mul(a, b)


def test_mat_mul_two_by_two_times_column():
    ring = make_ring(7)
    w = ring.gen()
    a = ((w / 2, ring.zero), (ring(Fraction(1, 3)), w * w / 6))
    b = ((ring(Fraction(3, 4)),), (w / 5,))
    got = ringmat.mat_mul(a, b)
    assert len(got) == 2 and all(len(row) == 1 for row in got)
    assert got == fold_mat_mul(a, b)
    assert got[0][0] == w * 3 / 8


def test_mat_mul_builds_one_ringelt_per_entry(monkeypatch):
    # an n x m by m x k product constructs exactly n * k RingElts
    cases = []
    for ring in RINGS:
        x = ring.gen()
        pool = [x / 2, ring.zero, ring.one, x * x / 3, x + 1, ring(Fraction(5, 4))]
        for n, m, k in ((2, 2, 1), (3, 4, 2), (5, 5, 5), (1, 3, 1)):
            a = tuple(tuple(pool[(i * m + t) % 6] for t in range(m)) for i in range(n))
            b = tuple(tuple(pool[(t * k + j + 1) % 6] for j in range(k)) for t in range(m))
            cases.append((a, b, n * k))
    built = []
    init = rings.RingElt.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(rings.RingElt, "__init__", counting)
    for a, b, entries in cases:
        del built[:]
        ringmat.mat_mul(a, b)
        assert len(built) == entries


def test_mat_mul_refuses_mixed_rings():
    a = ringmat.identity(make_ring(1), 2)
    with pytest.raises(InputError):
        ringmat.mat_mul(a, ringmat.identity(make_ring(7), 2))


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


def test_json_roundtrip_integral_and_fractional():
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()
    m = ((z + 1, ring.zero), (ring.one / 2, z ** 3 * Fraction(3, 7)))
    # coordinates in the basis 1, z, z^2, z^3; a lone constant coordinate
    # may be written as a scalar
    text = '[[[1, 1, 0, 0], 0], ["1/2", [0, 0, 0, "3/7"]]]'
    back = ringmat.matrix_from_json(json.loads(text), ring)
    assert ringmat.mat_eq(m, back)
    # rational shortcut entries
    rational = make_ring("rational")
    m2 = ringmat.matrix_from_json([[1, "1/2"], [0, 3]], rational)
    assert m2[0][1] == rational(Fraction(1, 2))
    for rows in ([], [[1, 2]], [[1], [2]], "rows", [[True]], [["x"]], [[{}]]):
        with pytest.raises(InputError):
            ringmat.matrix_from_json(rows, rational)


# the d=1 generator matrices as a generator-matrices file
D1_MATRICES = {"a": [[1, 1], [0, 1]], "b": [[0, -1], [1, 0]],
               "u": [[1, [0, 1]], [0, 1]], "j": [[-1, 0], [0, -1]]}


def test_scheme_file_roundtrip(tmp_path):
    ring = make_ring(1)
    gens = catalog.sl2_gen_matrices(ring)
    path = tmp_path / "sl2.json"
    for payload in ({"ring": "d=1", "matrices": D1_MATRICES},
                    {"ring": "d=1", "scheme": {"kind": "SL2"},
                     "matrices": D1_MATRICES}):
        path.write_text(json.dumps(payload))
        file_ring, named = homology.load_generator_matrices(str(path))
        assert file_ring == ring
        assert set(named) == {"a", "b", "u", "j"}
        for name, m in named.items():
            assert ringmat.mat_eq(m, gens[name])


def test_scheme_file_form_kind(tmp_path):
    # form-preserving schemes are not read: a file that names one, or any
    # scheme block but {"kind": "SL2"}, is refused
    path = tmp_path / "o.json"
    form = [[1, 0], [0, 1]]
    for scheme in ({"kind": "O", "form": form},
                   {"kind": "SU", "form": form, "special": True},
                   {"kind": "sl2"}, {}, "SL2"):
        path.write_text(json.dumps({"ring": "d=1", "scheme": scheme,
                                    "matrices": D1_MATRICES}))
        with pytest.raises(InputError, match='"scheme"'):
            homology.load_generator_matrices(str(path))
