import random

from hypothesis import example, given, settings, strategies as st

from congtower import intmat
from congtower.intmat import AbelianInvariants, abelian_invariants, hnf, snf


def brute_force_lattice_points(rows, box):
    """Lattice points in a box, decided by exact 2x2 Cramer solves: an
    independent membership oracle (no HNF machinery)."""
    from fractions import Fraction
    (a, b), (c, d) = rows
    det = a * d - b * c
    assert det != 0
    pts = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            s = Fraction(x * d - y * c, det)
            t = Fraction(a * y - b * x, det)
            if s.denominator == 1 and t.denominator == 1:
                pts.add((x, y))
    return pts


def test_hnf_identity_and_zero():
    h, u = hnf([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    h, u = hnf([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]


def test_hnf_same_row_lattice():
    m = [[2, 4], [0, 3]]
    h, u = hnf(m)
    # U M = H with U unimodular
    prod = [[sum(u[i][k] * m[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == h
    det_u = u[0][0] * u[1][1] - u[0][1] * u[1][0]
    assert det_u in (1, -1)
    # brute-force oracle: identical lattice points in a box
    assert brute_force_lattice_points(m, 8) == brute_force_lattice_points(h, 8)


def test_hnf_canonical_reduction():
    h, _ = hnf([[2, 4], [0, 3]])
    piv_rows = [r for r in h if any(r)]
    for i, row in enumerate(piv_rows):
        c = next(j for j, v in enumerate(row) if v)
        assert row[c] > 0
        for r2 in range(i):
            assert 0 <= piv_rows[r2][c] < row[c]


def test_hnf_random_unimodular_and_membership(rng):
    for _ in range(100):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        h, u = hnf(m)
        prod = [[sum(u[i][k] * m[k][j] for k in range(len(m))) for j in range(3)]
                for i in range(len(m))]
        assert prod == h
        # every original row is in the row lattice of H
        square = [r for r in h if any(r)]
        if len(square) == 3 and all(square[i][i] for i in range(3)):
            for row in m:
                assert intmat.lattice_contains(square, row)


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]) == [1, 6]
    assert snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert snf([[2, 0], [0, 0]]) == [2]


def test_snf_gcd_lcm_oracle(rng):
    # on diag(a, b) the chain is (gcd, lcm)
    for _ in range(200):
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        import math
        assert snf([[a, 0], [0, b]]) == [math.gcd(a, b), a * b // math.gcd(a, b)]


def test_snf_divisibility_and_det(rng):
    for _ in range(80):
        m = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
        divs = snf(m)
        for i in range(len(divs) - 1):
            assert divs[i + 1] % divs[i] == 0
        det = _det4(m)
        if det:
            prod = 1
            for d in divs:
                prod *= d
            assert prod == abs(det)


def _det4(m):
    import itertools as it
    total = 0
    for perm in it.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(4):
            term *= m[i][perm[i]]
        total += term
    return total


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_snf_unimodular_invariance(rng):
    for _ in range(40):
        m = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        u = _random_unimodular(rng, 4)
        v = _random_unimodular(rng, 4)
        um = [[sum(u[i][k] * m[k][j] for k in range(4)) for j in range(4)]
              for i in range(4)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(4)) for j in range(4)]
               for i in range(4)]
        assert snf(umv) == snf(m)


def test_snf_idempotence(rng):
    for _ in range(30):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        divs = snf(m)
        diag = [[divs[i] if i == j and i < len(divs) else 0 for j in range(3)]
                for i in range(3)]
        assert snf(diag) == divs
    h, _ = hnf([[2, 4], [0, 3]])
    h2, _ = hnf(h)
    assert h == h2


def test_abelian_invariants_basics():
    inv = abelian_invariants([[2, 2]], 2)
    assert inv.free_rank == 1 and inv.torsion == (2,)
    inv = abelian_invariants([], 5)
    assert inv == AbelianInvariants(5, ())
    inv = abelian_invariants([[0, 2, 0], [3, 3, 0], [0, 4, 0]], 3)
    assert inv.free_rank == 1 and inv.torsion == (2, 3)


def test_abelian_invariants_row_col_ops_invariance(rng):
    for _ in range(40):
        rows = [[rng.randint(-8, 8) for _ in range(4)] for _ in range(5)]
        base = abelian_invariants(rows, 4)
        u = _random_unimodular(rng, 5)
        mixed = [[sum(u[i][k] * rows[k][j] for k in range(5)) for j in range(4)]
                 for i in range(5)]
        assert abelian_invariants(mixed, 4) == base


def test_sparse_path_matches_dense(rng):
    for _ in range(10):
        rows = [[rng.randint(-4, 4) if rng.random() < 0.3 else 0
                 for _ in range(30)] for _ in range(40)]
        dense = AbelianInvariants.from_divisors(30, snf([r for r in rows if any(r)]) if any(any(r) for r in rows) else [])
        sparse = abelian_invariants([r for r in rows if any(r)], 30)
        assert sparse == dense
    # A larger seeded case.  Rows of mostly +-1 entries on the first 116
    # columns: eliminations shorten rows below the length being drained, so
    # they are filed again.  30 duplicate rows.  Six rows with even entries
    # only, each with one on the last 4 columns: they never get a unit, so
    # a torsion core is left for snf.
    r = random.Random(2)
    ncols, free = 120, 116
    rows = []
    for _ in range(300):
        row = [0] * ncols
        for j in r.sample(range(free), r.randint(2, 6)):
            row[j] = r.choice((1, -1, 1, -1, 1, -1, 2, -3))
        rows.append(row)
    rows += [list(rows[r.randrange(300)]) for _ in range(30)]
    for _ in range(6):
        row = [0] * ncols
        for j in r.sample(range(ncols), 3) + r.sample(range(free, ncols), 1):
            row[j] = r.choice((2, -2, 4, 6))
        rows.append(row)
    r.shuffle(rows)
    dense = AbelianInvariants.from_divisors(ncols, snf(rows))
    assert dense == AbelianInvariants(0, (2, 2, 2, 3, 4))
    assert abelian_invariants(rows, ncols) == dense


@st.composite
def relation_matrices(draw):
    """(rows, ncols): small integer rows, mostly zero, with non-unit
    entries, plus duplicated and all-zero rows mixed in."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=6))
    if rows:
        rows += [rows[i] for i in draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=2))]
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(relation_matrices())
@example(([[1, 0, 0]], 3))
@example(([[2, 0], [0, 0], [2, 0], [0, 3]], 2))
@example(([[0, 0, 0]], 3))
def test_abelian_invariants_match_dense_snf(case):
    rows, ncols = case
    expected = AbelianInvariants.from_divisors(ncols, snf(rows))
    assert abelian_invariants(rows, ncols) == expected
    dict_rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in dict_rows]
    assert abelian_invariants(dict_rows, ncols) == expected
    assert dict_rows == before  # the caller's rows are left untouched


def test_torsion_formatting():
    inv = AbelianInvariants(0, (2, 2, 2, 2, 2))
    assert inv.torsion_factorization() == "2^5"
    inv = AbelianInvariants(3, (4,))
    assert inv.torsion_factorization() == "2^2"
    inv = AbelianInvariants(2, ())
    assert inv.torsion_factorization() == "1"
    assert str(inv) == "Z^2"
    assert inv.has_p_torsion(2) is False
    assert AbelianInvariants(0, (2,)).has_p_torsion(2) is True
    assert AbelianInvariants(0, (9,)).has_p_torsion(3) is True


def test_solve_integer_linear():
    sol = intmat.solve_integer_linear([[2, 0], [0, 3]], [4, 9])
    assert sol == [2, 3]
    assert intmat.solve_integer_linear([[2]], [3]) is None
    sol = intmat.solve_integer_linear([[2, 3]], [1])
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1
