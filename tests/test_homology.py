import os

import pytest

from congtower import catalog, congsub, homology, ringmat
from congtower.errors import InputError
from congtower.intmat import AbelianInvariants, abelian_invariants, snf
from congtower.rings import (PrimeIdeal, _is_small_prime,
                             factor_rational_prime, make_ring)


def _evaluate(mats, word, ident):
    # the oracle: a word's matrix by products in turn, the inverses by
    # ringmat.mat_inverse
    out = ident
    for letter in word:
        m = mats[abs(letter) - 1]
        out = ringmat.mat_mul(out, m if letter > 0 else ringmat.mat_inverse(m))
    return out


def test_bundled_presentations_parse_and_validate(sl2_lift):
    for d, name in homology.PRESENTATION_FILES.items():
        assert os.path.exists(homology.presentation_path(name))
        psl2 = homology.psl2_realization(d)
        lift = sl2_lift(d)
        assert psl2.pres.ngens == len(psl2.matrices)
        assert lift.pres.ngens == len(lift.matrices)
        assert lift.pres.generators == psl2.pres.generators + ("j",)
        # relators hold exactly on the matrices (checked by Realization;
        # recomputed by direct evaluation here): up to sign on PSL2,
        # exactly on its lift, and the signs are the values
        ring = make_ring(d)
        ident = ringmat.identity(ring, 2)
        minus = ringmat.mat_scale(ident, -1)
        for group in (psl2, lift):
            values = [_evaluate(group.matrices, rel, ident)
                      for rel in group.pres.relators]
            assert all(v == ident or (group is psl2 and v == minus)
                       for v in values)
            assert group.signs == tuple(1 if v == ident else -1
                                        for v in values)
        if d != 1:
            assert lift.pres.provenance  # ingested presentations carry provenance


def test_projective_is_some_relator_at_minus_id(sl2_lift):
    # in PSL2(O_d) b = [[0,-1],[1,0]] has order 2, and any lift to SL2 of
    # an element of order 2 squares to -Id: every PSL2 presentation has a
    # -Id relator.  Its central lift and the reflection group have none.
    for d in homology.PRESENTATION_FILES:
        assert homology.psl2_realization(d).projective
        assert not sl2_lift(d).projective
    stage1 = congsub.Realization(homology.coxeter_presentation(),
                                 catalog.o41_reflections())
    assert set(stage1.signs) == {1} and not stage1.projective


def test_a_table_evaluates_each_relator_once(monkeypatch):
    # the relators of the presentation and of its lift are evaluated once
    # per table, whatever the number of rows
    calls = []
    mat_mul = ringmat.mat_mul

    def counting(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(ringmat, "mat_mul", counting)
    counts = []
    for norm_max in (9, 13):
        del calls[:]
        rows, _ = homology.homology_table(1, norm_max)
        counts.append((len(rows), len(calls)))
    assert counts[0][0] == 3 and counts[1][0] == 4
    assert counts[0][1] == counts[1][1]


def test_data_dir_holds_exactly_the_read_presentations():
    # a data file that no code path reads does not come back
    listed = os.listdir(os.path.join(homology.data_dir(), "presentations"))
    assert sorted(listed) == sorted(homology.PRESENTATION_FILES.values())


def test_central_lift_of_d1(sl2_lift):
    # the sign of each relator on the matrices picks r or r j^-1
    lift = sl2_lift(1)
    j = 4
    assert lift.pres.relators == (
        (2, 2, -j), (1, 2, 1, 2, 1, 2, -j), (1, 3, -1, -3),
        (2, 3, 2, -3) * 3, (2, 3, 3, 2, -3) * 2 + (-j,),
        (1, 3, 2, 1, -3, 2) * 2 + (-j,),
        (j, j), (1, j, -1, -j), (2, j, -2, -j), (3, j, -3, -j))
    assert lift.matrices[-1] == catalog.sl2_gen_matrices(make_ring(1))["j"]
    assert lift.signs == (1,) * 10


def test_primes_up_to_norm_dedupes_conjugates():
    ring = make_ring(1)
    primes = homology.primes_up_to_norm(ring, 13)
    norms = [p.norm() for p in primes]
    assert norms == [2, 5, 9, 13]  # one per conjugacy class
    ring7 = make_ring(7)
    primes7 = homology.primes_up_to_norm(ring7, 11)
    norms7 = [p.norm() for p in primes7]
    assert norms7 == [2, 7, 9, 11]


def _conjugate_dedup(ideals):
    """Reference: keep a prime unless it or its complex conjugate is
    already kept, comparing the lattices of the ideals."""
    out = []
    seen = set()
    for ideal in ideals:
        key = ideal.power_lattice(1)
        if key in seen:
            continue
        conj = PrimeIdeal(ideal.ring, ideal.p, ideal.pi.conj(), ideal.e,
                          ideal.f)
        seen.update((key, conj.power_lattice(1)))
        out.append(ideal)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_primes_up_to_norm_match_conjugate_dedup(d):
    ring = make_ring(d)
    expected = sorted(
        (q for p in range(2, 101) if _is_small_prime(p)
         for q in _conjugate_dedup(factor_rational_prime(ring, p))
         if q.norm() <= 100),
        key=lambda q: (q.norm(), q.power_lattice(1)))

    def summary(q):
        return q.p, q.norm(), q.power_lattice(1), q.pi

    assert [summary(q) for q in homology.primes_up_to_norm(ring, 100)] == \
        [summary(q) for q in expected]


# the rows over 2 of the SL2 lift: published, and d=3 PINNED (no
# published value) as the benchmark pins it
ROWS_OVER_2 = {(1, 2): (0, "2^5"), (2, 2): (3, "2^2"), (3, 4): (5, "2"),
               (7, 2): (3, "2"), (11, 4): (15, "2^2")}


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_psl2_rows_equal_the_lifted_sl2_rows(d, sl2_lift):
    # off 2, -Id is not in Gamma(p), so the level-p kernels of SL2 and PSL2
    # are the same group; over 2 the lift gives the published SL2 row
    psl2 = homology.psl2_realization(d)
    sl2 = sl2_lift(d)
    over_2 = {}
    for prime in homology.primes_up_to_norm(make_ring(d), 13):
        order, sub, _ = homology.kernel_presentation(sl2, prime)
        assert order == homology.sl2_image_order(prime.norm())
        if prime.p == 2:
            inv = sub.abelianization()
            over_2[(d, prime.norm())] = (inv.free_rank,
                                         inv.torsion_factorization())
            continue
        porder, psub, _ = homology.kernel_presentation(psl2, prime)
        assert 2 * porder == order
        assert psub.abelianization() == sub.abelianization()
    assert over_2 == {k: v for k, v in ROWS_OVER_2.items() if k[0] == d}


def test_kernel_invariants_norm2(gaussian_prime2, sl2_lift):
    order, sub, _ = homology.kernel_presentation(sl2_lift(1), gaussian_prime2)
    inv = sub.abelianization()
    assert order == 6
    assert inv.free_rank == 0
    assert inv.torsion_factorization() == "2^5"


def test_each_row_closure_is_bounded_by_its_image_order(monkeypatch):
    budgets = []
    closure = congsub.group_closure

    def recording(R, gens, budget, canon=None):
        budgets.append(budget)
        return closure(R, gens, budget, canon)

    monkeypatch.setattr(congsub, "group_closure", recording)
    rows, _ = homology.homology_table(1, 9)
    assert [r.norm for r in rows] == [2, 5, 9]
    # SL2 over 2, PSL2 off 2; the reported index stays |SL2(F_q)|
    assert budgets == [6, 60, 360]
    assert [r.index for r in rows] == \
        [homology.sl2_image_order(r.norm) for r in rows] == [6, 120, 720]


@pytest.mark.parametrize("d, norm, ngens, expected", [
    (3, 3, 97, "Z/3 x Z/3 x Z/3"),
    (11, 4, 181, "Z^15 x Z/2 x Z/2"),
])
def test_elimination_matches_dense_snf_on_relation_rows(d, norm, ngens,
                                                        expected, sl2_lift):
    # real Reidemeister-Schreier rows whose torsion leaves a core for snf
    prime, = [q for q in homology.primes_up_to_norm(make_ring(d), norm)
              if q.norm() == norm]
    _, sub, _ = homology.kernel_presentation(sl2_lift(d), prime)
    rows = sub.relation_matrix()
    assert sub.ngens == ngens
    dense = [[row.get(j, 0) for j in range(ngens)] for row in rows]
    oracle = AbelianInvariants.from_divisors(ngens, snf(dense))
    assert str(oracle) == expected
    assert abelian_invariants(rows, ngens) == oracle


def test_homology_table_skips_above_cap():
    rows, skipped = homology.homology_table(1, 13, index_cap=500)
    norms = [r.norm for r in rows]
    assert norms == [2, 5]
    assert [s["norm"] for s in skipped] == [9, 13]


def test_data_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(homology.DATA_ENV_VAR, str(tmp_path))
    assert homology.data_dir() == str(tmp_path)
    with pytest.raises(InputError, match="not found"):
        homology.bundled_presentation("psl2_d1.pres")
    monkeypatch.delenv(homology.DATA_ENV_VAR)
    assert homology.bundled_presentation("psl2_d1.pres").ngens == 3


def test_image_order_formula():
    assert homology.sl2_image_order(2) == 6
    assert homology.sl2_image_order(5) == 120
    assert homology.sl2_image_order(9) == 720
    assert homology.sl2_image_order(13) == 2184


def test_coxeter_presentation_shape():
    pres = homology.coxeter_presentation()
    assert pres.ngens == 5
    # 5 involutions + 10 pair relations
    assert len(pres.relators) == 15
