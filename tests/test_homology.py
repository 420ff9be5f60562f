import os

import pytest

from congtower import catalog, congsub, homology, ringmat
from congtower.intmat import AbelianInvariants, abelian_invariants, snf
from congtower.rings import (PrimeIdeal, _is_small_prime,
                             factor_rational_prime, make_ring)


def test_bundled_presentations_parse_and_validate(sl2_lift):
    for d, name in homology.PRESENTATION_FILES.items():
        assert homology.have_presentation(name)
        psl2, psl2_mats = homology.psl2_presentation_and_matrices(d)
        pres, mats = sl2_lift(d)
        assert psl2.ngens == len(psl2_mats) and pres.ngens == len(mats)
        assert pres.generators == psl2.generators + ("j",)
        # relators hold exactly on the matrices (checked by ReductionHom on
        # first use; spot check by direct evaluation here): up to sign on
        # PSL2, exactly on its lift
        ring = make_ring(d)
        ident = ringmat.identity(ring, 2)
        minus = ringmat.mat_scale(ident, -1)
        for group, gens in ((psl2, psl2_mats), (pres, mats)):
            inverses = [ringmat.mat_inverse(m) for m in gens]
            values = [congsub.evaluate_word(gens, inverses, rel, ident)
                      for rel in group.relators]
            assert all(v == ident or (group is psl2 and v == minus)
                       for v in values)
        if d != 1:
            assert pres.provenance  # ingested presentations carry provenance


def test_data_dir_holds_exactly_the_read_presentations():
    # a data file that no code path reads does not come back
    listed = os.listdir(os.path.join(homology.data_dir(), "presentations"))
    assert sorted(listed) == sorted(homology.PRESENTATION_FILES.values())


def test_central_lift_of_d1(sl2_lift):
    # the sign of each relator on the matrices picks r or r j^-1
    pres, mats = sl2_lift(1)
    j = 4
    assert pres.relators == (
        (2, 2, -j), (1, 2, 1, 2, 1, 2, -j), (1, 3, -1, -3),
        (2, 3, 2, -3) * 3, (2, 3, 3, 2, -3) * 2 + (-j,),
        (1, 3, 2, 1, -3, 2) * 2 + (-j,),
        (j, j), (1, j, -1, -j), (2, j, -2, -j), (3, j, -3, -j))
    assert mats[-1] == catalog.sl2_gen_matrices(make_ring(1))["j"]


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
    psl2, psl2_mats = homology.psl2_presentation_and_matrices(d)
    sl2, sl2_mats = sl2_lift(d)
    over_2 = {}
    for prime in homology.primes_up_to_norm(make_ring(d), 13):
        order, sub, _ = homology.kernel_presentation(sl2, sl2_mats, prime)
        assert order == homology.sl2_image_order(prime.norm())
        if prime.p == 2:
            inv = sub.abelianization()
            over_2[(d, prime.norm())] = (inv.free_rank,
                                         inv.torsion_factorization())
            continue
        porder, psub, _ = homology.kernel_presentation(
            psl2, psl2_mats, prime, projective=True)
        assert 2 * porder == order
        assert psub.abelianization() == sub.abelianization()
    assert over_2 == {k: v for k, v in ROWS_OVER_2.items() if k[0] == d}


def test_kernel_invariants_norm2(gaussian_prime2, sl2_lift):
    pres, mats = sl2_lift(1)
    order, sub, _ = homology.kernel_presentation(pres, mats, gaussian_prime2)
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
    pres, mats = sl2_lift(d)
    prime, = [q for q in homology.primes_up_to_norm(make_ring(d), norm)
              if q.norm() == norm]
    _, sub, _ = homology.kernel_presentation(pres, mats, prime)
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
    assert not homology.have_presentation("psl2_d1.pres")
    monkeypatch.delenv(homology.DATA_ENV_VAR)
    assert homology.have_presentation("psl2_d1.pres")


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
