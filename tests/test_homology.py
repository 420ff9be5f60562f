import pytest

from congtower import congsub, homology, ringmat
from congtower.intmat import AbelianInvariants, abelian_invariants, snf
from congtower.rings import make_ring


def test_bundled_presentations_parse_and_validate():
    for d, name in homology.PRESENTATION_FILES.items():
        assert homology.have_presentation(name)
        pres, mats = homology.sl2_presentation_and_matrices(d)
        assert pres.ngens == len(mats)
        # relators hold exactly on the matrices (checked by ReductionHom on
        # first use; spot check by direct evaluation here)
        ring = make_ring(d)
        ident = ringmat.identity(ring, 2)
        inverses = [ringmat.mat_inverse(m) for m in mats]
        for rel in pres.relators:
            val = congsub.evaluate_word(mats, inverses, rel, ident)
            assert ringmat.mat_eq(val, ident)
        if d != 1:
            assert pres.provenance  # ingested presentations carry provenance


def test_primes_up_to_norm_dedupes_conjugates():
    ring = make_ring(1)
    primes = homology.primes_up_to_norm(ring, 13)
    norms = [p.norm() for p in primes]
    assert norms == [2, 5, 9, 13]  # one per conjugacy class
    ring7 = make_ring(7)
    primes7 = homology.primes_up_to_norm(ring7, 11)
    norms7 = [p.norm() for p in primes7]
    assert norms7 == [2, 7, 9, 11]


def test_kernel_invariants_norm2(gaussian_prime2):
    pres, mats = homology.sl2_presentation_and_matrices(1)
    inv, order = homology.congruence_kernel_invariants(pres, mats,
                                                       gaussian_prime2)
    assert order == 6
    assert inv.free_rank == 0
    assert inv.torsion_factorization() == "2^5"


@pytest.mark.parametrize("d, norm, ngens, expected", [
    (3, 3, 97, "Z/3 x Z/3 x Z/3"),
    (11, 4, 181, "Z^15 x Z/2 x Z/2"),
])
def test_elimination_matches_dense_snf_on_relation_rows(d, norm, ngens,
                                                        expected):
    # real Reidemeister-Schreier rows whose torsion leaves a core for snf
    pres, mats = homology.sl2_presentation_and_matrices(d)
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
    assert not homology.have_presentation("sl2_d1.pres")
    monkeypatch.delenv(homology.DATA_ENV_VAR)
    assert homology.have_presentation("sl2_d1.pres")


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
