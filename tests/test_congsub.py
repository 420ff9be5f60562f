import pytest

from congtower import catalog, congsub
from congtower.errors import BudgetExceeded, InputError
from congtower.rings import factor_rational_prime, make_ring, residue_ring


def sl2_images(ring, prime, k=1):
    R = residue_ring(prime, k)
    gens = catalog.sl2_gen_matrices(ring)
    return R, [congsub.reduce_matrix(R, gens[k_]) for k_ in "abuj"]


def test_closure_sl2_f2(gaussian_prime2):
    R, imgs = sl2_images(make_ring(1), gaussian_prime2)
    els = congsub.group_closure(R, imgs)
    assert len(els) == 6


def test_closure_sl2_f5():
    ring = make_ring(1)
    prime = factor_rational_prime(ring, 5)[0]
    R, imgs = sl2_images(ring, prime)
    els = congsub.group_closure(R, imgs)
    assert len(els) == 120
    assert len(els) == prime.norm() * (prime.norm() ** 2 - 1)


def test_closure_generator_order_independence(gaussian_prime2):
    R, imgs = sl2_images(make_ring(1), gaussian_prime2)
    a = congsub.group_closure(R, imgs)
    b = congsub.group_closure(R, list(reversed(imgs)))
    assert a == b


def test_closure_budget():
    ring = make_ring(1)
    prime = factor_rational_prime(ring, 5)[0]
    R, imgs = sl2_images(ring, prime)
    with pytest.raises(BudgetExceeded):
        congsub.group_closure(R, imgs, budget=50)


def test_reduction_hom_rejects_bad_relators(gaussian_prime2):
    from congtower.presentations import parse_presentation
    pres = parse_presentation("gens a, b; rels a^2;")
    ring = make_ring(1)
    gens = catalog.sl2_gen_matrices(ring)
    with pytest.raises(InputError):
        congsub.ReductionHom(pres, [gens["a"], gens["b"]], gaussian_prime2, 1)


def test_reduction_hom_composition(gaussian_prime2):
    # reducing the level-2 hom to level 1 equals the direct level-1 hom
    from congtower import homology
    pres, mats = homology.sl2_presentation_and_matrices(1)
    hom2 = congsub.ReductionHom(pres, mats, gaussian_prime2, 2)
    hom1 = congsub.ReductionHom(pres, mats, gaussian_prime2, 1)
    lowered = congsub.compose_reduction(hom2, 1)
    assert lowered == hom1.images


def test_projective_hom_at_every_prime_over_5_and_13():
    # canonical images up to sign are compared with the canonical identity,
    # so both conjugate primes work whichever of +-Id is the smaller form
    from congtower import coset, homology
    ring = make_ring(1)
    pres = homology.bundled_presentation("psl2_d1.pres")
    mats = homology._matrices_for(pres, ring)
    homs = {}
    for p in (5, 13):
        for prime in factor_rational_prime(ring, p):
            hom = congsub.ReductionHom(pres, mats, prime, 1, projective=True)
            assert hom.order == p * (p * p - 1) // 2
            homs[str(prime.gens[-1])] = hom
    assert set(homs) == {"-1 + 2*sqrt(-1)", "1 + 2*sqrt(-1)",
                         "5 + sqrt(-1)", "8 + sqrt(-1)"}
    # -Id is not in Gamma(p) off 2, so the PSL2 and SL2 kernels agree:
    # the published SL2 row (norm 5, rank 6)
    hom = homs["1 + 2*sqrt(-1)"]
    table = coset.table_from_permutations(pres, hom.permutations())
    sub, _ = coset.reidemeister_schreier(pres, table)
    assert str(sub.abelianization()) == "Z^6"


def _right_products(hom):
    # the reference: form every element x generator product anew and look
    # up its position, as the permutations were built before the closure
    # recorded its action
    index = {m: i for i, m in enumerate(hom.elements)}
    return [tuple(index[hom._canon(congsub.rmat_mul(hom.R, m, g))]
                  for m in hom.elements)
            for g in hom.images]


def test_closure_records_the_right_action():
    # elements[perm[k][i]] == canon(elements[i] * images[k]) for all i, k,
    # with the canonical identity at position 0
    from congtower import homology
    ring = make_ring(1)
    psl2 = homology.bundled_presentation("psl2_d1.pres")
    cases = [
        (homology.sl2_presentation_and_matrices(1),
         factor_rational_prime(ring, 5)[0], False, 120),
        ((psl2, homology._matrices_for(psl2, ring)),
         next(q for q in factor_rational_prime(ring, 5)
              if str(q.gens[-1]) == "1 + 2*sqrt(-1)"), True, 60),
    ]
    for (pres, mats), prime, projective, order in cases:
        hom = congsub.ReductionHom(pres, mats, prime, 1, projective=projective)
        assert hom.order == len(hom.elements) == order
        assert hom.elements[0] == hom._canon(congsub.rmat_identity(hom.R, 2))
        assert hom.permutations() == _right_products(hom)


def test_quotient_check_elementary_abelian(gaussian_prime2):
    sch = congsub.SchemeSL(2)
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 1, 2)
    assert rep["order"] == 8
    assert rep["elementary_abelian"] and rep["exponent"] == 2
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 2, 3)
    assert rep["elementary_abelian"] and rep["exponent"] == 2
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 2, 4)
    assert rep["abelian"] and rep["order"] == 64 and rep["exponent"] == 2


def test_quotient_check_trivial_when_equal_levels(gaussian_prime2):
    sch = congsub.SchemeSL(2)
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 2, 2)
    assert rep["order"] == 1 and rep["elementary_abelian"]


def test_quotient_check_exponent_divides_p_next_level(zeta5_prime):
    # the p-group lemma at the ramified prime over 5, verified not assumed
    sch = congsub.SchemeSL(2)
    rep = congsub.congruence_quotient_check(sch, zeta5_prime, 1, 2)
    assert rep["order"] == 5 ** 3
    assert rep["elementary_abelian"] and rep["exponent"] == 5


def test_quotient_check_budget(zeta5_prime):
    sch = congsub.SchemeSL(2)
    with pytest.raises(BudgetExceeded):
        congsub.congruence_quotient_check(sch, zeta5_prime, 1, 4, budget=100)


def test_pu_identity_counts():
    out = congsub.pu_identity_congruent_count()
    assert out["lift_count"] == 5 ** 6
    assert out["scalar_count"] == 5
    assert out["pu_count"] == 5 ** 5


def test_orbit_fixed_point(gaussian_prime2):
    R = residue_ring(gaussian_prime2, 1)
    ident = congsub.rmat_identity(R, 2)
    v = (R.one, R.zero)
    assert congsub.orbit(R, [ident], v) == [v]


def test_orbit_size_divides_group_order():
    ring = make_ring(1)
    prime = factor_rational_prime(ring, 5)[0]
    R, imgs = sl2_images(ring, prime)
    els = congsub.group_closure(R, imgs)
    v = (R.one, R.zero)
    orb = congsub.orbit(R, imgs, v, action="vector")
    assert len(els) % len(orb) == 0
    lines = congsub.orbit(R, imgs, v, action="line")
    assert len(els) % len(lines) == 0
    assert len(lines) == 6  # P^1(F_5)


def test_form_preserving_scheme(gaussian_prime2):
    ring = make_ring(1)
    form = [[ring.one, ring.zero], [ring.zero, ring.one]]
    sch = congsub.SchemeFormPreserving(2, form, "bilinear")
    R = residue_ring(gaussian_prime2, 2)
    ident = congsub.rmat_identity(R, 2)
    assert sch.check(R, ident)
    swap = congsub.reduce_matrix(
        R, ((ring.zero, ring.one), (ring.one, ring.zero)))
    assert sch.check(R, swap)
    shear = congsub.reduce_matrix(
        R, ((ring.one, ring.one), (ring.zero, ring.one)))
    assert not sch.check(R, shear)
