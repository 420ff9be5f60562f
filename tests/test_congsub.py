import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from congtower import catalog, congsub, ringmat
from congtower.errors import BudgetExceeded, InputError
from congtower.rings import ResidueRing, factor_rational_prime, make_ring


def sl2_images(ring, prime, k=1):
    R = ResidueRing(prime, k)
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


def test_realization_rejects_bad_input():
    # every refusal happens when the presentation meets its matrices
    from congtower.presentations import parse_presentation
    pres = parse_presentation("gens a, b; rels a^2;")
    ring = make_ring(1)
    gens = catalog.sl2_gen_matrices(ring)
    with pytest.raises(InputError, match="one matrix per generator"):
        congsub.Realization(pres, [gens["a"]])
    half = ringmat.mat(ring, [[ring(1) / 2, 0], [0, 2]])
    double = ringmat.mat(ring, [[2, 0], [0, 1]])
    for bad in (half, double):      # not integral; inverse not integral
        with pytest.raises(InputError, match="integral with integral inverse"):
            congsub.Realization(pres, [bad, gens["b"]])
    with pytest.raises(InputError, match=r"relator \(1, 1\) is neither Id "
                                         "nor -Id on the matrices"):
        congsub.Realization(pres, [gens["a"], gens["b"]])
    # b^2 = (ab)^3 = -Id and (ab)^6 = Id: one sign per relator
    group = congsub.Realization(
        parse_presentation("gens a, b; rels b^2, (a*b)^3, (a*b)^6;"),
        [gens["a"], gens["b"]])
    assert group.signs == (-1, -1, 1) and group.projective


@pytest.mark.parametrize("perturbed", range(4))
def test_perturbed_image_fails_the_coset_table(gaussian_prime2, monkeypatch,
                                               sl2_lift, perturbed):
    # one reduced generator image times [[1,1],[0,1]]: the relators hold
    # exactly on the matrices, and the coset table built from the images'
    # action refuses the relator that no longer traces
    from congtower import homology
    group = sl2_lift(1)
    assert group.pres.ngens == 4
    calls = []
    reduce = congsub.reduce_matrix

    def perturb(R, m):
        out = reduce(R, m)
        calls.append(m)
        if len(calls) == perturbed + 1:
            out = congsub.rmat_mul(R, out, reduce(R, ((1, 1), (0, 1))))
        return out

    monkeypatch.setattr(congsub, "reduce_matrix", perturb)
    with pytest.raises(InputError, match="relator fails"):
        homology.kernel_presentation(group, gaussian_prime2)


def test_reduction_hom_composition(gaussian_prime2, sl2_lift):
    # reducing the level-2 hom to level 1 equals the direct level-1 hom
    from congtower import homology
    group = sl2_lift(1)
    hom2 = congsub.ReductionHom(group, gaussian_prime2, 2)
    hom1 = congsub.ReductionHom(group, gaussian_prime2, 1)
    # p^2 lies in p, so reducing level-2 representatives gives level 1
    reps2 = list(hom2.R.elements())
    lowered = [tuple(hom1.R.index(hom1.R.reduce_coords(reps2[x])) for x in img)
               for img in hom2.images]
    assert lowered == hom1.images


def test_projective_hom_at_every_prime_over_5_and_13():
    # canonical images up to sign are compared with the canonical identity,
    # so both conjugate primes work whichever of +-Id is the smaller form
    from congtower import coset, homology
    ring = make_ring(1)
    group = homology.psl2_realization(1)
    pres = group.pres
    assert group.projective
    homs = {}
    for p in (5, 13):
        for prime in factor_rational_prime(ring, p):
            hom = congsub.ReductionHom(group, prime, 1)
            assert hom.projective
            assert hom.order == p * (p * p - 1) // 2
            homs[str(prime.pi)] = hom
    assert set(homs) == {"-1 + 2*sqrt(-1)", "1 + 2*sqrt(-1)",
                         "-2 + 3*sqrt(-1)", "2 + 3*sqrt(-1)"}
    # -Id is not in Gamma(p) off 2, so the PSL2 and SL2 kernels agree:
    # the published SL2 row (norm 5, rank 6)
    hom = homs["1 + 2*sqrt(-1)"]
    table = coset.table_from_permutations(pres, hom.permutations())
    sub, _ = coset.reidemeister_schreier(pres, table)
    assert str(sub.abelianization()) == "Z^6"


def _image_elements(hom):
    # the image in the closure's order: identity first, then BFS order
    return congsub.group_closure(hom.R, hom.images, canon=hom._canon).elements


def _right_products(hom):
    # the reference: form every element x generator product anew and look
    # up its position, as the permutations were built before the closure
    # recorded its action
    elements = _image_elements(hom)
    index = {m: i for i, m in enumerate(elements)}
    return [tuple(index[hom._canon(congsub.rmat_mul(hom.R, m, g))]
                  for m in elements)
            for g in hom.images]


def test_closure_records_the_right_action(sl2_lift):
    # elements[perm[k][i]] == canon(elements[i] * images[k]) for all i, k,
    # with the canonical identity at position 0
    from congtower import homology
    ring = make_ring(1)
    cases = [
        (sl2_lift(1),
         factor_rational_prime(ring, 5)[0], False, 120),
        (homology.psl2_realization(1),
         next(q for q in factor_rational_prime(ring, 5)
              if str(q.pi) == "1 + 2*sqrt(-1)"), True, 60),
    ]
    for group, prime, projective, order in cases:
        hom = congsub.ReductionHom(group, prime, 1)
        assert hom.projective == projective
        elements = _image_elements(hom)
        assert hom.order == len(elements) == order
        assert elements[0] == hom._canon(congsub.rmat_identity(hom.R, 2))
        assert hom.permutations() == _right_products(hom)


@pytest.mark.parametrize("d, p", [(1, 5), (7, 2)])
def test_projective_canon_is_the_smaller_sign(sl2_lift, d, p):
    # min(m, -m) on every element of the SL2 image and on its negative:
    # at a prime over 5, and at the magic prime over 2, where every
    # residue x equals -x and the canonical form is m itself
    from congtower import homology
    ring = make_ring(d)
    prime = factor_rational_prime(ring, p)[0]
    if d == 7:
        assert prime.pi == catalog.magic_ring_and_prime()[1].pi
    hom = congsub.ReductionHom(homology.psl2_realization(d), prime, 1)
    assert hom.projective
    R = hom.R
    reps = list(R.elements())
    elements = _image_elements(congsub.ReductionHom(sl2_lift(d), prime, 1))
    assert len(elements) == homology.sl2_image_order(prime.norm())
    fixed = set()
    for m in elements:
        neg = tuple(R.index(R.neg(reps[x])) for x in m)
        assert hom._canon(m) == hom._canon(neg) == min(m, neg)
        fixed.add(neg == m)
    assert fixed == {p == 2}


def test_quotient_check_elementary_abelian(gaussian_prime2):
    sch = congsub.SchemeSL(2)
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 1, 2)
    assert rep["order"] == 8
    assert rep["elementary_abelian"] and rep["exponent"] == 2
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 2, 3)
    assert rep["elementary_abelian"] and rep["exponent"] == 2
    rep = congsub.congruence_quotient_check(sch, gaussian_prime2, 2, 4)
    assert rep["abelian"] and rep["order"] == 64 and rep["exponent"] == 2


def test_quotient_check_closes_through_group_closure(gaussian_prime2,
                                                     monkeypatch):
    # the kernel's closures are group_closure calls, the name the traced
    # benchmark times; each new generator at least doubles the span
    orders = []
    closure = congsub.group_closure

    def recording(*args, **kwargs):
        result = closure(*args, **kwargs)
        orders.append(len(result))
        return result

    monkeypatch.setattr(congsub, "group_closure", recording)
    rep = congsub.congruence_quotient_check(congsub.SchemeSL(2),
                                            gaussian_prime2, 2, 4)
    assert orders == [2, 4, 8, 16, 32, 64] == \
        [2 ** (i + 1) for i in range(rep["order"].bit_length() - 1)]


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


def _kernel_set(prime, j, k):
    # the residue ring O/p^k and every Id + pi^j M, M over O/p^(k-j), of
    # determinant 1, formed and tested in O/p^k: pairs (M, Id + pi^j M),
    # M as residue indices of O/p^(k-j) and the matrix as those of O/p^k
    R, Rdiff = ResidueRing(prime, k), ResidueRing(prime, k - j)
    pi_j = prime.pi ** j
    n = 2
    one = R.index(R.one)
    out = []
    for combo in itertools.product(list(Rdiff.elements()), repeat=n * n):
        m = tuple(R.index(R.add(R.one if r == c else R.zero,
                                R.reduce(pi_j * R.ring(combo[r * n + c]))))
                  for r in range(n) for c in range(n))
        if congsub.rmat_det(R, m) == one:
            out.append((tuple(Rdiff.index(x) for x in combo), m))
    return R, out


def _pair_pass_reference(prime, j, k):
    # the brute-force oracle, on the matrices of O/p^k: every pair is
    # multiplied both ways and its product looked up, and each element is
    # multiplied by itself until it reaches the identity
    R, pairs = _kernel_set(prime, j, k)
    elements = [m for _, m in pairs]
    members = set(elements)
    abelian = True
    for a in elements:
        for b in elements:
            ab = congsub.rmat_mul(R, a, b)
            assert ab in members
            abelian = abelian and ab == congsub.rmat_mul(R, b, a)
    ident = congsub.rmat_identity(R, 2)
    exponent = 1
    for a in elements:
        o, cur = 1, a
        while cur != ident:
            cur, o = congsub.rmat_mul(R, cur, a), o + 1
        exponent = math.lcm(exponent, o)
    return {"order": len(elements), "abelian": abelian, "exponent": exponent,
            "elementary_abelian": abelian and exponent == prime.p}


# (ring, rational prime, j, k); (1, 3) is past 2j and not abelian
QUOTIENT_CASES = [(1, 2, 1, 2), (1, 2, 2, 3), (1, 2, 2, 4), (1, 2, 1, 3),
                  ("cyclotomic-5", 5, 1, 2)]


@pytest.mark.parametrize("field,p,j,k", QUOTIENT_CASES)
def test_quotient_check_agrees_with_the_pair_passes(field, p, j, k):
    prime = factor_rational_prime(make_ring(field), p)[0]
    sch = congsub.SchemeSL(2)
    rep = congsub.congruence_quotient_check(sch, prime, j, k)
    ref = _pair_pass_reference(prime, j, k)
    assert {key: rep[key] for key in ref} == ref


@pytest.mark.parametrize("field,p,j,k", QUOTIENT_CASES)
def test_kernel_carried_by_the_m_matches_the_matrices(field, p, j, k):
    # the scheme predicate over O/p^(k-j) accepts exactly the M whose
    # Id + pi^j M has determinant 1 in O/p^k, and the kernel product of
    # two M is the M of the matrix product in O/p^k
    prime = factor_rational_prime(make_ring(field), p)[0]
    R, pairs = _kernel_set(prime, j, k)
    Rdiff = ResidueRing(prime, k - j)
    t = Rdiff.index(Rdiff.reduce(prime.pi ** j))
    sch = congsub.SchemeSL(2)
    accepted = [m for m in itertools.product(range(Rdiff.size), repeat=4)
                if sch.check(Rdiff, t, m)]
    assert accepted == [m for m, _ in pairs]
    matrix = dict(pairs)
    for a, ma in pairs:
        for b, mb in pairs:
            assert matrix[congsub.kernel_product(Rdiff, t, a, b)] == \
                congsub.rmat_mul(R, ma, mb)


@pytest.mark.parametrize("field,p,j,k", QUOTIENT_CASES)
def test_quotient_check_products_stay_within_the_declared_bound(
        field, p, j, k, monkeypatch):
    prime = factor_rational_prime(make_ring(field), p)[0]
    sch = congsub.SchemeSL(2)
    calls = []
    rmat_mul = congsub.rmat_mul
    monkeypatch.setattr(congsub, "rmat_mul",
                        lambda R, a, b: calls.append(1) or rmat_mul(R, a, b))
    rep = congsub.congruence_quotient_check(sch, prime, j, k)
    # a budget that admits the candidates but not the group passes reports
    # the declared product bound
    with pytest.raises(BudgetExceeded) as exc:
        congsub.congruence_quotient_check(sch, prime, j, k,
                                          budget=rep["estimate"])
    bound = exc.value.estimate
    assert bound == 4 * rep["order"] * math.ceil(math.log2(rep["order"]))
    assert len(calls) <= bound
    if field == "cyclotomic-5":
        assert len(calls) <= 1000


class _Rejecting:
    """SL2 with one kernel element taken out."""

    name = "SL"
    n = 2

    def __init__(self, rejected):
        self.rejected = rejected

    def check(self, R, t, m):
        return m != self.rejected and congsub.SchemeSL(2).check(R, t, m)


def test_quotient_check_refuses_a_kernel_set_that_is_not_a_group(
        gaussian_prime2):
    _, pairs = _kernel_set(gaussian_prime2, 2, 4)
    assert len(pairs) == 64
    for x, _ in pairs:
        if x == (0, 0, 0, 0):   # M = 0, the identity
            continue
        with pytest.raises(AssertionError):
            congsub.congruence_quotient_check(_Rejecting(x), gaussian_prime2, 2, 4)


def _pu_counts_by_brute_force():
    """The counts of ``pu_identity_congruent_count`` by testing all 5^9
    matrices X: Id + eps X is unitary for H exactly when H X is
    symmetric mod 5.  Entries stay below 127, so int8 arithmetic is exact."""
    import numpy as np
    H = np.array([[3, 1, 0], [1, 3, 1], [0, 1, 3]], dtype=np.int8)
    # digit k of the base-5 counter cycles with period 5^(9-k)
    base = np.arange(5, dtype=np.int8)
    digits = np.stack(
        [np.tile(np.repeat(base, 5 ** (8 - k)), 5 ** k) for k in range(9)],
        axis=1,
    )
    hx = np.matmul(H, digits.reshape(-1, 3, 3))
    ok = np.ones(len(digits), dtype=bool)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= (hx[:, i, j] - hx[:, j, i]) % 5 == 0
    # scalar solutions: X = c * Id
    scalar = np.ones(len(digits), dtype=bool)
    for off_pos in (1, 2, 3, 5, 6, 7):
        scalar &= digits[:, off_pos] == 0
    scalar &= (digits[:, 0] == digits[:, 4]) & (digits[:, 4] == digits[:, 8])
    return int(ok.sum()), int((ok & scalar).sum())


def test_pu_identity_counts():
    out = congsub.pu_identity_congruent_count()
    assert out["lift_count"] == 5 ** 6
    assert out["scalar_count"] == 5
    assert out["pu_count"] == 5 ** 5
    lift_count, scalar_count = _pu_counts_by_brute_force()
    assert (out["lift_count"], out["scalar_count"]) == (lift_count, scalar_count)


def test_orbit_fixed_point(gaussian_prime2, residue_orbit):
    R = ResidueRing(gaussian_prime2, 1)
    ident = congsub.rmat_identity(R, 2)
    v = (R.one, R.zero)
    assert residue_orbit(R, [ident], v) == [v]


def test_orbit_size_divides_group_order(residue_orbit):
    ring = make_ring(1)
    prime = factor_rational_prime(ring, 5)[0]
    R, imgs = sl2_images(ring, prime)
    els = congsub.group_closure(R, imgs)
    v = (R.one, R.zero)
    orb = residue_orbit(R, imgs, v)
    assert len(els) % len(orb) == 0
    lines = residue_orbit(R, imgs, v, lines=True)
    assert len(els) % len(lines) == 0
    assert len(lines) == 6  # P^1(F_5)


# residue rings for the matrix-arithmetic properties: O_1 mod (1+i)^4,
# Z[zeta5] mod p^2, O_7 mod the prime over 2 that contains omega, Z/4
RESIDUE_CASES = {
    "O1 mod (1+i)^4": lambda: ResidueRing(
        factor_rational_prime(make_ring(1), 2)[0], 4),
    "Z[zeta5] mod p^2": lambda: ResidueRing(
        factor_rational_prime(make_ring("cyclotomic-5"), 5)[0], 2),
    "O7 mod p": lambda: ResidueRing(catalog.magic_ring_and_prime()[1], 1),
    "Z/4": lambda: ResidueRing(
        factor_rational_prime(make_ring("rational"), 2)[0], 2),
}


@st.composite
def residue_matrices(draw):
    """A residue ring and exact integral n x n matrices A, B and S over its
    number ring; n up to 5 over Z/4, else up to 3."""
    case = draw(st.sampled_from(sorted(RESIDUE_CASES)))
    R = RESIDUE_CASES[case]()
    n = draw(st.integers(1, 5 if case == "Z/4" else 3))

    def matrix():
        return tuple(tuple(
            R.ring(tuple(draw(st.integers(-30, 30)) for _ in range(R.ring.degree)))
            for _ in range(n)) for _ in range(n))
    return R, matrix(), matrix(), matrix()


# 4 x 4 and 5 x 5 matrices over Z[zeta5] mod p^2, entry (a, b) = a + b zeta,
# whose first-row term a_03 M_03 is a unit: a sign slip in the j = 3
# cofactor of rings.det moves the determinant by 2 a_03 M_03, not 0 mod p
COFACTOR_CASES = [
    [[(2, 0), (0, 2), (-2, 1), (-1, -2)], [(-1, -2), (0, 1), (-1, 1), (2, -2)],
     [(2, -1), (-2, -1), (1, 0), (-1, 1)], [(-1, -2), (-1, 2), (2, 1), (-1, -1)]],
    [[(0, 1), (1, -1), (-2, -2), (1, 0), (-1, -1)],
     [(2, -1), (1, -2), (-1, 1), (0, -1), (-2, 1)],
     [(0, -1), (1, 2), (-1, 2), (1, 1), (0, 1)],
     [(0, 0), (1, 1), (-1, -2), (1, 2), (-1, 1)],
     [(0, -1), (-2, 1), (0, 2), (2, 2), (0, -2)]],
]


def _cofactor_case(rows):
    R = RESIDUE_CASES["Z[zeta5] mod p^2"]()
    S = tuple(tuple(R.ring((a, b, 0, 0)) for a, b in row) for row in rows)
    return R, S, S, S


@pytest.mark.parametrize("rows", COFACTOR_CASES)
def test_cofactor_cases_have_a_unit_term_at_j3(rows, leibniz_det):
    R, S, _, _ = _cofactor_case(rows)
    minor = tuple(row[:3] + row[4:] for row in S[1:])
    assert R.prime.valuation(S[0][3] * leibniz_det(minor)) == 0


@settings(max_examples=60, deadline=None)
@given(residue_matrices())
@example(_cofactor_case(COFACTOR_CASES[0]))
@example(_cofactor_case(COFACTOR_CASES[1]))
def test_residue_matrix_arithmetic_matches_exact_reference(leibniz_det, case):
    # reduction is a ring map: each residue result equals the exact
    # result over the number ring, reduced
    R, A, B, S = case
    a, b = congsub.reduce_matrix(R, A), congsub.reduce_matrix(R, B)
    assert congsub.rmat_mul(R, a, b) == congsub.reduce_matrix(
        R, ringmat.mat_mul(A, B))
    assert congsub.rmat_det(R, congsub.reduce_matrix(R, S)) == R.index(
        R.reduce(leibniz_det(S)))


@st.composite
def sparse_residue_matrices(draw):
    """A residue ring and an integral n x n matrix over its number ring,
    n = 1..5, about a third of whose entries are zero."""
    R = RESIDUE_CASES[draw(st.sampled_from(sorted(RESIDUE_CASES)))]()
    n = draw(st.integers(1, 5))
    coords = st.tuples(*[st.integers(-30, 30)] * R.ring.degree)
    entry = st.one_of(st.just((0,) * R.ring.degree), coords, coords)
    return R, tuple(tuple(R.ring(draw(entry)) for _ in range(n))
                    for _ in range(n))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_residue_matrices())
def test_det_matches_leibniz_on_residues(leibniz_det, row_expansions, case):
    # rings.det on residues, and the Laplace expansion along every row,
    # against the reduced Leibniz sum over the number ring
    R, S = case
    m = congsub.reduce_matrix(R, S)
    n = len(S)
    expected = R.index(R.reduce(leibniz_det(S)))
    assert congsub.rmat_det(R, m) == expected
    rows = [m[i:i + n] for i in range(0, n * n, n)]
    assert row_expansions(rows, lambda xs, ys: congsub.rdot(R, xs, ys),
                          R.neg_table.__getitem__, R.index(R.zero),
                          R.index(R.one)) == [expected] * n


@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_rmat_mul_is_the_reduced_exact_product(case):
    # every size an SL or orthogonal closure multiplies (2 x 2 is written
    # out, the rest loop), on matrices whose entries run over the whole
    # ring: the table product of the reductions is the reduction of the
    # exact product over the number ring
    R = RESIDUE_CASES[case]()
    rng = random.Random(case)
    reps = list(R.elements())
    for n in (1, 2, 3, 5):
        for _ in range(20):
            A, B = (tuple(tuple(R.ring(rng.choice(reps)) for _ in range(n))
                          for _ in range(n)) for _ in range(2))
            a, b = congsub.reduce_matrix(R, A), congsub.reduce_matrix(R, B)
            assert congsub.rmat_mul(R, a, b) == congsub.reduce_matrix(
                R, ringmat.mat_mul(A, B))


# every residue ring a command builds: the RESIDUE_CASES, O/p for each
# homology prime of norm up to 13, and Z/2 and Z/4 (the o41 pipeline)
def _homology_prime_rings():
    from congtower import homology
    return {"O%d mod p, N(p) = %d" % (d, prime.norm()):
            (lambda prime=prime: ResidueRing(prime, 1))
            for d in (1, 2, 3, 7, 11)
            for prime in homology.primes_up_to_norm(make_ring(d), 13)}


TABLE_CASES = {
    **RESIDUE_CASES,
    **_homology_prime_rings(),
    "Z/2": lambda: ResidueRing(
        factor_rational_prime(make_ring("rational"), 2)[0], 1),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tables_are_the_representative_operations(case):
    # complete: every entry of the add, mul and neg tables is the index of
    # ResidueRing.add, mul or neg on the representatives
    R = TABLE_CASES[case]()
    reps = list(R.elements())
    size = R.size
    assert len(R.add_table) == len(R.mul_table) == size * size
    assert R.neg_table == tuple(R.index(R.neg(a)) for a in reps)
    for i, a in enumerate(reps):
        assert R.add_table[i * size:(i + 1) * size] == tuple(
            R.index(R.add(a, b)) for b in reps)
        assert R.mul_table[i * size:(i + 1) * size] == tuple(
            R.index(R.mul(a, b)) for b in reps)


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_index_order_is_tuple_order(case):
    # the representatives, found by reducing every point of a box that
    # covers each class, sorted as tuples, are numbered 0, 1, 2, ... by
    # ResidueRing.index, and ResidueRing.elements lists them in that order
    R = TABLE_CASES[case]()
    box = itertools.product(*[range(2 * d) for d in R.diag])
    reps = sorted({R.reduce_coords(c) for c in box})
    assert len(reps) == R.size
    assert [R.index(r) for r in reps] == list(range(R.size))
    assert list(R.elements()) == reps
    assert R.index(R.zero) == 0


def test_tables_are_declared_before_any_is_built(gaussian_prime2, sl2_lift,
                                                 monkeypatch):
    # O/p over 2 in O_1 has 2^2 = 4 entries per table: a closure budget of
    # 3 refuses them with that estimate, and so does a budget of 10 for the
    # 1 x 1 kernel of O/p^3 -> O/p, whose 4 candidates are carried by
    # O/p^2 with 16 entries per table
    built = []
    for name in ("add_table", "mul_table", "neg_table"):
        monkeypatch.setattr(ResidueRing, name,
                            property(lambda R, name=name: built.append(name)))
    group = sl2_lift(1)
    with pytest.raises(BudgetExceeded) as exc:
        congsub.ReductionHom(group, gaussian_prime2, 1, budget=3)
    assert (exc.value.estimate, exc.value.budget) == (4, 3)
    with pytest.raises(BudgetExceeded) as exc:
        congsub.congruence_quotient_check(congsub.SchemeSL(1),
                                          gaussian_prime2, 1, 3, budget=10)
    assert (exc.value.estimate, exc.value.budget) == (16, 10)
    assert "16 entries each" in str(exc.value)
    assert built == []


# (d, norm) -> (image order, sha256 prefix of the permutations' JSON), as
# computed with coordinate-tuple matrices: the closure's BFS order, and so
# the coset tables and Reidemeister-Schreier generators, do not depend on
# how residues are stored
IMAGE_PERMUTATIONS = {
    (1, 2): (6, "35f2bf7cd75feed2"), (1, 5): (60, "b763340e94f5b7f1"),
    (1, 9): (360, "1ab77514a9a4bead"), (1, 13): (1092, "993b716aaa070181"),
    (2, 2): (6, "dae58899cb0ddcfa"), (2, 3): (12, "6533016f5c3bdba4"),
    (2, 11): (660, "064c58bb2534fe87"),
    (3, 3): (12, "07341e9f86ebb3d2"), (3, 4): (60, "f6404430aa35b89f"),
    (3, 7): (168, "e8bba15e89e090b8"), (3, 13): (1092, "23e0a874e1660fcd"),
    (7, 2): (6, "dae58899cb0ddcfa"), (7, 7): (168, "851ef4a457b651a7"),
    (7, 9): (360, "ca3552b49e30efce"), (7, 11): (660, "f6af8da363db5539"),
    (11, 3): (12, "7c82b0ab8ead4296"), (11, 4): (60, "f03fa1147a54cb82"),
    (11, 5): (60, "311519874fb8785a"), (11, 11): (660, "93ef6b87db41c7c0"),
}


def test_image_permutations_are_pinned(sl2_lift):
    # each homology row up to norm 13, PSL2 off 2 and SL2 over 2
    import hashlib
    import json
    from congtower import homology
    got = {}
    for d in (1, 2, 3, 7, 11):
        psl2 = homology.psl2_realization(d)
        for prime in homology.primes_up_to_norm(make_ring(d), 13):
            projective = prime.p != 2
            hom = congsub.ReductionHom(psl2 if projective else sl2_lift(d),
                                       prime, 1)
            assert hom.projective == projective
            digest = hashlib.sha256(
                json.dumps(hom.permutations()).encode()).hexdigest()
            got[d, prime.norm()] = (hom.order, digest[:16])
    assert got == IMAGE_PERMUTATIONS
