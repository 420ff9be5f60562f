import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

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


def test_reduction_hom_rejects_bad_relators(gaussian_prime2):
    from congtower.presentations import parse_presentation
    pres = parse_presentation("gens a, b; rels a^2;")
    ring = make_ring(1)
    gens = catalog.sl2_gen_matrices(ring)
    with pytest.raises(InputError):
        congsub.ReductionHom(pres, [gens["a"], gens["b"]], gaussian_prime2, 1)


@pytest.mark.parametrize("perturbed", range(4))
def test_perturbed_image_fails_the_coset_table(gaussian_prime2, monkeypatch,
                                               sl2_lift, perturbed):
    # one reduced generator image times [[1,1],[0,1]]: the relators hold
    # exactly on the matrices, and the coset table built from the images'
    # action refuses the relator that no longer traces
    from congtower import homology
    pres, mats = sl2_lift(1)
    assert pres.ngens == 4
    calls = []
    reduce = congsub.reduce_matrix

    def perturb(R, m):
        out = reduce(R, m)
        calls.append(m)
        if len(calls) == perturbed + 1:
            out = congsub.rmat_mul(R, out, ((R.one, R.one), (R.zero, R.one)))
        return out

    monkeypatch.setattr(congsub, "reduce_matrix", perturb)
    with pytest.raises(InputError, match="relator fails"):
        homology.kernel_presentation(pres, mats, gaussian_prime2)


def test_reduction_hom_composition(gaussian_prime2, sl2_lift):
    # reducing the level-2 hom to level 1 equals the direct level-1 hom
    from congtower import homology
    pres, mats = sl2_lift(1)
    hom2 = congsub.ReductionHom(pres, mats, gaussian_prime2, 2)
    hom1 = congsub.ReductionHom(pres, mats, gaussian_prime2, 1)
    # p^2 lies in p, so reducing level-2 representatives gives level 1
    lowered = [tuple(tuple(hom1.R.reduce_coords(x) for x in row) for row in img)
               for img in hom2.images]
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
            homs[str(prime.pi)] = hom
    assert set(homs) == {"-1 + 2*sqrt(-1)", "1 + 2*sqrt(-1)",
                         "-2 + 3*sqrt(-1)", "2 + 3*sqrt(-1)"}
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


def test_closure_records_the_right_action(sl2_lift):
    # elements[perm[k][i]] == canon(elements[i] * images[k]) for all i, k,
    # with the canonical identity at position 0
    from congtower import homology
    ring = make_ring(1)
    psl2 = homology.bundled_presentation("psl2_d1.pres")
    cases = [
        (sl2_lift(1),
         factor_rational_prime(ring, 5)[0], False, 120),
        ((psl2, homology._matrices_for(psl2, ring)),
         next(q for q in factor_rational_prime(ring, 5)
              if str(q.pi) == "1 + 2*sqrt(-1)"), True, 60),
    ]
    for (pres, mats), prime, projective, order in cases:
        hom = congsub.ReductionHom(pres, mats, prime, 1, projective=projective)
        assert hom.order == len(hom.elements) == order
        assert hom.elements[0] == hom._canon(congsub.rmat_identity(hom.R, 2))
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
    psl2, mats = homology.psl2_presentation_and_matrices(d)
    hom = congsub.ReductionHom(psl2, mats, prime, 1, projective=True)
    sl2, sl2_mats = sl2_lift(d)
    R = hom.R
    elements = congsub.ReductionHom(sl2, sl2_mats, prime, 1).elements
    assert len(elements) == homology.sl2_image_order(prime.norm())
    fixed = set()
    for m in elements:
        neg = tuple(tuple(R.neg(x) for x in row) for row in m)
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


def _kernel_set(scheme, prime, j, k):
    # the residue ring O/p^k and every Id + pi^j M, M over O/p^(k-j), that
    # the scheme accepts
    R, Rdiff = prime.residue(k), prime.residue(k - j)
    pi_j = prime.pi ** j
    n = scheme.n
    out = []
    for combo in itertools.product(list(Rdiff.elements()), repeat=n * n):
        m = tuple(tuple(
            R.add(R.one if r == c else R.zero,
                  R.reduce(pi_j * Rdiff.lift(combo[r * n + c])))
            for c in range(n)) for r in range(n))
        if scheme.check(R, m):
            out.append(m)
    return R, out


def _pair_pass_reference(scheme, prime, j, k):
    # the brute-force oracle: every pair is multiplied both ways and its
    # product looked up, and each element is multiplied by itself until it
    # reaches the identity
    R, elements = _kernel_set(scheme, prime, j, k)
    members = set(elements)
    abelian = True
    for a in elements:
        for b in elements:
            ab = congsub.rmat_mul(R, a, b)
            assert ab in members
            abelian = abelian and ab == congsub.rmat_mul(R, b, a)
    ident = congsub.rmat_identity(R, scheme.n)
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
    ref = _pair_pass_reference(sch, prime, j, k)
    assert {key: rep[key] for key in ref} == ref


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

    def check(self, R, m):
        return m != self.rejected and congsub.SchemeSL(2).check(R, m)


def test_quotient_check_refuses_a_kernel_set_that_is_not_a_group(
        gaussian_prime2):
    R, elements = _kernel_set(congsub.SchemeSL(2), gaussian_prime2, 2, 4)
    ident = congsub.rmat_identity(R, 2)
    assert len(elements) == 64
    for x in elements:
        if x == ident:
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
    """A residue ring and exact integral matrices A (n x k), B (k x m) and
    S (n x n) over its number ring; sizes up to 5 over Z/4, else up to 3."""
    case = draw(st.sampled_from(sorted(RESIDUE_CASES)))
    R = RESIDUE_CASES[case]()
    top = 5 if case == "Z/4" else 3
    n, k, m = (draw(st.integers(1, top)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(
            R.ring(tuple(draw(st.integers(-30, 30)) for _ in range(R.ring.degree)))
            for _ in range(cols)) for _ in range(rows))
    return R, matrix(n, k), matrix(k, m), matrix(n, n)


def _leibniz_det(m):
    # sum over permutations of sign * product: independent of the
    # cofactor expansion in ringmat.det
    ring = m[0][0].ring
    n = len(m)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = ring.one
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + (-term if inversions % 2 else term)
    return total


@settings(max_examples=60, deadline=None)
@given(residue_matrices())
def test_residue_matrix_arithmetic_matches_exact_reference(case):
    # reduction is a ring map: each residue result equals the exact
    # result over the number ring, reduced
    R, A, B, S = case
    a, b = congsub.reduce_matrix(R, A), congsub.reduce_matrix(R, B)
    assert congsub.rmat_mul(R, a, b) == congsub.reduce_matrix(
        R, ringmat.mat_mul(A, B))
    assert congsub.rmat_det(R, congsub.reduce_matrix(R, S)) == R.reduce(
        _leibniz_det(S))


@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_rmat_mul_reduces_each_entry_once(case, monkeypatch):
    # an n x k by k x m product makes exactly n * m reductions (a 5 x 5
    # product: 25, where reducing every partial product and sum makes 225)
    R = RESIDUE_CASES[case]()
    calls = []
    reduce_coords = R.reduce_coords
    monkeypatch.setattr(R, "reduce_coords",
                        lambda x: calls.append(x) or reduce_coords(x))
    pool = list(itertools.islice(R.elements(), 7))
    for n, k, m in ((5, 5, 5), (3, 4, 2), (1, 5, 1)):
        a = tuple(tuple(pool[(i * k + t) % len(pool)] for t in range(k))
                  for i in range(n))
        b = tuple(tuple(pool[(t * m + j + 3) % len(pool)] for j in range(m))
                  for t in range(k))
        del calls[:]
        congsub.rmat_mul(R, a, b)
        assert len(calls) == n * m
