import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congtower import catalog, intmat, rings
from congtower.errors import BudgetExceeded, InputError
from congtower.rings import factor_rational_prime, make_ring


def random_elt(rng, ring, span=20):
    return ring(tuple(rng.randint(-span, span) for _ in range(ring.degree)))


def test_make_ring_specs():
    assert make_ring("d=7").d == 7
    assert make_ring("O_11").d == 11
    assert make_ring(3).kind == rings.IMAG_QUAD
    assert make_ring("cyclotomic-5").degree == 4
    assert make_ring("rational").degree == 1
    with pytest.raises(InputError):
        make_ring(5)
    with pytest.raises(InputError):
        make_ring("d=6")


def test_generator_minimal_polynomials():
    for d in (3, 7, 11):
        ring = make_ring(d)
        w = ring.gen()
        n = (1 + d) // 4
        assert w * w - w + n == ring.zero
    for d in (1, 2):
        ring = make_ring(d)
        w = ring.gen()
        assert w * w + d == ring.zero
    E = make_ring("cyclotomic-5")
    z = E.zeta()
    assert z ** 4 + z ** 3 + z ** 2 + z + E.one == E.zero
    assert z ** 5 == E.one


def test_alpha_and_galois_action():
    E = make_ring("cyclotomic-5")
    a = E((-1, 0, -2, -2))      # sqrt(5) = 1 + 2 zeta + 2 zeta^4
    assert a * a == E(5)
    assert a.conj() == a
    assert E.zeta().conj() == E.zeta() ** 4


@pytest.mark.parametrize("d", rings.SUPPORTED_D)
def test_imaginary_quadratic_conjugation(d):
    # an identity conjugation passes the ring axioms but not these
    ring = make_ring(d)
    assert ring.gen().conj() != ring.gen()
    rng = random.Random(d)
    for _ in range(200):
        x = random_elt(rng, ring)
        assert x * x.conj() == x.norm()


def test_products_keep_fraction_coordinates():
    for ring in (make_ring(1), make_ring("cyclotomic-5")):
        x = ring.gen() * ring.gen()     # -1 and z^2: zero coordinates
        for y in (x, x / 2, x * 3, x.conj() * x):
            assert all(isinstance(c, Fraction) for c in y.coords), y
    assert str(make_ring(1).gen() * make_ring(1).gen() / 2) == "-1/2"
    assert str(make_ring("cyclotomic-5").zeta() ** 2 / 2) == "1/2*z^2"


# -- RingElt against a per-coordinate Fraction reference -------------------

REFERENCE_RINGS = [make_ring(spec) for spec in ("rational", 1, 2, 3, 7, 11, "cyclotomic-5")]
REFERENCE_RINGS.append(rings.NumberRing(rings.SQRT_1_PLUS_SQRT5))


def ref_mul(ring, a, b):
    """Product of coordinate lists as polynomials in the generator, reduced
    by the monic minimal polynomial: x^k = -(m_0 + ... + m_(n-1) x^(n-1)) x^(k-n)."""
    n = ring.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        for i in range(n):
            prod[k - n + i] -= prod[k] * ring.min_poly[i]
    return prod[:n]


def ref_det(m):
    """Determinant over Q by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def ref_mult_matrix(ring, a):
    n = ring.degree
    cols = [ref_mul(ring, a, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[col[i] for col in cols] for i in range(n)]


def ref_inverse(ring, a):
    """Cramer's rule for M y = e_0, M the matrix of multiplication by a."""
    m = ref_mult_matrix(ring, a)
    det = ref_det(m)
    n = ring.degree
    return [ref_det([row[:i] + [int(r == 0)] + row[i + 1:] for r, row in enumerate(m)]) / det
            for i in range(n)]


def ref_conj(ring, a):
    """sum a_i conj(x)^i, from the conjugate of the generator alone."""
    cg = list(ring.gen().conj().coords)
    out, power = [Fraction(0)] * ring.degree, [Fraction(1)] + [Fraction(0)] * (ring.degree - 1)
    for c in a:
        out = [o + c * p for o, p in zip(out, power)]
        power = ref_mul(ring, power, cg)
    return out


def assert_lowest_terms(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1, (x.num, x.den)


# denominators: small ints times the primes the trees and towers work at
fraction_coords = st.builds(
    Fraction, st.integers(-40, 40),
    st.builds(lambda k, p: k * p, st.integers(1, 6), st.sampled_from([1, 2, 3, 5, 7, 11])))


@st.composite
def ring_elements(draw):
    ring = draw(st.sampled_from(REFERENCE_RINGS))
    coords = st.lists(fraction_coords, min_size=ring.degree, max_size=ring.degree)
    return ring, draw(coords), draw(coords), draw(fraction_coords)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ring_elements())
def test_int_coordinates_match_fraction_reference(case):
    ring, a, b, q = case
    x, y = ring(tuple(a)), ring(tuple(b))
    expected = [
        (x, a), (y, b),
        (x + y, [s + t for s, t in zip(a, b)]),
        (x - y, [s - t for s, t in zip(a, b)]),
        (x * y, ref_mul(ring, a, b)),
        (x * q, [s * q for s in a]),
        (x * 3, [s * 3 for s in a]),
        (x.conj(), ref_conj(ring, a)),
    ]
    if any(b):
        expected += [(y.inverse(), ref_inverse(ring, b)),
                     (x / y, ref_mul(ring, a, ref_inverse(ring, b)))]
    if q:
        expected.append((x / q, [s / q for s in a]))
    for got, want in expected:
        assert_lowest_terms(got)
        assert list(got.coords) == want
    assert x.norm() == ref_det(ref_mult_matrix(ring, a))
    assert x.den == math.lcm(*(c.denominator for c in a))
    assert x.is_integral() == all(c.denominator == 1 for c in a)
    # equal values built two ways are equal and hash alike
    for left, right in [((x / 6) * 3, x / 2), (x * Fraction(1, 2), x / 2),
                        ((x + y) - y, x), (ring(tuple(x.coords)), x)]:
        assert left == right and hash(left) == hash(right)
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()
    for zero in (0, Fraction(0), ring.zero):
        with pytest.raises(ZeroDivisionError):
            x / zero


# -- the dot kernel against the per-term triple loop ------------------------

def loop_mul_coords(ring, a, b):
    """a*b by the triple loop over the reduced powers x^(i+j), one fold per
    term pair: the reference for ``dot_coords``."""
    n = ring.degree
    out = [0] * n
    for i in range(n):
        for j in range(n):
            c = a[i] * b[j]
            for k, m in ring._powers[i + j]:
                out[k] += c * m
    return tuple(out)


@st.composite
def dot_terms(draw, ring):
    coords = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * ring.degree)
    count = draw(st.integers(0, 6))
    terms = st.lists(coords, min_size=count, max_size=count)
    return draw(terms), draw(terms)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_dot_kernel_matches_triple_loop(ring, data):
    # REFERENCE_RINGS spans every kind: degree 1, both quadratic minimal
    # polynomial shapes, Z[zeta5] and Q(sqrt(1+sqrt5))
    xs, ys = data.draw(dot_terms(ring))
    want = [0] * ring.degree
    for x, y in zip(xs, ys):
        product = loop_mul_coords(ring, x, y)
        assert ring._mul_coords(x, y) == product
        want = [s + t for s, t in zip(want, product)]
    assert ring.dot_coords(xs, ys) == tuple(want)
    for x in xs:
        cols = [loop_mul_coords(ring, x, tuple(int(i == j) for i in range(ring.degree)))
                for j in range(ring.degree)]
        assert ring.mult_matrix(x) == tuple(zip(*cols))


def test_residue_dot_is_the_reduced_loop_sum(gaussian_prime2, zeta5_prime):
    rng = random.Random(5)
    for prime in (gaussian_prime2, zeta5_prime):
        R = rings.ResidueRing(prime, 3)
        pool = list(itertools.islice(R.elements(), 40))
        for _ in range(50):
            xs = [rng.choice(pool) for _ in range(3)]
            ys = [rng.choice(pool) for _ in range(3)]
            total = [0] * R.ring.degree
            for x, y in zip(xs, ys):
                total = [s + t for s, t in zip(total, loop_mul_coords(R.ring, x, y))]
            assert R.dot(xs, ys) == R.reduce_coords(total)


def test_ring_axioms_bulk(all_rings):
    # 10^4 random triples per ring: associativity, distributivity,
    # conjugation multiplicativity
    for ring in all_rings:
        rng = random.Random(hash(ring.key) & 0xFFFF)
        for _ in range(10_000):
            a, b, c = (random_elt(rng, ring, 9) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conj() == a.conj() * b.conj()


def test_norm_multiplicativity(all_rings, rng):
    for ring in all_rings:
        for _ in range(200):
            a, b = random_elt(rng, ring), random_elt(rng, ring)
            assert (a * b).norm() == a.norm() * b.norm()


def test_inverse_and_division(rng):
    for ring in (make_ring(1), make_ring("cyclotomic-5")):
        for _ in range(100):
            a = random_elt(rng, ring, 5)
            if a.is_zero():
                continue
            assert a * a.inverse() == ring.one
            assert (a / a) == ring.one


def test_factor_5_in_cyclotomic(zeta5_prime):
    E = make_ring("cyclotomic-5")
    P = zeta5_prime
    assert (P.e, P.f) == (4, 1)
    assert P.norm() == 5
    assert P.pi == E.zeta() - E.one
    assert P.valuation(E(5)) == 4
    assert P.valuation(E.zeta() - E.one) == 1
    assert P.valuation(E.zero) == math.inf
    # sqrt(5) = 1 + 2 zeta + 2 zeta^4 generates p^2
    assert P.valuation(E((-1, 0, -2, -2))) == 2


@pytest.mark.parametrize("ring_and_prime", [
    catalog.magic_ring_and_prime,
    catalog.pu21_ring_and_prime,        # ramified, e = 4
    lambda: (make_ring("rational"), factor_rational_prime("rational", 2)[0]),
], ids=["magic", "zeta5", "rational-2"])
def test_valuation_of_uniformizer_power_times_unit(ring_and_prime):
    ring, prime = ring_and_prime()
    pi = prime.pi
    units = [ring.one, -ring.one]
    if ring.kind == rings.CYCLOTOMIC5:
        units += [ring.zeta(), ring.zeta() + ring.one]
    for k in range(6):
        for u in units:
            x = pi ** k * u
            # pi has norm +-p and generates the only prime of the ring
            # dividing it, so the norm pins the valuation
            assert rings._int_valuation(abs(int(x.norm())), prime.p) == k
            assert prime.valuation(x) == k
            assert prime.valuation(x.inverse()) == -k


def test_factor_2_gaussian(gaussian_prime2):
    P = gaussian_prime2
    assert (P.e, P.f) == (2, 1)
    assert P.valuation(make_ring(1)(2)) == 2
    # the generator is 1+i up to ordering convention
    assert abs(int(P.pi.norm())) == 2


def test_factor_2_in_O7_splits():
    ring = make_ring(7)
    ideals = factor_rational_prime(ring, 2)
    assert len(ideals) == 2
    assert all(p.e == 1 and p.f == 1 for p in ideals)
    product = 1
    for p in ideals:
        product *= p.norm() ** p.e
    assert product == 4


def test_factor_inert_and_norm_bookkeeping():
    # 3 is inert in Z[i]; 2 inert in O_3; check norm products in general
    ring = make_ring(1)
    (p3,) = factor_rational_prime(ring, 3)
    assert (p3.e, p3.f) == (1, 2)
    ring3 = make_ring(3)
    (q2,) = factor_rational_prime(ring3, 2)
    assert (q2.e, q2.f) == (1, 2)
    E = make_ring("cyclotomic-5")
    for p in (2, 3, 7, 11, 19, 31):
        ideals = factor_rational_prime(E, p)
        total = 1
        for q in ideals:
            total *= q.norm() ** q.e
        assert total == p ** 4


def test_every_imaginary_quadratic_prime_is_principal():
    # class number 1: the complete search over the elements of norm N(p)
    # finds one generator for every prime below 50 of the five rings
    for d in rings.SUPPORTED_D:
        ring = make_ring(d)
        for p in range(2, 50):
            if not rings._is_small_prime(p):
                continue
            for prime in factor_rational_prime(ring, p):
                assert abs(prime.pi.norm()) == prime.norm(), (d, p)


# the generators the [-2, 2] box search found before the search in
# Z[zeta5] was made complete, by rational prime, in factorization order
ZETA5_BOX_GENERATORS = {
    2: [(2, 0, 0, 0)], 5: [(-1, 1, 0, 0)],
    11: [(2, 1, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (2, 0, 1, 0)],
    31: [(-1, 2, 0, 0), (-2, 0, 1, 0), (-1, 0, 2, 0), (-2, 1, 0, 0)],
    41: [(1, -1, 0, 2), (-1, -2, 1, 0), (-1, 2, 1, 0), (-1, 1, 0, 2)],
    61: [(2, 0, -1, 2), (-1, 2, 2, 0), (2, -1, 0, 2), (-2, -2, 1, 0)],
    71: [(1, -2, -1, 1), (2, -1, -1, 1), (1, -1, -1, 2), (1, -1, -2, 1)],
}


def test_every_zeta5_prime_is_principal():
    # class number 1: every prime below 100 gets one generator, and the
    # ones the box search found stay the same (zeta - 1 at 5)
    E = make_ring("cyclotomic-5")
    for p in range(2, 100):
        if not rings._is_small_prime(p):
            continue
        ideals = factor_rational_prime(E, p)
        for prime in ideals:
            assert abs(prime.pi.norm()) == prime.norm(), p
        if p in ZETA5_BOX_GENERATORS:
            assert [q.pi.num for q in ideals] == ZETA5_BOX_GENERATORS[p]
    assert str(factor_rational_prime(E, 5)[0].pi) == "-1 + z"


def _trace_form(c):
    return 5 * sum(x * x for x in c) - sum(c) ** 2


def test_trace_form_ball_is_complete():
    # against a box past the bound: T2(c) >= sum(c_i^2), so |c_i| <= 5 when
    # T2 <= 30; on Z^4 and on the lattices of primes over 5 and 11
    E = make_ring("cyclotomic-5")
    box = [c for c in itertools.product(range(-6, 7), repeat=4)
           if _trace_form(c) <= 30]
    lattices = [tuple(tuple(int(i == j) for j in range(4)) for i in range(4))]
    lattices += [q.power_lattice(1) for p in (5, 11)
                 for q in factor_rational_prime(E, p)]
    for lattice in lattices:
        for bound in (0, 4, 17, 30):
            expected = sorted(c for c in box if _trace_form(c) <= bound
                              and intmat.lattice_contains(lattice, c))
            assert sorted(rings._trace_form_ball(lattice, bound)) == expected


def test_ring_zero_and_one_are_built_once(monkeypatch):
    # a fresh ring builds each on first read; later reads build nothing
    ring = rings.NumberRing(rings.IMAG_QUAD, 7)
    calls = []
    init = rings.RingElt.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(rings.RingElt, "__init__", counted)
    zero, one = ring.zero, ring.one
    assert len(calls) == 2
    assert ring.zero is zero and ring.one is one
    assert len(calls) == 2
    assert zero.is_zero() and one == 1


def test_residue_zero_and_one_are_built_once(zeta5_prime):
    R = rings.ResidueRing(zeta5_prime, 2)
    zero, one = R.zero, R.one
    assert R.zero is zero and R.one is one
    assert zero == R.reduce(0) and one == R.reduce(1)


def test_norm_solutions_complete():
    # every element of norm N in a box well past the bound, against the
    # solved enumeration
    for d in rings.SUPPORTED_D:
        ring = make_ring(d)
        norms = {c: ring(c).norm()
                 for c in itertools.product(range(-15, 16), repeat=2)}
        for target in (1, 2, 3, 9, 11, 49):
            box = sorted(c for c, v in norms.items() if v == target)
            assert sorted(rings._norm_solutions(ring, target)) == box, (d, target)


def test_prime_scale_guard():
    with pytest.raises(InputError):
        factor_rational_prime(make_ring(1), 101)
    with pytest.raises(InputError):
        factor_rational_prime(make_ring(1), 4)


def test_valuation_ultrametric(zeta5_prime, rng):
    E = make_ring("cyclotomic-5")
    P = zeta5_prime
    for _ in range(150):
        x = random_elt(rng, E, 6)
        y = random_elt(rng, E, 6)
        vx, vy = P.valuation(x), P.valuation(y)
        if not (x + y).is_zero():
            assert P.valuation(x + y) >= min(vx, vy)
        if not x.is_zero() and not y.is_zero():
            assert P.valuation(x * y) == vx + vy


def test_residue_ring_f5_eps(zeta5_prime):
    R = rings.ResidueRing(zeta5_prime, 2)
    assert R.size == 25
    els = list(R.elements())
    assert len(els) == len(set(els)) == 25
    E = make_ring("cyclotomic-5")
    eps = R.reduce(E.zeta())
    nil = R.add(eps, R.neg(R.one))
    assert R.mul(nil, nil) == R.zero          # (eps-1)^2 = 0
    powers = [R.one]
    for _ in range(5):
        powers.append(R.mul(powers[-1], eps))
    assert powers[5] == R.one                 # eps^5 = 1
    # conjugation sends eps to eps^4 = 2 - eps (negation of eps-1)
    conj = R.reduce(E.zeta().conj())
    assert conj == powers[4]
    assert conj == R.add(R.reduce(E(2)), R.neg(eps))


def test_residue_ring_level1_fields(zeta5_prime, gaussian_prime2):
    R5 = rings.ResidueRing(zeta5_prime, 1)
    assert R5.size == 5
    R2 = rings.ResidueRing(gaussian_prime2, 1)
    assert R2.size == 2
    els = list(R2.elements())
    assert len(els) == 2


def test_residue_ring_is_hom(zeta5_prime, rng):
    E = make_ring("cyclotomic-5")
    R = rings.ResidueRing(zeta5_prime, 2)
    for _ in range(300):
        x, y = random_elt(rng, E), random_elt(rng, E)
        assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
        assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))


def test_residue_tower_compatibility(zeta5_prime, rng):
    E = make_ring("cyclotomic-5")
    R2 = rings.ResidueRing(zeta5_prime, 2)
    R1 = rings.ResidueRing(zeta5_prime, 1)
    for _ in range(100):
        x = random_elt(rng, E)
        # p^2 lies in p, so a level-2 representative reduces to level 1
        via_tower = R1.reduce_coords(R2.reduce(x))
        assert via_tower == R1.reduce(x)


def test_residue_localized_reduction(gaussian_prime2):
    ring = make_ring(1)
    R = rings.ResidueRing(gaussian_prime2, 2)
    # x = i/3: denominator is a unit at the prime over 2
    x = ring.gen() / 3
    r = R.reduce(x)
    assert gaussian_prime2.valuation(x - R.lift(r)) >= 2
    # denominator with positive valuation but compensated numerator
    y = (ring.gen() + ring.one) ** 3 / 2    # v = 3 - 2 = 1 >= 0
    r2 = R.reduce(y)
    assert gaussian_prime2.valuation(y - R.lift(r2)) >= 2
    with pytest.raises(InputError):
        R.reduce(ring.one / 2)


# (ring, rational prime, index among the primes over it): split, ramified
# and inert primes
REDUCTION_PRIMES = [(7, 2, 0), (7, 2, 1), (1, 5, 0), (1, 2, 0),
                    ("cyclotomic-5", 5, 0), (1, 3, 0), (2, 5, 0)]


@st.composite
def locally_integral(draw, prime):
    """(R, x): a residue ring O/p^k, k = 1..4, and x = pi^(e a) y / (p^a u)
    with y integral and u prime to p, so x is locally integral.  Its
    denominator is prime to p when a = 0, and divisible by p for some
    a > 0 at a split prime; at a prime alone over p, local integrality
    leaves no p in the denominator."""
    ring, p = prime.ring, prime.p
    R = rings.ResidueRing(prime, draw(st.integers(1, 4)))
    y = ring(tuple(draw(st.lists(st.integers(-10 ** 4, 10 ** 4),
                                 min_size=ring.degree, max_size=ring.degree))))
    a = draw(st.integers(0, 2))
    u = draw(st.integers(1, 10 ** 5).filter(lambda u: u % p))
    return R, prime.pi ** (prime.e * a) * y / (p ** a * u)


@pytest.mark.parametrize("spec,p,index", REDUCTION_PRIMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_reduce_matches_the_localized_system(spec, p, index, data):
    # a representative is reduced and congruent to x mod p^k; there is one
    # such per class, so this pins reduce(x) down completely
    R, x = data.draw(locally_integral(factor_rational_prime(make_ring(spec), p)[index]))
    assert R.prime.valuation(x) >= 0
    r = R.reduce(x)
    assert r == R.reduce_coords(r)
    assert R.prime.valuation_at_least(x - R.lift(r), R.k)
    assert R.lift(r) == R.ring(r)


@pytest.mark.parametrize("spec,p,index", REDUCTION_PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_inverse_of_a_unit(spec, p, index, data):
    prime = factor_rational_prime(make_ring(spec), p)[index]
    R = rings.ResidueRing(prime, data.draw(st.integers(1, 4)))
    a = R.reduce_coords(tuple(data.draw(st.integers(-10 ** 4, 10 ** 4))
                              for _ in range(R.ring.degree)))
    if a != R.zero and R.prime.valuation(R.lift(a)) == 0:
        assert R.mul(a, R.inverse(a)) == R.one
    else:
        with pytest.raises(InputError):
            R.inverse(a)


def test_enumeration_budget():
    # N(p)^9 = 5^9 is past ENUMERATION_LIMIT and 5^8 is not: the ring is
    # refused at construction, before any lattice of p^9 is built
    E = make_ring("cyclotomic-5")
    P = factor_rational_prime(E, 5)[0]
    assert 5 ** 8 <= rings.ENUMERATION_LIMIT < 5 ** 9
    with pytest.raises(BudgetExceeded):
        rings.ResidueRing(P, 9)
    with pytest.raises(BudgetExceeded):
        P.residue(9)
    assert 9 not in P._power_lattices
    assert rings.ResidueRing(P, 8).size == 5 ** 8


def test_unit_inverse_in_residue(zeta5_prime):
    R = rings.ResidueRing(zeta5_prime, 2)
    E = make_ring("cyclotomic-5")
    u = R.reduce(E.zeta())
    inv = R.inverse(u)
    assert R.mul(u, inv) == R.one
    nil = R.add(u, R.neg(R.one))
    with pytest.raises(InputError):
        R.inverse(nil)
