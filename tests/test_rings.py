import math
import random
from fractions import Fraction

import pytest

from congtower import catalog, rings
from congtower.errors import BudgetExceeded, InputError
from congtower.rings import factor_rational_prime, make_ring, residue_ring


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
    assert P.gens == (E.zeta() - E.one,)
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
    pi = prime.gens[0]
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
    g = P.gens[0]
    assert abs(int(g.norm())) == 2


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
    R = residue_ring(zeta5_prime, 2)
    assert R.size == 25
    els = list(R.elements())
    assert len(els) == len(set(els)) == 25
    E = make_ring("cyclotomic-5")
    eps = R.reduce(E.zeta())
    nil = R.sub(eps, R.one)
    assert R.mul(nil, nil) == R.zero          # (eps-1)^2 = 0
    assert R.pow(eps, 5) == R.one             # eps^5 = 1
    # the Galois involution sends eps to eps^4 = 2 - eps (negation of eps-1)
    assert R.involution(eps) == R.pow(eps, 4)
    two = R.reduce(E(2))
    assert R.involution(eps) == R.sub(two, eps)


def test_residue_ring_level1_fields(zeta5_prime, gaussian_prime2):
    R5 = residue_ring(zeta5_prime, 1)
    assert R5.size == 5
    R2 = residue_ring(gaussian_prime2, 1)
    assert R2.size == 2
    els = list(R2.elements())
    assert len(els) == 2


def test_residue_ring_is_hom(zeta5_prime, rng):
    E = make_ring("cyclotomic-5")
    R = residue_ring(zeta5_prime, 2)
    for _ in range(300):
        x, y = random_elt(rng, E), random_elt(rng, E)
        assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
        assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))


def test_residue_tower_compatibility(zeta5_prime, rng):
    E = make_ring("cyclotomic-5")
    R2 = residue_ring(zeta5_prime, 2)
    R1 = residue_ring(zeta5_prime, 1)
    for _ in range(100):
        x = random_elt(rng, E)
        via_tower = R2.reduce_to_level(R1, R2.reduce(x))
        assert via_tower == R1.reduce(x)


def test_residue_involution_requires_stable_ideal():
    ring = make_ring(7)
    p = factor_rational_prime(ring, 2)[0]
    R = residue_ring(p, 1)
    assert not R.has_involution()
    with pytest.raises(InputError):
        R.involution(R.one)


def test_residue_localized_reduction(gaussian_prime2):
    ring = make_ring(1)
    R = residue_ring(gaussian_prime2, 2)
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


def test_enumeration_budget():
    E = make_ring("cyclotomic-5")
    P = factor_rational_prime(E, 5)[0]
    with pytest.raises(BudgetExceeded):
        residue_ring(P, 10)


def test_unit_inverse_in_residue(zeta5_prime):
    R = residue_ring(zeta5_prime, 2)
    E = make_ring("cyclotomic-5")
    u = R.reduce(E.zeta())
    inv = R.inverse(u)
    assert R.mul(u, inv) == R.one
    nil = R.sub(R.reduce(E.zeta()), R.one)
    with pytest.raises(InputError):
        R.inverse(nil)
