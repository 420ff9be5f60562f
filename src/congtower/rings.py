"""Exact arithmetic in the number rings behind the built-in lattices.

Supported rings: the rational integers, the imaginary quadratic orders
O_d = Z[omega_d] for d in {1, 2, 3, 7, 11} (omega = (1+sqrt(-d))/2 when
d = 3 mod 4, else sqrt(-d)), Z[zeta] for zeta a primitive 5th root of
unity, and Z[d] with d^4 = 2d^2 + 4 (d = sqrt(1+sqrt5), used only by the
base-change check).  Each ring is given by the minimal polynomial of its
generator x, the image of x under conjugation, and its basis names; the
multiplication table (the powers x^k, k < 2n - 1, reduced by the minimal
polynomial) and the conjugation matrix are derived from them.

Elements of the fraction field are int coordinates over the power basis
plus one shared positive denominator, kept in lowest terms, so equal
elements have equal representations and integrality is just "denominator
1".  All element, residue and lattice arithmetic runs on ints; Fraction
appears only at the edges: element construction, the ``coords`` view,
scaling by a Fraction, and the value of ``norm``.

Prime ideals are stored with their Z-lattice (HNF basis), which makes
membership, valuations and residue rings O/p^k purely integer linear
algebra.  No general ideal arithmetic beyond powers of primes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import BudgetExceeded, InputError
from . import intmat

RATIONAL = "rational"
IMAG_QUAD = "imag-quad"
CYCLOTOMIC5 = "cyclotomic-5"
# Q(d), d^4 = 2d^2 + 4: only the base-change check in ringmat builds it
SQRT_1_PLUS_SQRT5 = "sqrt(1+sqrt5)"

SUPPORTED_D = (1, 2, 3, 7, 11)

class NumberRing:
    """Ring descriptor: Z[x]/(min_poly) on the power basis 1, x, ..., x^(n-1),
    with the conjugation that sends the generator x to ``conj_gen``."""

    def __init__(self, kind, d=None):
        self.kind = kind
        self.d = d
        if kind == RATIONAL:
            # degree 1: the tables hold only 1 * 1 = 1 and conj(1) = 1
            self.min_poly, conj_gen, self.basis_names = (0, 1), (0,), ("1",)
        elif kind == IMAG_QUAD:
            if d not in SUPPORTED_D:
                raise InputError("unsupported imaginary quadratic field d=%r" % (d,))
            if d % 4 == 3:
                # omega = (1+sqrt(-d))/2: omega^2 = omega - (1+d)/4
                self.min_poly, conj_gen = ((1 + d) // 4, -1, 1), (1, -1)
                self.basis_names = ("1", "(1+sqrt(-%d))/2" % d)
            else:
                # omega = sqrt(-d): omega^2 = -d
                self.min_poly, conj_gen = (d, 0, 1), (0, -1)
                self.basis_names = ("1", "sqrt(-%d)" % d)
        elif kind == CYCLOTOMIC5:
            # conj(z) = z^4 = -1 - z - z^2 - z^3
            self.min_poly, conj_gen = (1, 1, 1, 1, 1), (-1, -1, -1, -1)
            self.basis_names = ("1", "z", "z^2", "z^3")
        elif kind == SQRT_1_PLUS_SQRT5:
            # d = sqrt(1+sqrt5) is real, so conjugation is the identity
            self.min_poly, conj_gen = (-4, 0, -2, 0, 1), (0, 1, 0, 0)
            self.basis_names = ("1", "d", "d^2", "d^3")
        else:
            raise InputError("unsupported ring kind %r" % (kind,))
        n = self.degree = len(self.min_poly) - 1
        # powers[k] = x^k reduced by the monic minimal polynomial:
        # x * x^k shifts the coordinates up and replaces x^n by
        # -(min_poly[0] + ... + min_poly[n-1] x^(n-1))
        powers = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        while len(powers) < 2 * n - 1:
            prev = powers[-1]
            powers.append(tuple((prev[i - 1] if i else 0) - prev[-1] * c
                                for i, c in enumerate(self.min_poly[:n])))
        # x^i * x^j = x^(i+j), kept as its nonzero (coordinate, value) pairs
        self._powers = tuple(tuple((k, c) for k, c in enumerate(p) if c) for p in powers)
        # column j of the conjugation matrix is conj(x^j) = conj_gen^j
        cols = [powers[0]]
        while len(cols) < n:
            cols.append(self._mul_coords(cols[-1], conj_gen))
        self._conj = tuple(tuple(col[i] for col in cols) for i in range(n))

    @property
    def key(self):
        return (self.kind, self.d)

    def __eq__(self, other):
        return isinstance(other, NumberRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.kind == IMAG_QUAD:
            return "NumberRing(O_%d)" % self.d
        return "NumberRing(%s)" % self.kind

    # -- element constructors ------------------------------------------

    def __call__(self, coords):
        if isinstance(coords, RingElt):
            if coords.ring is not self and coords.ring != self:
                raise InputError("element of %r used in %r" % (coords.ring, self))
            return coords
        if isinstance(coords, int):
            return RingElt(self, (coords,) + (0,) * (self.degree - 1))
        if isinstance(coords, Fraction):
            coords = (coords,) + (0,) * (self.degree - 1)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise InputError("expected %d coordinates, got %d" % (self.degree, len(coords)))
        den = math.lcm(*(c.denominator for c in coords))
        return RingElt(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def gen(self):
        """The non-rational basis generator (omega or zeta)."""
        if self.degree == 1:
            return self.one
        return self((0, 1) + (0,) * (self.degree - 2))

    def zeta(self):
        if self.kind != CYCLOTOMIC5:
            raise InputError("zeta lives in the cyclotomic ring")
        return self.gen()

    # -- element arithmetic (coordinate level) -------------------------

    def _mul_coords(self, a, b):
        """Coordinates of a*b: int tuples in, an int tuple out."""
        n = self.degree
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if not ai:
                continue
            for j in range(n):
                bj = b[j]
                if not bj:
                    continue
                c = ai * bj
                for k, m in self._powers[i + j]:
                    out[k] += c * m
        return tuple(out)

    def _conj_coords(self, a):
        n = self.degree
        return tuple(
            sum(self._conj[i][j] * a[j] for j in range(n)) for i in range(n)
        )

    def mult_matrix(self, a):
        """Int matrix of y -> a*y over the integral basis (columns = a*b_j)
        for int coordinates a."""
        n = self.degree
        cols = [self._mul_coords(a, tuple(int(t == j) for t in range(n)))
                for j in range(n)]
        return tuple(tuple(col[i] for col in cols) for i in range(n))


class RingElt:
    """Element of a NumberRing's fraction field: the basis coordinates are
    num[i] / den, with int num, int den > 0 and gcd(den, *num) == 1, so equal
    elements have equal (num, den)."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=1):
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        self.ring = ring
        self.num = num
        self.den = den

    @property
    def coords(self):
        """The coordinates as reduced Fractions (read-only view)."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def __add__(self, other):
        other = self.ring(other)
        a, b = self.den, other.den
        return RingElt(self.ring, tuple(x * b + y * a for x, y in zip(self.num, other.num)),
                       a * b)

    __radd__ = __add__

    def __neg__(self):
        return RingElt(self.ring, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self.ring(other)
        a, b = self.den, other.den
        return RingElt(self.ring, tuple(x * b - y * a for x, y in zip(self.num, other.num)),
                       a * b)

    def __rsub__(self, other):
        return self.ring(other) - self

    def __mul__(self, other):
        if not isinstance(other, RingElt):
            if isinstance(other, int):
                return RingElt(self.ring, tuple(a * other for a in self.num), self.den)
            if isinstance(other, Fraction):
                p = other.numerator
                return RingElt(self.ring, tuple(a * p for a in self.num),
                               self.den * other.denominator)
        other = self.ring(other)
        return RingElt(self.ring, self.ring._mul_coords(self.num, other.num),
                       self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return RingElt(self.ring, tuple(a * q for a in self.num), self.den * p)
        other = self.ring(other)
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Exact inverse in the fraction field.  With M the int matrix of
        y -> num*y, (num/den)^-1 = den * adj(M) e_0 / det(M), and column 0
        of adj(M) is the cofactor row that expands det(M)."""
        m = self.ring.mult_matrix(self.num)
        cof = _first_row_cofactors(m)
        det = sum(a * c for a, c in zip(m[0], cof))
        if det == 0:
            raise ZeroDivisionError("element is zero")
        if det < 0:
            det, cof = -det, [-c for c in cof]
        return RingElt(self.ring, tuple(self.den * c for c in cof), det)

    def conj(self):
        return RingElt(self.ring, self.ring._conj_coords(self.num), self.den)

    def norm(self):
        """Field norm down to Q (determinant of the multiplication map)."""
        return Fraction(_int_det(self.ring.mult_matrix(self.num)),
                        self.den ** self.ring.degree)

    def is_zero(self):
        return not any(self.num)

    def is_integral(self):
        return self.den == 1

    def int_coords(self):
        if self.den != 1:
            raise InputError("element %r is not integral" % (self,))
        return self.num

    def denominator(self):
        return self.den

    def __eq__(self, other):
        if not isinstance(other, RingElt):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.ring(other)
        return (
            self.num == other.num
            and self.den == other.den
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        names = self.ring.basis_names
        terms = []
        for c, nm in zip(self.coords, names):
            if c == 0:
                continue
            if nm == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(nm)
            else:
                terms.append("%s*%s" % (c, nm))
        return " + ".join(terms) if terms else "0"


def _first_row_cofactors(m):
    """Cofactors (-1)^j det(m without row 0 and column j) of a square int
    matrix; det(m) is their dot product with m[0]."""
    rest = m[1:]
    out = []
    for j in range(len(m)):
        minor = _int_det([row[:j] + row[j + 1:] for row in rest])
        out.append(-minor if j % 2 else minor)
    return out


def _int_det(m):
    """Exact determinant of a square int matrix: direct up to 2 x 2, else by
    cofactor expansion (the rings here have degree at most 4)."""
    if len(m) <= 2:
        if len(m) < 2:
            return m[0][0] if m else 1
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(a * c for a, c in zip(m[0], _first_row_cofactors(m)))


# ---------------------------------------------------------------------------
# ring construction


_RING_CACHE = {}


def make_ring(spec):
    """Build a ring descriptor from a short spec.

    Accepted specs: "rational", "cyclotomic-5", an integer d in {1,2,3,7,11},
    or strings like "d=7" / "O_7" / "imag-quad-7".
    """
    key = _parse_ring_spec(spec)
    if key not in _RING_CACHE:
        _RING_CACHE[key] = NumberRing(*key)
    return _RING_CACHE[key]


def _parse_ring_spec(spec):
    if isinstance(spec, NumberRing):
        return spec.key
    if isinstance(spec, int) and not isinstance(spec, bool):
        return (IMAG_QUAD, spec)
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("rational", "q", "z"):
            return (RATIONAL, None)
        if s in ("cyclotomic-5", "cyclotomic5", "z[zeta5]", "zeta5"):
            return (CYCLOTOMIC5, None)
        for prefix in ("d=", "o_", "imag-quad-", "imag_quad_"):
            if s.startswith(prefix):
                try:
                    return (IMAG_QUAD, int(s[len(prefix):]))
                except ValueError:
                    break
        if s.isdigit():
            return (IMAG_QUAD, int(s))
    raise InputError("cannot parse ring spec %r" % (spec,))


def ring_tag(ring):
    """Stable string tag for JSON files."""
    if ring.kind == RATIONAL:
        return "rational"
    if ring.kind == CYCLOTOMIC5:
        return "cyclotomic-5"
    return "d=%d" % ring.d


# ---------------------------------------------------------------------------
# prime ideals


class PrimeIdeal:
    """Prime ideal over a rational prime p, with its Z-lattice in basis coords."""

    def __init__(self, ring, p, gens, e, f):
        self.ring = ring
        self.p = p
        self.gens = tuple(gens)
        self.e = e
        self.f = f
        self._power_lattices = {}
        self._power_lattices[1] = self._lattice_from_gens(self.gens)

    def norm(self):
        return self.p ** self.f

    def _lattice_from_gens(self, gens):
        ring = self.ring
        n = ring.degree
        rows = [[self.p if i == j else 0 for j in range(n)] for i in range(n)]
        for g in gens:
            # the rows g*b_j are the columns of g's multiplication matrix
            rows.extend(list(col) for col in zip(*ring.mult_matrix(g.int_coords())))
        h, _ = intmat.hnf(rows)
        return tuple(tuple(r) for r in h[: n])

    def power_lattice(self, k):
        """HNF basis (rows) of the Z-lattice of p^k."""
        if k < 0:
            raise InputError("negative ideal power")
        if k == 0:
            n = self.ring.degree
            return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        if k not in self._power_lattices:
            base = self.power_lattice(1)
            prev = self.power_lattice(k - 1)
            ring = self.ring
            n = ring.degree
            rows = [list(ring._mul_coords(a, b)) for a in prev for b in base]
            h, _ = intmat.hnf(rows)
            self._power_lattices[k] = tuple(tuple(r) for r in h[: n])
        return self._power_lattices[k]

    def valuation_at_least(self, x, level):
        """Is v_p(x) >= level?  One lattice membership: for x = num/den,
        num must lie in p^(level + e v_p(den)), and an exponent <= 0 asks
        nothing of the integral num."""
        x = self.ring(x)
        if x.is_zero():
            return True
        k = level + self.e * _int_valuation(x.den, self.p)
        return k <= 0 or intmat.lattice_contains(self.power_lattice(k), x.num)

    def valuation(self, x):
        """p-adic valuation on the fraction field; +inf on 0."""
        x = self.ring(x)
        if x.is_zero():
            return math.inf
        vd = self.e * _int_valuation(x.den, self.p)
        # num is a nonzero integer of the ring, so it leaves p^v for some v
        v = 0
        while intmat.lattice_contains(self.power_lattice(v + 1), x.num):
            v += 1
        return v - vd

    def __repr__(self):
        return "PrimeIdeal(p=%d, e=%d, f=%d, gens=%r)" % (self.p, self.e, self.f, self.gens)


def _as_int(fr):
    fr = Fraction(fr)
    if fr.denominator != 1:
        raise InputError("expected integer, got %r" % (fr,))
    return fr.numerator


def _int_valuation(n, p):
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_divmod_monic(num, den, p):
    """Divide polynomials over F_p, den monic; coefficient lists, low degree first."""
    num = [c % p for c in num]
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    while len(num) - 1 >= dd and any(num):
        k = len(num) - 1 - dd
        c = num[-1] % p
        out[k] = c
        for i, dc in enumerate(den):
            num[k + i] = (num[k + i] - c * dc) % p
        while num and num[-1] % p == 0:
            num.pop()
        if not num:
            num = [0]
    rem = [c % p for c in num]
    return out, rem


def _factor_monic_mod_p(coeffs, p):
    """Factor a monic polynomial over F_p into irreducibles (degree <= 4).

    Brute force: strip roots, then search monic quadratic divisors.
    Returns a list of (factor_coeffs, multiplicity).
    """
    coeffs = [c % p for c in coeffs]
    factors = {}
    work = list(coeffs)

    def add(fac):
        key = tuple(fac)
        factors[key] = factors.get(key, 0) + 1

    changed = True
    while len(work) > 1 and changed:
        changed = False
        for r in range(p):
            if sum(c * pow(r, i, p) for i, c in enumerate(work)) % p == 0:
                lin = [(-r) % p, 1]
                work, rem = _poly_divmod_monic(work, lin, p)
                assert not any(rem)
                add(lin)
                changed = True
                break
    deg = len(work) - 1
    if deg == 0:
        pass
    elif deg in (2, 3):
        # no roots left: degree-2 is irreducible; degree 3 with no roots is too
        if deg == 2:
            add(work)
        else:
            add(work)
    elif deg == 4:
        found = False
        for b in range(p):
            for c in range(p):
                quad = [c, b, 1]
                quo, rem = _poly_divmod_monic(work, quad, p)
                if not any(rem):
                    add(quad)
                    add([x % p for x in quo])
                    found = True
                    break
            if found:
                break
        if not found:
            add(work)
    return [(list(k), m) for k, m in sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def _small_generator_search(ideal):
    """Look for a single generator: small coords, right norm, inside the ideal.

    Candidates are ordered so that e.g. zeta-1 beats its unit multiples.
    """
    ring = ideal.ring
    n = ring.degree
    target = ideal.norm()

    def preference(t):
        support = [i for i, c in enumerate(t) if c]
        top = support[-1] if support else 0
        return (sum(abs(c) for c in t), top, -t[top],
                tuple(-c for c in t))

    candidates = sorted(itertools.product(range(-2, 3), repeat=n),
                        key=preference)
    for coords in candidates:
        if not any(coords):
            continue
        x = ring(coords)
        if abs(_as_int(x.norm())) == target and ideal.valuation_at_least(x, 1):
            probe = PrimeIdeal(ring, ideal.p, (x,), ideal.e, ideal.f)
            if probe.power_lattice(1) == ideal.power_lattice(1):
                return x
    return None


def factor_rational_prime(ring, p):
    """Factor (p) in the ring; returns PrimeIdeal list sorted deterministically."""
    if not _is_small_prime(p):
        raise InputError("p=%r is not a prime in the supported range" % (p,))
    if p > 100:
        raise InputError("primes above 100 are out of the supported desk scale")
    ring = make_ring(ring)
    if ring.kind == RATIONAL:
        return [PrimeIdeal(ring, p, (ring(p),), 1, 1)]
    # factor the minimal polynomial of the generator mod p
    coeffs = list(ring.min_poly)
    facs = _factor_monic_mod_p(coeffs, p)
    ideals = []
    gen = ring.gen()
    for fac, mult in facs:
        # ideal (p, f(gen)), residue degree deg f, ramification = multiplicity
        val = ring.zero
        for i, c in enumerate(fac):
            val = val + ring(c) * gen ** i
        ideal = PrimeIdeal(ring, p, (ring(p), val), mult, len(fac) - 1)
        single = _small_generator_search(ideal)
        if single is not None:
            ideal = PrimeIdeal(ring, p, (single,), mult, len(fac) - 1)
        ideals.append(ideal)
    total = 1
    for ideal in ideals:
        total *= ideal.norm() ** ideal.e
    assert total == p ** ring.degree, "norm bookkeeping failed for p=%d" % p
    return ideals


def _is_small_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    return all(p % q for q in range(2, int(p ** 0.5) + 1))


# ---------------------------------------------------------------------------
# residue rings O/p^k


ENUMERATION_LIMIT = 10 ** 6


class ResidueRing:
    """O/p^k with canonical coordinate representatives.

    Representatives are integer tuples reduced against the HNF basis of the
    p^k lattice: 0 <= x_i < H[i][i] after back-substitution.  All group and
    ring structure is computed by lifting to O and reducing.
    """

    def __init__(self, prime, k):
        if k < 1:
            raise InputError("residue ring exponent must be >= 1")
        self.prime = prime
        self.k = k
        self.ring = prime.ring
        self.lattice = prime.power_lattice(k)
        n = self.ring.degree
        self.diag = tuple(self.lattice[i][i] for i in range(n))
        self.size = 1
        for d in self.diag:
            self.size *= d
        assert self.size == prime.norm() ** k
        self._inv_cache = {}

    # -- representatives ----------------------------------------------

    def reduce_coords(self, coords):
        # the lattice basis is upper triangular, so reduce top-down
        x = list(coords)
        n = len(x)
        for i in range(n):
            q = x[i] // self.lattice[i][i]
            if q:
                row = self.lattice[i]
                for j in range(i, n):
                    x[j] -= q * row[j]
        return tuple(x)

    def reduce(self, elt):
        """Reduce a ring element; any p-locally integral element of the
        fraction field is accepted (localized reduction).

        For x = n/m the representative r solves m r = n mod p^(k + v(m)),
        an integer linear system; this works even when the denominator is
        divisible by p at the conjugate primes.
        """
        elt = self.ring(elt)
        num, den = elt.num, elt.den
        if den == 1:
            return self.reduce_coords(num)
        if self.prime.valuation(elt) < 0:
            raise InputError("element %r is not locally integral at p" % (elt,))
        vm = self.prime.valuation(self.ring(den))
        if vm == math.inf:
            raise InputError("zero denominator")
        lat = self.prime.power_lattice(self.k + int(vm))
        n = self.ring.degree
        rows = [
            [den if i == j else 0 for j in range(n)] + [lat[j][i] for j in range(n)]
            for i in range(n)
        ]
        sol = intmat.solve_integer_linear(rows, list(num))
        if sol is None:
            raise AssertionError("localized reduction failed unexpectedly")
        return self.reduce_coords(sol[:n])

    def lift(self, rep):
        return self.ring(rep)

    @property
    def zero(self):
        return self.reduce_coords((0,) * self.ring.degree)

    @property
    def one(self):
        return self.reduce(self.ring.one)

    # -- arithmetic on representatives ---------------------------------

    def add(self, a, b):
        return self.reduce_coords(tuple(x + y for x, y in zip(a, b)))

    def sub(self, a, b):
        return self.reduce_coords(tuple(x - y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce_coords(tuple(-x for x in a))

    def mul(self, a, b):
        return self.reduce_coords(self.ring._mul_coords(a, b))

    def pow(self, a, k):
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def is_unit(self, a):
        return self.prime.valuation(self.lift(a)) == 0 if a != self.zero else False

    def inverse(self, a):
        if a in self._inv_cache:
            return self._inv_cache[a]
        n = self.ring.degree
        # solve a*x + (lattice vector) = 1 over Z
        sol = intmat.solve_integer_linear(
            [list(m_row) + list(lat_col)
             for m_row, lat_col in zip(self.ring.mult_matrix(a), zip(*self.lattice))],
            [1] + [0] * (n - 1),
        )
        if sol is None:
            raise InputError("element %r is not a unit in O/p^%d" % (a, self.k))
        inv = self.reduce_coords(sol[:n])
        self._inv_cache[a] = inv
        return inv

    # -- structure -----------------------------------------------------

    def elements(self):
        if self.size > ENUMERATION_LIMIT:
            raise BudgetExceeded(
                "residue ring of size %d exceeds the enumeration limit" % self.size,
                estimate=self.size, budget=ENUMERATION_LIMIT,
            )
        ranges = [range(d) for d in self.diag]
        for combo in itertools.product(*ranges):
            yield self.reduce_coords(combo)

    def has_involution(self):
        ring = self.ring
        return all(
            intmat.lattice_contains(self.lattice, ring(row).conj().int_coords())
            for row in self.lattice
        )

    def involution(self, a):
        if not self.has_involution():
            raise InputError("conjugation does not preserve this ideal power")
        return self.reduce(self.lift(a).conj())

    def reduce_to_level(self, other, a):
        """Natural map O/p^k -> O/p^j for j < k."""
        if other.prime is not self.prime or other.k > self.k:
            raise InputError("not a coarser residue ring")
        return other.reduce_coords(a)

    def __repr__(self):
        return "ResidueRing(N(p)=%d, k=%d, size=%d)" % (
            self.prime.norm(), self.k, self.size)


def residue_ring(prime, k):
    size = prime.norm() ** k
    if size > ENUMERATION_LIMIT:
        raise BudgetExceeded(
            "residue ring size %d exceeds enumeration budget" % size,
            estimate=size, budget=ENUMERATION_LIMIT,
        )
    return ResidueRing(prime, k)


__all__ = [
    "NumberRing", "RingElt", "PrimeIdeal", "ResidueRing",
    "make_ring", "factor_rational_prime", "residue_ring", "ring_tag",
    "RATIONAL", "IMAG_QUAD", "CYCLOTOMIC5", "SUPPORTED_D", "ENUMERATION_LIMIT",
]
