"""Exact arithmetic in the number rings behind the built-in lattices.

Supported rings: the rational integers, the imaginary quadratic orders
O_d = Z[omega_d] for d in {1, 2, 3, 7, 11} (omega = (1+sqrt(-d))/2 when
d = 3 mod 4, else sqrt(-d)), Z[zeta] for zeta a primitive 5th root of
unity, and Z[d] with d^4 = 2d^2 + 4 (d = sqrt(1+sqrt5), used only by the
base-change check).  Each ring is given by the minimal polynomial of its
generator x, the image of x under conjugation, and its basis names; the
multiplication table (the powers x^k, k < 2n - 1, reduced by the minimal
polynomial) and the conjugation matrix are derived from them.  Products go
through one kernel, ``NumberRing.dot_coords``: a sum of products is
convolved unreduced and folded by the minimal polynomial once per dot, a
single product being the one-term dot; the kernel is written out for each
supported degree, 1, 2 and 4.  Multiplication by x alone (the
reduced powers, the columns of a multiplication matrix) is a shift and one
fold, ``NumberRing._times_gen``.  There is one cofactor expansion,
``det``/``cofactors``, and one square-and-multiply, ``power``, for every
representation: each takes its ring's operations, so ints (norms and
inverses), coordinate tuples (``ringmat``) and residue indices (``congsub``)
all expand and power here.

Elements of the fraction field are int coordinates over the power basis
plus one shared positive denominator, kept in lowest terms, so equal
elements have equal representations and integrality is just "denominator
1".  All element, residue and lattice arithmetic runs on ints, residue
reduction included; Fraction appears only at the edges:
element construction from Fractions, scaling by a Fraction, and the value
of ``norm``.

Every prime ideal of a supported ring is principal, p = pi O, and a
``PrimeIdeal`` is built from its one generator pi.  It is the single
owner of everything local at p: the powers pi^k for every int k, with pi
inverted once, which make x / pi^v an exact quotient of int coordinates;
the Z-lattices of the powers p^k = pi^k O (the HNF of pi^k's
multiplication matrix), which make membership and valuations lattice
tests and are the moduli of the residue rings O/p^k; and the inverses of
units mod p^k.  A residue mod p^k is a vector reduced against the lattice
of p^k (``reduce_coords``), and residue arithmetic is the ring's own
multiplication followed by that reduction, on ring integers only: a unit
is inverted by Newton's lift x (2 - u x) of its inverse in the residue
field, so no integer linear system is solved.  A ``ResidueRing`` also
numbers its residues and keeps add, mul and neg tables on those indices,
which is how ``congsub`` computes.  No general ideal arithmetic beyond
powers of primes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import InputError
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
        # powers[k] = x^k reduced by the monic minimal polynomial
        powers = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        while len(powers) < 2 * n - 1:
            powers.append(self._times_gen(powers[-1]))
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

    # elements are immutable, so each ring builds its zero and one once,
    # on first read
    @functools.cached_property
    def zero(self):
        return self(0)

    @functools.cached_property
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

    def dot_coords(self, xs, ys):
        """Coordinates of sum_t x_t * y_t: int coordinate tuples in, an int
        tuple out.  The polynomial products of all terms are summed
        unreduced, up to x^(2n-2), and the powers x^k with k >= n are folded
        back by the minimal polynomial once for the whole sum.  Every ring
        has degree 1, 2 or 4, and each degree writes the sum out: degree 2
        folds x^2 in closed form, degree 4 folds x^4, x^5 and x^6 by their
        reduced powers."""
        n = self.degree
        if n == 1:
            return (sum([a * b for (a,), (b,) in zip(xs, ys)]),)
        if n == 2:
            s0 = s1 = s2 = 0
            for (a0, a1), (b0, b1) in zip(xs, ys):
                s0 += a0 * b0
                s1 += a0 * b1 + a1 * b0
                s2 += a1 * b1
            # x^2 = -c0 - c1 x
            c0, c1 = self.min_poly[0], self.min_poly[1]
            return (s0 - c0 * s2, s1 - c1 * s2)
        s0 = s1 = s2 = s3 = s4 = s5 = s6 = 0
        for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(xs, ys):
            s0 += a0 * b0
            s1 += a0 * b1 + a1 * b0
            s2 += a0 * b2 + a1 * b1 + a2 * b0
            s3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            s4 += a1 * b3 + a2 * b2 + a3 * b1
            s5 += a2 * b3 + a3 * b2
            s6 += a3 * b3
        out = [s0, s1, s2, s3]
        for c, power in zip((s4, s5, s6), self._powers[4:]):
            for i, m in power:
                out[i] += c * m
        return tuple(out)

    def _times_gen(self, a):
        """Coordinates of x*a: the coordinates shift up and x^n is replaced
        by -(min_poly[0] + ... + min_poly[n-1] x^(n-1))."""
        top = a[-1]
        return tuple((a[i - 1] if i else 0) - top * c
                     for i, c in enumerate(self.min_poly[:-1]))

    def _mul_coords(self, a, b):
        """Coordinates of a*b: int tuples in, an int tuple out."""
        return self.dot_coords((a,), (b,))

    def _conj_coords(self, a):
        n = self.degree
        return tuple(
            sum(self._conj[i][j] * a[j] for j in range(n)) for i in range(n)
        )

    def mult_matrix(self, a):
        """Int matrix of y -> a*y over the integral basis (columns = a*x^j)
        for int coordinates a; column j + 1 is x times column j."""
        cols = [tuple(a)]
        while len(cols) < self.degree:
            cols.append(self._times_gen(cols[-1]))
        return tuple(zip(*cols))


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
        return power(self, k, operator.mul) if k else self.ring.one

    def inverse(self):
        """Exact inverse in the fraction field.  With M the int matrix of
        y -> num*y, (num/den)^-1 = den * adj(M) e_0 / det(M), and column 0
        of adj(M) is the cofactor row that expands det(M)."""
        m = self.ring.mult_matrix(self.num)
        cof = cofactors(m, _int_dot, operator.neg, 0, 1)
        d = _int_dot(m[0], cof)
        if d == 0:
            raise ZeroDivisionError("element is zero")
        if d < 0:
            d, cof = -d, [-c for c in cof]
        return RingElt(self.ring, tuple(self.den * c for c in cof), d)

    def conj(self):
        return RingElt(self.ring, self.ring._conj_coords(self.num), self.den)

    def norm(self):
        """Field norm down to Q (determinant of the multiplication map)."""
        return Fraction(det(self.ring.mult_matrix(self.num), _int_dot,
                            operator.neg, 0),
                        self.den ** self.ring.degree)

    def is_zero(self):
        return not any(self.num)

    def is_integral(self):
        return self.den == 1

    def int_coords(self):
        if self.den != 1:
            raise InputError("element %r is not integral" % (self,))
        return self.num

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
        """The nonzero coordinates as ``str`` of their reduced fractions,
        "a" or "a/b", joined with the basis names; "0" for zero."""
        den = self.den
        terms = []
        for a, nm in zip(self.num, self.ring.basis_names):
            if a == 0:
                continue
            g = math.gcd(a, den)
            c = "%d" % (a // g) if g == den else "%d/%d" % (a // g, den // g)
            if nm == "1":
                terms.append(c)
            elif c == "1":
                terms.append(nm)
            else:
                terms.append("%s*%s" % (c, nm))
        return " + ".join(terms) if terms else "0"


def det(m, dot, neg, zero):
    """The determinant of a square matrix over any ring, by expansion along
    the first row.  The ring is given by ``dot(xs, ys)``, the sum of the
    products x_t y_t, ``neg`` and its ``zero``: ints, coordinate tuples and
    residues all expand here.  A zero entry of the row is skipped with its
    minor, and each kept cofactor takes its sign from its column; a 2 x 2
    matrix is the one dot of its first row with (m11, -m10)."""
    if len(m) <= 2:
        return m[0][0] if len(m) == 1 else dot(m[0], (m[1][1], neg(m[1][0])))
    rest = m[1:]
    row, cof = [], []
    for j, x in enumerate(m[0]):
        if x != zero:
            c = det([r[:j] + r[j + 1:] for r in rest], dot, neg, zero)
            row.append(x)
            cof.append(neg(c) if j % 2 else c)
    return dot(row, cof)


def cofactors(m, dot, neg, zero, one):
    """The signed first-row cofactors (-1)^j det(m without row 0 and column
    j) of a square matrix, ``det`` computing each minor; det(m) is their
    dot with m[0].  ``one`` is the cofactor of a 1 x 1 matrix."""
    if len(m) == 1:
        return [one]
    rest = m[1:]
    out = [det([r[:j] + r[j + 1:] for r in rest], dot, neg, zero)
           for j in range(len(m))]
    return [neg(c) if j % 2 else c for j, c in enumerate(out)]


def power(x, e, mul):
    """x^e for an int e >= 1 by square-and-multiply under ``mul``, never
    multiplying by a one: at most 2 log2(e) products."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def _int_dot(xs, ys):
    return sum(map(operator.mul, xs, ys))


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


# ---------------------------------------------------------------------------
# prime ideals


class PrimeIdeal:
    """The prime ideal p = pi O over the rational prime p, with
    ramification e and residue degree f.  It owns what every computation
    local at p shares: the powers pi^k for every int k, pi being inverted
    once, the Z-lattices of the powers p^k (HNF rows in basis coords) and
    the inverses of units mod p^k."""

    def __init__(self, ring, p, pi, e, f):
        self.ring = ring
        self.p = p
        self.pi = pi
        self.e = e
        self.f = f
        self._power_lattices = {}
        self._pi_powers = {0: ring.one, 1: pi}
        # (unit mod p^k, k) -> its inverse mod p^k
        self._unit_inverses = {}

    def norm(self):
        return self.p ** self.f

    def power_lattice(self, k):
        """HNF basis (rows) of the Z-lattice of p^k = pi^k O, k >= 0: the
        rows pi^k x^j are the columns of pi^k's multiplication matrix."""
        if k < 0:
            raise InputError("negative ideal power")
        if k not in self._power_lattices:
            num = self.uniformizer_power(k).num
            self._power_lattices[k] = tuple(
                tuple(r) for r in intmat.hnf(list(zip(*self.ring.mult_matrix(num)))))
        return self._power_lattices[k]

    def uniformizer_power(self, k):
        """pi^k for any int k, made once per k; negative k are powers of
        pi^-1, the one inverse of pi."""
        powers = self._pi_powers
        if k not in powers:
            if k == -1:
                powers[k] = self.pi.inverse()
            else:
                powers[k] = self.uniformizer_power(1 if k > 0 else -1) ** abs(k)
        return powers[k]

    def exact_quotient(self, coords, v):
        """Int coordinates of x / pi^v for the ring integer x with int
        coordinates `coords` and v_p(x) >= v.  pi^v generates p^v, so the
        quotient is a ring integer, and pi^-v = num/den with den a power of
        p, so each coordinate of x num divides by den exactly."""
        if not v:
            return tuple(coords)
        inv = self.uniformizer_power(-v)
        den = inv.den
        return tuple(c // den for c in self.ring._mul_coords(coords, inv.num))

    def unit_inverse(self, coords, k):
        """The representative mod p^k, k >= 1, of u^-1 for the ring integer
        u with int coordinates `coords`, cached by (u mod p^k, k);
        InputError unless u is a unit at p.  The inverse u^(2 N(p) - 3) in
        the residue field O/p is lifted by Newton's step x <- x (2 - u x):
        1 - u x' = (1 - u x)^2, so each step doubles the power of p that
        1 - u x lies in."""
        lattice = self.power_lattice(k)
        u = reduce_coords(lattice, coords)
        key = (u, k)
        if key in self._unit_inverses:
            return self._unit_inverses[key]
        field = self.power_lattice(1)
        r = reduce_coords(field, u)
        if not any(r):
            raise InputError("element %r is not a unit in O/p^%d" % (u, k))
        mul = self.ring._mul_coords
        # r^(N(p) - 1) = 1, so r^(2 N(p) - 3) = r^(N(p) - 2), and the
        # exponent stays >= 1 at N(p) = 2
        x = power(r, 2 * self.norm() - 3,
                  lambda a, b: reduce_coords(field, mul(a, b)))
        reached = 1
        while reached < k:
            ux = mul(u, x)
            x = reduce_coords(lattice,
                              mul(x, (2 - ux[0],) + tuple(-c for c in ux[1:])))
            reached *= 2
        self._unit_inverses[key] = x
        return x

    def numerator_at_least(self, num, level):
        """Is v_p(num) >= level for the ring integer with int coordinates
        num?  A level <= 0 asks nothing of it."""
        return level <= 0 or not any(
            reduce_coords(self.power_lattice(level), num))

    def valuation(self, x):
        """p-adic valuation on the fraction field; +inf on 0."""
        x = self.ring(x)
        if x.is_zero():
            return math.inf
        return (self.numerator_valuation(x.num)
                - self.e * _int_valuation(x.den, self.p))

    def numerator_valuation(self, num):
        """v_p of the ring integer with int coordinates num; +inf on 0."""
        if not any(num):
            return math.inf
        # p^t dividing every coordinate puts num in p^t O, inside p^(e t);
        # a nonzero integer of the ring leaves p^v for some v
        v = self.e * _int_valuation(math.gcd(*num), self.p)
        while not any(reduce_coords(self.power_lattice(v + 1), num)):
            v += 1
        return v

    def __repr__(self):
        return "PrimeIdeal(p=%d, e=%d, f=%d, pi=%r)" % (self.p, self.e, self.f, self.pi)


def reduce_coords(lattice, coords):
    """The int coordinates `coords` reduced against the upper triangular
    HNF basis `lattice` of a full-rank Z-lattice: 0 <= x_i < H[i][i],
    reducing top-down.  Two vectors have the same reduction exactly when
    they differ by a lattice vector."""
    x = list(coords)
    n = len(x)
    for i in range(n):
        row = lattice[i]
        q = x[i] // row[i]
        if q:
            for j in range(i, n):
                x[j] -= q * row[j]
    return tuple(x)


def _ideal_lattice(ring, p, g):
    """HNF basis (rows) of the Z-lattice of the ideal (p, g)."""
    n = ring.degree
    rows = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    # the rows g*b_j are the columns of g's multiplication matrix
    rows.extend(list(col) for col in zip(*ring.mult_matrix(g.int_coords())))
    h = intmat.hnf(rows)
    return tuple(tuple(r) for r in h[: n])


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

    Trial division: by each monic linear polynomial while the rest has
    degree >= 2, then by each monic quadratic while it has degree 4.  What
    is left has no factor of at most half its degree, so it is irreducible.
    Returns a list of (factor_coeffs, multiplicity).
    """
    work = [c % p for c in coeffs]
    factors = {}
    for deg in (1, 2):
        for tail in itertools.product(range(p), repeat=deg):
            fac = tail + (1,)
            while len(work) > 2 * deg:
                quo, rem = _poly_divmod_monic(work, fac, p)
                if any(rem):
                    break
                work = quo
                factors[fac] = factors.get(fac, 0) + 1
    if len(work) > 1:
        factors[tuple(work)] = factors.get(tuple(work), 0) + 1
    return [(list(k), m) for k, m in sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def _norm_solutions(ring, target):
    """Every coordinate pair (a, b) with N(a + b x) = target, x the generator
    of an imaginary quadratic ring.  With x^2 + c1 x + c0 = 0,
    4 N(a + b x) = (2a - c1 b)^2 + (4 c0 - c1^2) b^2, a positive definite
    form, so b is bounded and each b leaves at most two a."""
    c0, c1, _ = ring.min_poly
    disc = 4 * c0 - c1 * c1
    bound = math.isqrt(4 * target // disc)
    out = []
    for b in range(-bound, bound + 1):
        rest = 4 * target - disc * b * b
        t = math.isqrt(rest)
        if t * t == rest:
            out.extend(((s + c1 * b) // 2, b) for s in {t, -t}
                       if (s + c1 * b) % 2 == 0)
    return out


def _trace_form_ball(lattice, bound):
    """Every vector c of a row lattice in Z^4 (square upper-triangular HNF)
    with T2(c) = 5 sum(c_i^2) - (sum c_i)^2 <= bound.

    T2 is the trace form of Z[zeta5] on the power basis: sum over the
    four embeddings of |sigma(x)|^2.  With a fifth coordinate fixed at 0
    it is 5 sum(c_i^2) - (sum c_i)^2 over five values, and with K values
    known (sum S, sum of squares Q) the least value over real choices of
    the rest is 5 (K Q - S^2) / K.  Coordinates are fixed in order, each
    over the integers that keep that least value within the bound and lie
    in the residue class the HNF rows leave for it.
    """
    n = len(lattice)
    out = []

    def walk(prefix, acc, s, q):
        m = len(prefix)
        if m == n:
            out.append(tuple(prefix))
            return
        # c joins the m + 1 known values: 5 (K+1) (q + c^2) - 5 (s + c)^2
        # <= (K+1) bound with K = m + 1, i.e. a c^2 + b c + d <= 0
        a, b = 5 * (m + 1), -10 * s
        d = 5 * (m + 2) * q - 5 * s * s - (m + 2) * bound
        disc = b * b - 4 * a * d
        if disc < 0:
            return
        r = math.isqrt(disc)
        lo, hi = (-b - r - 1) // (2 * a), (-b + r + 1) // (2 * a)
        piv, t = lattice[m][m], acc[m]
        for c in range(lo + (t - lo) % piv, hi + 1, piv):
            if a * c * c + b * c + d <= 0:
                y = (c - t) // piv
                walk(prefix + [c], [x + y * h for x, h in zip(acc, lattice[m])],
                     s + c, q + c * c)

    walk([], [0] * n, 0, 0)
    return out


def _single_generator_search(ring, p, f, lattice):
    """Look for a single generator of the prime over p of residue degree f
    whose Z-lattice is ``lattice``: an x inside the ideal with |N(x)| =
    p^f, the ideal's index, has xO = the ideal.

    In an imaginary quadratic ring every element of the right norm is
    tried, so the search is complete there.  Elsewhere the coordinates
    first range over [-2, 2].  In Z[zeta5] the search then goes on,
    complete, through the ideal's points x with
    T2(x) <= 2 sqrt(5 N(p)): Q(zeta5) is CM with real unit phi, and
    multiplying a generator x by a power of phi brings
    |sigma1 x|^2 / |sigma2 x|^2 into [phi^-2, phi^2], where
    T2(x) = 2 (|sigma1 x|^2 + |sigma2 x|^2) <= 2 (phi + 1/phi) sqrt(N(p)).
    Each pool is tried in preference order, so that e.g. zeta-1 beats its
    unit multiples, and the box keeps the generators it always found.
    """
    target = p ** f

    def preference(t):
        support = [i for i, c in enumerate(t) if c]
        top = support[-1] if support else 0
        return (sum(abs(c) for c in t), top, -t[top],
                tuple(-c for c in t))

    def first_generator(pool):
        for coords in sorted(pool, key=preference):
            if any(coords) and not any(reduce_coords(lattice, coords)):
                x = ring(coords)
                if abs(x.norm()) == target:
                    return x
        return None

    if ring.kind == IMAG_QUAD:
        return first_generator(_norm_solutions(ring, target))
    x = first_generator(itertools.product(range(-2, 3), repeat=ring.degree))
    if x is None and ring.kind == CYCLOTOMIC5:
        # T2 is an integer: T2 <= 2 sqrt(5 N) is T2 <= isqrt(20 N)
        x = first_generator(_trace_form_ball(lattice, math.isqrt(20 * target)))
    return x


def factor_rational_prime(ring, p):
    """Factor (p) in the ring; the PrimeIdeals come in the order of the
    minimal polynomial's factors mod p: by residue degree, then coefficients."""
    if not _is_small_prime(p):
        raise InputError("p=%r is not a prime in the supported range" % (p,))
    if p > 100:
        raise InputError("primes above 100 are out of the supported desk scale")
    ring = make_ring(ring)
    if ring.kind == RATIONAL:
        return [PrimeIdeal(ring, p, ring(p), 1, 1)]
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
        f = len(fac) - 1
        pi = _single_generator_search(ring, p, f, _ideal_lattice(ring, p, val))
        # every supported ring has class number 1, and the search is
        # complete wherever the tests check it (every p < 100)
        if pi is None:
            raise AssertionError("no single generator of a prime over %d" % p)
        ideals.append(PrimeIdeal(ring, p, pi, mult, f))
    total = 1
    for ideal in ideals:
        total *= ideal.norm() ** ideal.e
    assert total == p ** ring.degree, "norm bookkeeping failed for p=%d" % p
    return ideals


def _is_small_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    return all(p % q for q in range(2, math.isqrt(p) + 1))


# ---------------------------------------------------------------------------
# residue rings O/p^k


class ResidueRing:
    """O/p^k with canonical coordinate representatives and their indices.

    Representatives are integer tuples reduced against the HNF basis of the
    p^k lattice: 0 <= x_i < H[i][i] after back-substitution.  Ring
    operations on representatives are the ring's own, then a reduction.
    A representative's index is its mixed radix over the HNF diagonal, the
    first coordinate most significant, so index order is tuple order and
    ``elements`` lists the representatives by index.  The flat add and mul
    tables (entry i * N + j for indices i, j, N = ``size``) and the neg
    table are built once, on first use; the caller declares the size
    N(p)^k, and the N^2 entries of a table, against its budget.
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
        self.size = math.prod(self.diag)

    # -- representatives ----------------------------------------------

    def reduce_coords(self, coords):
        return reduce_coords(self.lattice, coords)

    def reduce(self, elt):
        """The representative mod p^k of a ring integer; InputError on an
        element with a denominator."""
        return self.reduce_coords(self.ring(elt).int_coords())

    # representatives are immutable tuples, so each is built once
    @functools.cached_property
    def zero(self):
        return self.reduce_coords((0,) * self.ring.degree)

    @functools.cached_property
    def one(self):
        return self.reduce(self.ring.one)

    # -- arithmetic on representatives ---------------------------------

    def add(self, a, b):
        return self.reduce_coords(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce_coords(tuple(-x for x in a))

    def mul(self, a, b):
        return self.reduce_coords(self.ring._mul_coords(a, b))

    # -- indices and tables --------------------------------------------

    def index(self, rep):
        """The index of a representative: its mixed radix over the HNF
        diagonal.  The zero representative has index 0."""
        i = 0
        for c, d in zip(rep, self.diag):
            i = i * d + c
        return i

    @functools.cached_property
    def neg_table(self):
        """neg_table[i] is the index of -rep_i."""
        return tuple(self.index(self.neg(a)) for a in self.elements())

    @functools.cached_property
    def add_table(self):
        """add_table[i * N + j] is the index of rep_i + rep_j."""
        reps = list(self.elements())
        return tuple(self.index(self.add(a, b)) for a in reps for b in reps)

    @functools.cached_property
    def mul_table(self):
        """mul_table[i * N + j] is the index of rep_i * rep_j."""
        reps = list(self.elements())
        return tuple(self.index(self.mul(a, b)) for a in reps for b in reps)

    # -- structure -----------------------------------------------------

    def elements(self):
        """The representatives in index order: the box 0 <= x_i < H[i][i]
        in ``itertools.product`` order, whose points are all reduced."""
        return itertools.product(*[range(d) for d in self.diag])

    def __repr__(self):
        return "ResidueRing(N(p)=%d, k=%d, size=%d)" % (
            self.prime.norm(), self.k, self.size)


__all__ = [
    "NumberRing", "RingElt", "PrimeIdeal", "ResidueRing",
    "make_ring", "factor_rational_prime", "det", "cofactors", "power",
    "RATIONAL", "IMAG_QUAD", "CYCLOTOMIC5", "SUPPORTED_D",
]
