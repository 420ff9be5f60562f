"""Built-in arithmetic lattice data for the three worked examples.

Each example packages the exact matrices its tower construction needs:

- ``magic``: the norm-2 congruence subgroup of the Bianchi group over
  Q(sqrt(-7)), acting on the 3-regular tree at the split prime over 2.
- ``o41``:  the level-4 congruence subgroup of the integral orthogonal
  group of signature (4,1), after the standard change of coordinates to
  the form with matrix Q (antidiagonal corners), acting on the (5,3)-
  biregular tree at 2.  Its reflection generators and their Coxeter
  diagram are derived from the form diag(1,1,1,1,-1) by Vinberg's
  algorithm, with a finite-volume check of the simplex they bound.
- ``pu21``: the level-p5^2 congruence subgroup of the cocompact unitary
  lattice over Z[zeta5], acting on the tree of SU_3 at the ramified prime
  over 5.

Everything here is exact and re-verified by the test suite (form
preservation, determinants, swap action on the tree).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import ringmat
from .rings import make_ring, factor_rational_prime


def _frac(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# orthogonal example: forms and conjugators


def q0_form():
    """diag(1,1,1,1,-1) over the rationals."""
    ring = make_ring("rational")
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    rows[4][4] = -1
    return ringmat.mat(ring, rows)


def q_form():
    """The conjugated form: antidiagonal 1s in the corners, identity middle."""
    ring = make_ring("rational")
    rows = [
        [0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0],
    ]
    return ringmat.mat(ring, rows)


def coordinate_change_alpha():
    """Integral determinant-one change with  alpha^t Q0 alpha = Q."""
    ring = make_ring("rational")
    rows = [
        [1, 1, 0, 0, 0],
        [0, -1, 0, 0, 1],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 1, 0, 0, -1],
    ]
    return ringmat.mat(ring, rows)


def o41_swap():
    """The involution exchanging the apartment vertices x0 and x1 and fixing
    the midpoint x_{1/2}; preserves Q, determinant 1, entries in {0,+-1,2,1/2}."""
    ring = make_ring("rational")
    rows = [
        [0, 0, 0, 0, 2],
        [0, -1, 0, 0, 0],
        [0, 0, -1, 0, 0],
        [0, 0, 0, -1, 0],
        [_frac(1, 2), 0, 0, 0, 0],
    ]
    return ringmat.mat(ring, rows)


def o41_midpoint_stab_shear():
    """An element of SO(q) over Q_2 stabilizing L_{1/2} that carries L_0 to
    the third neighbor of x_{1/2}; entries in Z[1/2]."""
    ring = make_ring("rational")
    rows = [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [_frac(-1, 2), -1, 0, 0, 1],
    ]
    return ringmat.mat(ring, rows)


# ---------------------------------------------------------------------------
# orthogonal example: the reflection generators, by Vinberg's algorithm

# v0 = e5 controls the search; this point of v0-perp is in no root's
# hyperplane, so it picks one chamber of the height-0 root system B_4
_CHAMBER_POINT = (4, 3, 2, 1, 0)
# the search takes every root of height at most this
_MAX_ROOT_HEIGHT = 1
# cos^2 of the angle between two walls -> the order of their product
_COXETER_LABELS = {Fraction(0): 2, Fraction(1, 4): 3, Fraction(1, 2): 4,
                   Fraction(3, 4): 6}


def _q0(u, v):
    """The bilinear form of Q0 = diag(1,1,1,1,-1) on integer vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3] - u[4] * v[4]


def o41_roots():
    """The five simple roots of the integral reflection group of Q0, by
    Vinberg's algorithm with control vector v0 = e5 (Vinberg 1972, "On the
    groups of units of certain quadratic forms").

    A root is an integer vector r with r.r in {1, 2}: it is primitive,
    and its reflection is integral.  Its height is (r.v0)^2 / (r.r).  The
    candidates are the roots with r.v0 < 0, and at height 0 those with
    r.c < 0 for the chamber point c; each is kept, in increasing height,
    when its angle with every root kept before it is not acute
    (r.r_i <= 0).  Within height 0 the order by -r.c keeps exactly the
    simple roots of B_4: any other root is a positive combination of
    simple roots, so it comes after them and is acute to one of them.
    The search stops at n + 1 = 5 roots, which must bound a finite-volume
    simplex; ties are broken by the root itself, so the order is fixed.
    """
    candidates = []
    for k in range(math.isqrt(2 * _MAX_ROOT_HEIGHT) + 1):   # k = r5 = -r.v0
        bound = math.isqrt(k * k + 2)
        for head in itertools.product(range(-bound, bound + 1), repeat=4):
            r = head + (k,)
            norm, c = _q0(r, r), _q0(r, _CHAMBER_POINT)
            if (norm in (1, 2) and k * k <= _MAX_ROOT_HEIGHT * norm
                    and (k or c < 0)):
                # 2 k^2 / norm is twice the height, an integer
                candidates.append((2 * k * k // norm, -c, r))
    roots = []
    for _height, _c, r in sorted(candidates):
        if all(_q0(r, s) <= 0 for s in roots):
            roots.append(r)
            if len(roots) == 5:
                check_finite_volume_simplex(roots)
                return roots
    raise AssertionError("fewer than five roots up to height %d"
                         % _MAX_ROOT_HEIGHT)


def _inertia(gram):
    """(positive, negative, zero) counts of the eigenvalues of a symmetric
    integer matrix, by diagonalizing it by congruence (Sylvester's law of
    inertia).  Each Schur complement is kept scaled by |pivot| > 0, which
    keeps it integral and does not change its inertia."""
    a = [list(row) for row in gram]
    pos = neg = 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(n) for j in range(n)
                         if a[i][j]), None)
            if pair is None:
                break
            # x_p -> x_p + x_j makes the (p, p) entry 2 a_pj, not zero
            p, j = pair
            for row in a:
                row[p] += row[j]
            a[p] = [x + y for x, y in zip(a[p], a[j])]
        d = a[p][p]
        sign = 1 if d > 0 else -1
        pos, neg = pos + (d > 0), neg + (d < 0)
        a = [[sign * (a[i][j] * d - a[i][p] * a[p][j])
              for j in range(n) if j != p] for i in range(n) if i != p]
    return pos, neg, len(gram) - pos - neg


def check_finite_volume_simplex(roots):
    """AssertionError unless the n + 1 roots bound a finite-volume simplex
    of hyperbolic n-space: their Gram matrix has signature (n, 1), and
    each n x n principal submatrix is positive definite (a finite vertex)
    or positive semidefinite of corank 1 (an ideal vertex)."""
    gram = [[_q0(r, s) for s in roots] for r in roots]
    n = len(roots) - 1
    if _inertia(gram) != (n, 1, 0):
        raise AssertionError("the Gram matrix of %r is not of signature "
                             "(%d, 1)" % (roots, n))
    for v in range(n + 1):
        minor = [[x for j, x in enumerate(row) if j != v]
                 for i, row in enumerate(gram) if i != v]
        if _inertia(minor) not in ((n, 0, 0), (n - 1, 0, 1)):
            raise AssertionError("the vertex opposite %r is neither finite "
                                 "nor ideal" % (roots[v],))


def o41_reflections():
    """The reflections s_r = Id - (2 / r.r) r r^t Q0 in the roots of
    ``o41_roots``, in their order, as rational matrices.  They generate
    the reflection group of the integral form Q0."""
    ring = make_ring("rational")
    out = []
    for r in o41_roots():
        scale, rq = 2 // _q0(r, r), r[:4] + (-r[4],)      # rq = r^t Q0
        out.append(ringmat.mat(ring, [
            [(i == j) - scale * r[i] * rq[j] for j in range(5)]
            for i in range(5)]))
    return out


def coxeter_diagram_orders():
    """m_ij for the five generators (1 on the diagonal, 2 = commute), read
    off the Gram matrix of their roots: the label of roots r_i, r_j is
    fixed by cos^2 = (r_i.r_j)^2 / ((r_i.r_i)(r_j.r_j)) in
    {0, 1/4, 1/2, 3/4}, for m = 2, 3, 4, 6."""
    roots = o41_roots()
    m = [[1] * 5 for _ in range(5)]
    for i, j in itertools.permutations(range(5), 2):
        ri, rj = roots[i], roots[j]
        cos2 = Fraction(_q0(ri, rj) ** 2, _q0(ri, ri) * _q0(rj, rj))
        if cos2 not in _COXETER_LABELS:
            raise AssertionError("roots %r and %r meet at no Coxeter angle"
                                 % (ri, rj))
        m[i][j] = _COXETER_LABELS[cos2]
    return m


# ---------------------------------------------------------------------------
# Bianchi / magic example


def magic_ring_and_prime():
    ring = make_ring(7)
    # the first factor is (2, x): the prime containing the generator
    # (1+sqrt(-7))/2, as x^2 - x + 2 = x (x + 1) mod 2
    return ring, factor_rational_prime(ring, 2)[0]


def magic_swap():
    """[[0,2],[1,0]]: swaps the base vertex of the 3-regular tree with a
    neighbor (2 is a uniformizer at the split prime over 2)."""
    ring = make_ring(7)
    return ringmat.mat(ring, [[0, 2], [1, 0]])


def sl2_gen_matrices(ring):
    """a, b, u, j: the standard generator matrices over an imaginary
    quadratic ring (u is translation by the ring generator)."""
    w = ring.gen()
    return {
        "a": ringmat.mat(ring, [[1, 1], [0, 1]]),
        "b": ringmat.mat(ring, [[0, -1], [1, 0]]),
        "u": ((ring.one, w), (ring.zero, ring.one)),
        "j": ringmat.mat(ring, [[-1, 0], [0, -1]]),
    }


# ---------------------------------------------------------------------------
# unitary example over Z[zeta5]


def pu21_ring_and_prime():
    ring = make_ring("cyclotomic-5")
    prime = factor_rational_prime(ring, 5)[0]
    return ring, prime


def pu21_swap():
    """g0 = [[0,0,pi],[0,zeta^4,0],[conj(pi)^-1,0,0]] in SU(h)."""
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()
    pi = z - ring.one
    pibar_inv = pi.conj().inverse()
    zero = ring.zero
    return (
        (zero, zero, pi),
        (zero, z ** 4, zero),
        (pibar_inv, zero, zero),
    )


def pu21_gamma_template_scalars():
    """The unit-times-pi-power scalars of the displayed generic element of
    the level-p5^2 group whose g0-conjugate is the generic level-p5^4 one.

    Returns a 3x3 matrix of ring elements s_ij so that the template is
    Id + sum_ij s_ij * x_ij E_ij with free integer variables x_ij.
    """
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()
    pi = z - ring.one
    five = ring(5)

    s = [[None] * 3 for _ in range(3)]
    s[0][0] = five
    s[0][1] = -(z ** 2 + 2 * z + ring.one) * pi ** 5
    s[0][2] = -(z ** 3 + 2 * z ** 2 + z) * pi ** 6
    s[1][0] = (z ** 3 + z ** 2 - ring.one) * pi ** 3
    s[1][1] = five
    s[1][2] = -(z ** 3 + 2 * z ** 2 + 2 * z + ring.one) * pi ** 5
    s[2][0] = (z ** 3 + 2 * z ** 2 + 2 * z + ring.one) * pi ** 2
    s[2][1] = (z ** 3 + 2 * z ** 2 + z) * pi ** 3
    s[2][2] = five
    return tuple(tuple(row) for row in s)


__all__ = [
    "q0_form", "q_form", "coordinate_change_alpha", "o41_swap",
    "o41_midpoint_stab_shear", "o41_roots", "check_finite_volume_simplex",
    "o41_reflections", "coxeter_diagram_orders",
    "magic_ring_and_prime", "magic_swap", "sl2_gen_matrices",
    "pu21_ring_and_prime", "pu21_swap",
    "pu21_gamma_template_scalars",
]
