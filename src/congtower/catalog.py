"""Built-in arithmetic lattice data for the three worked examples.

Each example packages the exact matrices its tower construction needs:

- ``magic``: the norm-2 congruence subgroup of the Bianchi group over
  Q(sqrt(-7)), acting on the 3-regular tree at the split prime over 2.
- ``o41``:  the level-4 congruence subgroup of the integral orthogonal
  group of signature (4,1), after the standard change of coordinates to
  the form with matrix Q (antidiagonal corners), acting on the (5,3)-
  biregular tree at 2.
- ``pu21``: the level-p5^2 congruence subgroup of the cocompact unitary
  lattice over Z[zeta5], acting on the tree of SU_3 at the ramified prime
  over 5.

Everything here is exact and re-verified by the test suite (form
preservation, determinants, swap action on the tree).
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import ringmat
from .errors import InputError
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


def o41_reflections():
    """The five reflection generators as matrices preserving Q0.

    They are ingestion data, not printed anywhere authoritative: they are
    read from ``matrices/o41_reflections.json`` in the data directory and
    validated by ``reflection_data_problem``.  A missing or malformed file
    is an InputError.
    """
    from . import homology
    path = os.path.join(homology.data_dir(), "matrices", "o41_reflections.json")
    if not os.path.exists(path):
        raise InputError("reflection data file %s not found" % path)
    payload = ringmat.read_json_file(path)
    if not isinstance(payload, dict) or payload.get("ring") != "rational":
        raise InputError('%s: reflection data must be an object with '
                         '"ring": "rational"' % path)
    rows = payload.get("matrices")
    # matrix_from_json then checks that each matrix is square
    if not (isinstance(rows, list) and len(rows) == 5
            and all(isinstance(m, list) and len(m) == 5 for m in rows)):
        raise InputError('%s: "matrices" must list five 5x5 matrices' % path)
    ring = make_ring("rational")
    mats = [ringmat.matrix_from_json({"rows": m}, ring=ring) for m in rows]
    problem = reflection_data_problem(mats)
    if problem:
        raise InputError("%s: %s" % (path, problem))
    return mats


def reflection_data_problem(mats):
    """None when the five matrices are integral, preserve Q0, and their
    pairwise product orders match the diagram labels; else what fails."""
    form = q0_form()
    orders = coxeter_diagram_orders()
    ident = ringmat.identity(form[0][0].ring, 5)
    for m in mats:
        if not (ringmat.is_integral(m)
                and ringmat.preserves_form(m, form, "bilinear")):
            return "reflection data fails integrality or form check"
    for i in range(5):
        for j in range(i, 5):
            prod = ringmat.mat_mul(mats[i], mats[j])
            power = prod
            order = None
            for k in range(1, 13):
                if ringmat.mat_eq(power, ident):
                    order = k
                    break
                power = ringmat.mat_mul(power, prod)
            if order != orders[i][j]:
                return ("reflection data: product order (%d,%d) is %r, "
                        "diagram says %d" % (i, j, order, orders[i][j]))
    return None


def coxeter_diagram_orders():
    """m_ij for the five generators (1 on the diagonal, 2 = commute)."""
    m = [[2] * 5 for _ in range(5)]
    for i in range(5):
        m[i][i] = 1
    for i, j, label in ((0, 1, 3), (1, 2, 3), (2, 3, 4), (2, 4, 3)):
        m[i][j] = m[j][i] = label
    return m


# ---------------------------------------------------------------------------
# Bianchi / magic example


def magic_ring_and_prime():
    ring = make_ring(7)
    primes = factor_rational_prime(ring, 2)
    # the prime generated by (1+sqrt(-7))/2 (the ring generator)
    for p in primes:
        if p.valuation_at_least(ring.gen(), 1):
            return ring, p
    raise AssertionError("no prime over 2 contains omega")


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

    def u(*coeffs):
        # coeffs are for powers z^0..z^3 after reducing z^4
        acc = ring.zero
        for k, c in enumerate(coeffs):
            acc = acc + ring(c) * z ** k
        return acc

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
    "o41_midpoint_stab_shear", "o41_reflections", "reflection_data_problem",
    "coxeter_diagram_orders",
    "magic_ring_and_prime", "magic_swap", "sl2_gen_matrices",
    "pu21_ring_and_prime", "pu21_swap",
    "pu21_gamma_template_scalars",
]
