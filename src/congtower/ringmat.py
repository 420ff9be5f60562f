"""Matrices over number rings: products, conjugate transpose, determinants,
form-preservation predicates, and the reader of JSON matrices.

Matrices are immutable tuples of tuples of RingElt.  Entries may sit in the
fraction field (several of the built-in conjugators do); integrality is a
property you ask about, not a constraint.  Matrices are equal when ``==``
says so.  ``numerators`` reads a matrix as int coordinate rows over one
common denominator, and the arithmetic runs on them: each entry of a
product is one ring dot product of numerators, normalized once, and
``det`` and ``mat_inverse`` expand the numerators with ``rings.det`` and
``rings.cofactors``, building ring elements only for the result.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import InputError
from . import rings


def mat(ring, rows):
    return tuple(tuple(ring(v) for v in row) for row in rows)


def identity(ring, n):
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def basis_points(ring, n):
    """The zero n x n matrix, then each elementary matrix E_ij in row-major
    order, as (label, matrix) pairs.  An affine map of an n x n matrix is
    determined by its values at these n^2 + 1 points."""
    zero = [[ring.zero] * n for _ in range(n)]
    yield "0", tuple(tuple(row) for row in zero)
    for i in range(n):
        for j in range(n):
            e_ij = [row[:] for row in zero]
            e_ij[i][j] = ring.one
            yield "E_(%d,%d)" % (i, j), tuple(tuple(row) for row in e_ij)


def numerators(a):
    """The int coordinate rows N of a matrix and their common denominator
    d, the lcm of the entries' denominators: a = N / d."""
    d = math.lcm(*[x.den for row in a for x in row])
    return [[x.num if x.den == d else tuple(c * (d // x.den) for c in x.num)
             for x in row] for row in a], d


def mat_mul(a, b):
    """a * b for an n x m and an m x k matrix.  Each row of a and column of
    b is read as ``numerators`` of a one-row matrix; entry (i, j) is then
    one ``NumberRing.dot_coords`` of row i and column j over the product
    of their denominators, so the product builds exactly n * k RingElts
    and normalizes each once."""
    ring = a[0][0].ring
    if b[0][0].ring != ring:
        raise InputError("element of %r used in %r" % (b[0][0].ring, ring))
    dot = ring.dot_coords
    cols = [numerators((col,)) for col in zip(*b)]
    out = []
    for row in a:
        (xs,), xden = numerators((row,))
        out.append(tuple(rings.RingElt(ring, dot(xs, ys), xden * yden)
                         for (ys,), yden in cols))
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def conj_transpose(a):
    return tuple(
        tuple(a[i][j].conj() for i in range(len(a))) for j in range(len(a[0]))
    )


def _coords_ops(ring):
    """(dot, neg, zero, one) on the int coordinate tuples of ``ring``, for
    ``rings.det`` and ``rings.cofactors``."""
    n = ring.degree
    return (ring.dot_coords, lambda c: tuple(-x for x in c), (0,) * n,
            (1,) + (0,) * (n - 1))


def det(a):
    """The exact determinant: ``rings.det`` of the int numerators N of a
    over their common denominator d, then det(a) = det(N) / d^n."""
    ring = a[0][0].ring
    num, d = numerators(a)
    return rings.RingElt(ring, rings.det(num, *_coords_ops(ring)[:3]),
                         d ** len(a))


def mat_inverse(a):
    """Inverse over the fraction field.  With a = N / d, a^-1 = d adj(N) /
    det(N): row i of the cofactor matrix is ``rings.cofactors`` of N with
    row i moved to the top, times (-1)^i, and det(N) is row 0 dotted with
    its cofactors."""
    ring = a[0][0].ring
    dot, neg, zero, one = _coords_ops(ring)
    num, d = numerators(a)
    cof = []
    for i in range(len(num)):
        row = rings.cofactors([num[i]] + num[:i] + num[i + 1:],
                              dot, neg, zero, one)
        cof.append([neg(c) for c in row] if i % 2 else row)
    det_num = dot(num[0], cof[0])
    if not any(det_num):
        raise InputError("matrix is singular")
    scale = rings.RingElt(ring, det_num).inverse() * d
    mul = ring._mul_coords
    return tuple(tuple(rings.RingElt(ring, mul(c, scale.num), scale.den)
                       for c in col) for col in zip(*cof))


def is_integral(a):
    return all(x.is_integral() for row in a for x in row)


def preserves_form(m, form, kind):
    """True iff  m~^t F m = F,  with entrywise conjugation for hermitian."""
    if kind not in ("bilinear", "hermitian"):
        raise InputError("kind must be 'bilinear' or 'hermitian'")
    if len(m) != len(form) or len(m[0]) != len(form[0]) or len(m) != len(m[0]):
        raise InputError("dimension mismatch")
    ring = m[0][0].ring
    if any(x.ring != ring for row in form for x in row):
        raise InputError("matrix and form live over different rings")
    left = conj_transpose(m) if kind == "hermitian" else transpose(m)
    return mat_mul(mat_mul(left, form), m) == form


# ---------------------------------------------------------------------------
# JSON input: rows = [[entry, ...], ...] over a ring the file names
# entry = int | "a/b" | [coord, ...] with coord = int | "a/b"


def _coord_from_json(v):
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError("bad coordinate %r" % (v,))


def entry_from_json(ring, v):
    if isinstance(v, (int, str)):
        return ring(_coord_from_json(v))
    if isinstance(v, list):
        return ring(tuple(_coord_from_json(c) for c in v))
    raise InputError("bad matrix entry %r" % (v,))


def matrix_from_json(rows, ring):
    """Square matrix over ``ring`` from JSON rows of entries."""
    if not isinstance(rows, list) or not rows or any(
            not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise InputError("matrix rows must be a nonempty square list of lists")
    return mat(ring, [[entry_from_json(ring, v) for v in row] for row in rows])


def read_json_file(path):
    """Parsed contents of a JSON file; a file that is not JSON is an
    InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError("%s is not valid JSON: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# the coordinate-change verification for the hermitian example
#
# Work in the real field Q(d), d^4 = 2d^2 + 4, where d = sqrt(1+sqrt5) and
# a = d^2 - 1 = sqrt5.  The second square root e with e^2 = 4+2a is not
# independent: (1+a)^3 = 4(4+2a), so e = d(1+a)/2 is a compatible choice and
# the two roots must be chosen compatibly for the displayed base change to
# work (with e -> -e the product c~^t h c is not even close).  Check that c
# carries the hermitian form with matrix h (phi = (1-a)/2 on the diagonal)
# to -h0, h0 the antidiagonal unit form: c~^t h c = -h0.  All entries of c
# are real, so conjugation is trivial on them.  Also checks
# N(1+a) = N(4+2a) = -4 in Q(a).


def _base_change_matrices():
    """h, h0 and c over Q(d), then a = sqrt5, d, 1/d and e."""
    field = rings.NumberRing(rings.SQRT_1_PLUS_SQRT5)
    d = field.gen()
    a = d * d - 1
    e = d * (1 + a) / 2
    d_inv = d * (a - 1) / 4
    phi = (1 - a) / 2
    h = mat(field, [[phi, 1, 0], [1, phi, 1], [0, 1, phi]])
    h0 = mat(field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    c = mat(field, [
        [1, -d_inv, (a - 1) / 8],
        [d - 1, d_inv, (1 - a) * (1 + d) / 8],
        [e - 1 - a, 0, -(2 + d) / 4],
    ])
    return h, h0, c, a, d, d_inv, e


def _carries_h_to_minus_h0(c, h, h0):
    return mat_mul(mat_mul(transpose(c), h), c) == mat_scale(h0, -1)


def coordinate_change_check():
    """Verify the base change relating h and -h0, plus the norm facts.

    Returns (ok, details).  The identity verified is  c~^t h c = -h0
    (equivalently, in the new coordinates the form h has matrix -h0), and
    N(1+a) = N(4+2a) = -4, and that a^2 = 5 and d, e are units with the
    stated squares.
    """
    h, h0, c, a, d, d_inv, e = _base_change_matrices()
    ok_form = _carries_h_to_minus_h0(c, h, h0)
    ok_units = (a * a == 5 and d * d == 1 + a and d * d_inv == 1
                and e * e == 4 + 2 * a)
    # the norm from Q(a) to Q multiplies by the conjugate a -> -a
    n1 = (1 + a) * (1 - a)
    n2 = (4 + 2 * a) * (4 - 2 * a)
    ok_norms = n1 == -4 and n2 == -4
    details = {
        "form_identity": ok_form,
        "sqrt_units": ok_units,
        "norm_1_plus_a": int(n1.coords[0]),
        "norm_4_plus_2a": int(n2.coords[0]),
    }
    return (ok_form and ok_units and ok_norms), details


__all__ = [
    "mat", "identity", "basis_points", "mat_mul", "mat_add",
    "mat_scale", "transpose", "conj_transpose", "numerators", "det", "mat_inverse",
    "is_integral", "preserves_form",
    "matrix_from_json", "read_json_file",
    "coordinate_change_check",
]
