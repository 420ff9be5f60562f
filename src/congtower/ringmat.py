"""Matrices over number rings: products, conjugate transpose, determinants,
form-preservation predicates, and the reader of JSON matrices.

Matrices are immutable tuples of tuples of RingElt.  Entries may sit in the
fraction field (several of the built-in conjugators do); integrality is a
property you ask about, not a constraint.  ``mat_mul`` works on the int
numerators: each entry of a product is one ring dot product over a common
denominator, normalized once, with no intermediate elements.
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


def _over_common_den(elts):
    """The elements' numerators over one common denominator, the lcm of
    theirs, and that denominator."""
    den = math.lcm(*(x.den for x in elts))
    return [x.num if x.den == den else tuple(c * (den // x.den) for c in x.num)
            for x in elts], den


def mat_mul(a, b):
    """a * b for an n x m and an m x k matrix.  Each row of a and column of
    b is put over one common denominator once; entry (i, j) is then one
    ``NumberRing.dot_coords`` of row i and column j over the product of
    their denominators, so the product builds exactly n * k RingElts and
    normalizes each once."""
    ring = a[0][0].ring
    if b[0][0].ring != ring:
        raise InputError("element of %r used in %r" % (b[0][0].ring, ring))
    dot = ring.dot_coords
    cols = [_over_common_den(col) for col in zip(*b)]
    out = []
    for row in a:
        xs, xden = _over_common_den(row)
        out.append(tuple(rings.RingElt(ring, dot(xs, ys), xden * yden)
                         for ys, yden in cols))
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


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def det(a):
    """Exact determinant by fraction-free-ish expansion (n <= 5 in practice)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    out = None
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        term = a[0][j] * det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    if out is None:
        ring = a[0][0].ring
        return ring.zero
    return out


def mat_inverse(a):
    """Inverse over the fraction field via adjugate / det."""
    n = len(a)
    d = det(a)
    if d.is_zero():
        raise InputError("matrix is singular")
    dinv = d.inverse()
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != j)
                for r in range(n) if r != i
            )
            term = det(minor) if n > 1 else a[0][0].ring.one
            if (i + j) % 2:
                term = -term
            row.append(term * dinv)
        cof.append(tuple(row))
    return transpose(tuple(cof))


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
    return mat_eq(mat_mul(mat_mul(left, form), m), form)


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
    return mat_eq(mat_mul(mat_mul(transpose(c), h), c), mat_scale(h0, -1))


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
    "mat_scale", "transpose", "conj_transpose", "mat_eq", "det", "mat_inverse",
    "is_integral", "preserves_form",
    "matrix_from_json", "read_json_file",
    "coordinate_change_check",
]
