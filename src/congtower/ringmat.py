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
``product_rows`` multiplies int rows by int columns and builds no ring
element at all, for a product whose class is all that is used, or whose
numerators, put in ``lowest_terms``, are kept until ``from_numerators``
builds the matrix.
"""

from __future__ import annotations

import json
import math
import re
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


def lowest_terms(rows, d):
    """Int coordinate rows N over d with their common factor divided out:
    ``numerators`` of the matrix N / d."""
    g = math.gcd(d, *(c for row in rows for x in row for c in x))
    if g == 1:
        return rows, d
    return [[tuple(c // g for c in x) for x in row] for row in rows], d // g


def from_numerators(ring, rows, d):
    """The matrix N / d of ring elements from int coordinate rows N over
    d, the inverse of ``numerators``."""
    return tuple(tuple(rings.RingElt(ring, x, d) for x in row)
                 for row in rows)


def numerator_columns(a):
    """The int numerators of a's columns over a's common denominator: the
    generators of the lattice a spans, up to a homothety."""
    return numerators(transpose(a))[0]


def product_rows(ring, rows, cols):
    """The int rows of R C from the int rows of R and the int columns of
    C: entry (i, j) is one ``NumberRing.dot_coords`` of rows[i] and
    cols[j], and no ring element is built.  The ring is commutative, so
    the columns of R C are product_rows(ring, columns of C, rows of R)."""
    dot = ring.dot_coords
    return [[dot(r, c) for c in cols] for r in rows]


def mat_mul(a, b):
    """a * b for an n x m and an m x k matrix: the ``product_rows`` of
    a's numerators and the numerators of b's columns, over the product of
    their denominators, so the product builds exactly n * k RingElts and
    normalizes each once."""
    ring = a[0][0].ring
    if b[0][0].ring != ring:
        raise InputError("element of %r used in %r" % (b[0][0].ring, ring))
    rows, da = numerators(a)
    cols, db = numerators(transpose(b))
    return from_numerators(ring, product_rows(ring, rows, cols), da * db)


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
    """An int that is not a bool, or a string "a" or "a/b" of decimal
    digits with an optional leading minus, as a Fraction."""
    if ((isinstance(v, int) and not isinstance(v, bool)) or (
            isinstance(v, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", v))):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError("bad coordinate %s" % _clipped_repr(v))


def entry_from_json(ring, v):
    if isinstance(v, (int, str)):
        return ring(_coord_from_json(v))
    if isinstance(v, list):
        return ring(tuple(_coord_from_json(c) for c in v))
    raise InputError("bad matrix entry %s" % _clipped_repr(v))


# Longest repr of an offending JSON value that an error message quotes.
_REPR_LIMIT = 60


def _clipped_repr(v):
    """repr(v), cut to its first _REPR_LIMIT characters plus "..." when
    longer, so that a huge value makes a short message."""
    text = repr(v)
    return text if len(text) <= _REPR_LIMIT else text[:_REPR_LIMIT] + "..."


def matrix_from_json(rows, ring):
    """Square matrix over ``ring`` from JSON rows of entries."""
    if not isinstance(rows, list) or not rows or any(
            not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise InputError("matrix rows must be a nonempty square list of lists")
    return mat(ring, [[entry_from_json(ring, v) for v in row] for row in rows])


def read_json_file(path):
    """Parsed contents of a JSON file; a file that is not JSON, or whose
    nesting is too deep for the decoder's recursion, is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError("%s is not valid JSON: %s" % (path, exc)) from None
        except RecursionError:
            raise InputError("%s is nested too deeply to decode" % path) from None


__all__ = [
    "mat", "identity", "basis_points", "mat_mul", "mat_add",
    "mat_scale", "transpose", "conj_transpose", "numerators",
    "lowest_terms", "from_numerators", "numerator_columns", "product_rows",
    "det", "mat_inverse", "is_integral", "preserves_form",
    "matrix_from_json", "read_json_file",
]
