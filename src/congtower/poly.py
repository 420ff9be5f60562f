"""Multivariate polynomials over an exact coefficient ring, and the
deterministic identity test used by the conjugation-display checks.

Coefficients can be ints, Fractions, or RingElt; they only need +, -, *,
and equality.  Monomials are exponent tuples over a fixed variable count.
"""

from __future__ import annotations

import itertools

from .errors import InputError


class Poly:
    """Sparse polynomial: dict of exponent-tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "czero", "cone")

    def __init__(self, nvars, terms, czero, cone):
        self.nvars = nvars
        self.czero = czero
        self.cone = cone
        self.terms = {m: c for m, c in terms.items() if c != czero}

    @classmethod
    def constant(cls, nvars, value, czero, cone):
        return cls(nvars, {(0,) * nvars: value}, czero, cone)

    @classmethod
    def variable(cls, nvars, i, czero, cone):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: cone}, czero, cone)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly.constant(self.nvars, self.cone * other, self.czero, self.cone)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, self.czero) + c
        return Poly(self.nvars, out, self.czero, self.cone)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()},
                    self.czero, self.cone)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                if m in out:
                    out[m] = out[m] + c
                else:
                    out[m] = c
        return Poly(self.nvars, out, self.czero, self.cone)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = self._coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def evaluate(self, point):
        """Evaluate at a tuple of integers; returns a coefficient value."""
        out = self.czero
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                for _ in range(e):
                    v = v * x
            out = out + v
        return out

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(
                "x%d%s" % (i, "" if e == 1 else "^%d" % e)
                for i, e in enumerate(m) if e
            )
            bits.append("(%r)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)


class PolyContext:
    """Variable bookkeeping for building matrix expressions."""

    def __init__(self, nvars, czero=0, cone=1):
        self.nvars = nvars
        self.czero = czero
        self.cone = cone

    def var(self, i):
        return Poly.variable(self.nvars, i, self.czero, self.cone)

    def const(self, value):
        return Poly.constant(self.nvars, value, self.czero, self.cone)

    def variables(self):
        return [self.var(i) for i in range(self.nvars)]

    # -- matrices of polynomials ----------------------------------------

    def mat_const(self, rows):
        return tuple(tuple(self.const(v) for v in row) for row in rows)

    def mat_identity(self, n):
        return tuple(
            tuple(self.const(self.cone if i == j else self.czero) for j in range(n))
            for i in range(n)
        )

    def mat_mul(self, a, b):
        n, k, m = len(a), len(b), len(b[0])
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = self.const(self.czero)
                for t in range(k):
                    acc = acc + a[i][t] * b[t][j]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def mat_add(self, a, b):
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def mat_sub(self, a, b):
        return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


GRID_EVAL_LIMIT = 200_000


def poly_identity_test(lhs, rhs, degree_bound, grid_limit=GRID_EVAL_LIMIT):
    """Decide whether two polynomial matrices agree on the full integer grid
    {0, ..., degree_bound}^nvars.

    Every entry must have total degree <= degree_bound, so by multivariate
    interpolation agreement on that grid is equivalent to equality of the
    expanded polynomials.  Small grids are evaluated exhaustively; above
    ``grid_limit`` points the test compares expansions, which certifies the
    same statement.  Returns (ok, report) where report records the grid
    shape and, on failure, the first distinguishing point found.
    """
    if isinstance(lhs[0], Poly):
        lhs = (lhs,)
        rhs = (rhs,)
    entries = [(p, q) for rp, rq in zip(lhs, rhs) for p, q in zip(rp, rq)]
    nvars = entries[0][0].nvars
    for p, q in entries:
        if p.total_degree() > degree_bound or q.total_degree() > degree_bound:
            raise InputError(
                "expression degree exceeds the declared bound %d" % degree_bound)
    npoints = (degree_bound + 1) ** nvars
    report = {
        "nvars": nvars,
        "degree_bound": degree_bound,
        "grid_points": npoints,
        "mode": "exhaustive" if npoints <= grid_limit else "expansion",
    }
    if npoints <= grid_limit:
        for point in itertools.product(range(degree_bound + 1), repeat=nvars):
            for p, q in entries:
                if p.evaluate(point) != q.evaluate(point):
                    report["witness"] = point
                    return False, report
        return True, report
    # expansion mode: polynomial equality <=> grid agreement under the bound
    for p, q in entries:
        if p != q:
            diff = p - q
            witness = _find_witness(diff, degree_bound)
            report["witness"] = witness
            return False, report
    return True, report


def _find_witness(diff, degree_bound):
    """A grid point where a nonzero polynomial does not vanish.

    Walk variables one at a time, specializing to values that keep the
    polynomial nonzero; existence is guaranteed on the grid because each
    variable degree is at most the bound.
    """
    nvars = diff.nvars
    point = []
    cur = diff
    for i in range(nvars):
        for v in range(degree_bound + 1):
            spec = _specialize(cur, i, v)
            if not spec.is_zero():
                point.append(v)
                cur = spec
                break
        else:
            raise AssertionError("nonzero polynomial vanished on the whole grid")
    return tuple(point)


def _specialize(p, i, value):
    out = {}
    for m, c in p.terms.items():
        v = c
        for _ in range(m[i]):
            v = v * value
        m2 = m[:i] + (0,) + m[i + 1:]
        out[m2] = out.get(m2, p.czero) + v
    return Poly(p.nvars, out, p.czero, p.cone)


__all__ = ["Poly", "PolyContext", "poly_identity_test", "GRID_EVAL_LIMIT"]
