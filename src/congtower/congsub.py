"""Finite matrix groups over residue rings O/p^k: reduction homomorphisms,
breadth-first closures, congruence-kernel quotient checks, and orbit
enumeration.

Matrices over a residue ring are tuples of tuples of canonical residue
representatives, so they hash and compare directly.  Each entry of a
product is one ``ResidueRing.dot``: the exact int dot product of the
representatives, reduced once; determinants and transposes are the
``ringmat`` ones on the lift.  Every enumeration declares its cost
estimate up front and refuses to start past the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InputError
from . import ringmat
from .rings import make_ring, residue_ring

CLOSURE_BUDGET_DEFAULT = 10_000_000


# ---------------------------------------------------------------------------
# residue matrices


def reduce_matrix(R, m):
    return tuple(tuple(R.reduce(x) for x in row) for row in m)


def rmat_identity(R, n):
    one, zero = R.one, R.zero
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rmat_mul(R, a, b):
    """a * b, each entry one ``R.dot`` of a row and a column."""
    cols = tuple(zip(*b))
    return tuple(tuple(R.dot(row, col) for col in cols) for row in a)


def rmat_vec(R, a, v):
    return tuple(row[0] for row in rmat_mul(R, a, tuple((x,) for x in v)))


def rmat_det(R, a):
    """The determinant of the lift, reduced: reduction is a ring map."""
    return R.reduce(ringmat.det(tuple(tuple(R.lift(x) for x in row)
                                      for row in a)))


def rmat_conj_transpose(R, a):
    return tuple(
        tuple(R.involution(a[i][j]) for i in range(len(a))) for j in range(len(a[0]))
    )


# ---------------------------------------------------------------------------
# scheme predicates


class SchemeSL:
    """det = 1."""

    name = "SL"

    def __init__(self, n):
        self.n = n

    def check(self, R, m):
        return rmat_det(R, m) == R.one


class SchemeFormPreserving:
    """m~^t F m = F over the residue ring; kind 'bilinear' or 'hermitian',
    optionally with det = 1 (special)."""

    def __init__(self, n, form_rows, kind, special=False, name=None):
        self.n = n
        self.form_rows = form_rows
        self.kind = kind
        self.special = special
        self.name = name or ("SU" if kind == "hermitian" else "O")

    def check(self, R, m):
        f = reduce_matrix(R, self.form_rows)
        left = (rmat_conj_transpose(R, m) if self.kind == "hermitian"
                else ringmat.transpose(m))
        if rmat_mul(R, rmat_mul(R, left, f), m) != f:
            return False
        if self.special and rmat_det(R, m) != R.one:
            return False
        return True


# ---------------------------------------------------------------------------
# closure and orbits


@dataclass
class Closure:
    """A finite group, identity first, then in BFS order, with its right
    Cayley action: ``elements[action[g][i]]`` is canon(elements[i] * g)
    for each canonical generator g.  ``len()`` is the group order."""
    elements: list
    action: dict

    def __len__(self):
        return len(self.elements)


def group_closure(R, gens, budget=CLOSURE_BUDGET_DEFAULT, canon=None):
    """BFS closure of generator matrices from the identity, recording the
    position of every product it forms as the Closure's action.

    No inverses are needed: in a finite group the monoid the generators
    generate is the whole group.  The distinct canonical generators are
    tried in sorted order, so the result does not depend on the order of
    ``gens``.  ``canon`` optionally canonicalizes products (quotient by a
    central subgroup).
    """
    if canon is None:
        canon = lambda m: m
    gens = sorted({canon(g) for g in gens})
    elements = [canon(rmat_identity(R, len(gens[0])))]
    index = {elements[0]: 0}
    columns = [[] for _ in gens]
    for a in elements:          # the list grows as it is walked: a BFS queue
        for g, column in zip(gens, columns):
            b = canon(rmat_mul(R, a, g))
            pos = index.get(b)
            if pos is None:
                pos = index[b] = len(elements)
                elements.append(b)
                if len(elements) > budget:
                    raise BudgetExceeded(
                        "group closure exceeded budget %d" % budget,
                        estimate=len(elements), budget=budget)
            column.append(pos)
    return Closure(elements, {g: tuple(c) for g, c in zip(gens, columns)})


def orbit(R, gens, point, action="vector"):
    """Orbit of a point under generator matrices.

    action 'vector': column vectors over R.
    action 'line':   one-dimensional subspaces; points are normalized so the
                     first unit coordinate equals 1 (residue ring must be a
                     field for this normalization to be canonical).
    """
    if action == "vector":
        act = lambda g, v: rmat_vec(R, g, v)
        norm = lambda v: v
    elif action == "line":
        act = lambda g, v: _normalize_line(R, rmat_vec(R, g, v))
        norm = lambda v: _normalize_line(R, v)
    else:
        raise InputError("unknown action %r" % (action,))
    start = norm(tuple(point))
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for g in gens:
            w = act(g, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def _normalize_line(R, v):
    for c in v:
        if c != R.zero:
            if not R.is_unit(c):
                raise InputError("line normalization needs a unit leading entry")
            inv = R.inverse(c)
            return tuple(R.mul(inv, x) for x in v)
    raise InputError("zero vector spans no line")


# ---------------------------------------------------------------------------
# reduction homomorphisms


def evaluate_word(mats, inverses, word, ident):
    out = ident
    for letter in word:
        m = mats[letter - 1] if letter > 0 else inverses[-letter - 1]
        out = ringmat.mat_mul(out, m)
    return out


class ReductionHom:
    """The reduction SL-type group -> matrices over O/p^k, built from a
    presentation with explicit integral generator matrices.

    Verifies every relator exactly over the ring before reducing, and again
    in the finite quotient after reducing.  With projective=True the target
    is the quotient by the center {+-Id}: relators may evaluate to -Id over
    the ring, and residue matrices are canonicalized up to sign.

    ``elements`` is group_closure's list of the image (identity first, then
    BFS order); ``permutations`` reads the action it recorded.
    """

    def __init__(self, pres, gen_matrices, prime, k,
                 budget=CLOSURE_BUDGET_DEFAULT, projective=False):
        if len(gen_matrices) != pres.ngens:
            raise InputError("need one matrix per generator")
        self.pres = pres
        self.prime = prime
        self.k = k
        self.projective = projective
        ring = prime.ring
        n = len(gen_matrices[0])
        ident = ringmat.identity(ring, n)
        minus = ringmat.mat_scale(ident, -1)
        inverses = [ringmat.mat_inverse(m) for m in gen_matrices]
        for m, mi in zip(gen_matrices, inverses):
            if not (ringmat.is_integral(m) and ringmat.is_integral(mi)):
                raise InputError("generator matrices must be integral with integral inverse")
        for rel in pres.relators:
            val = evaluate_word(gen_matrices, inverses, rel, ident)
            if ringmat.mat_eq(val, ident):
                continue
            if projective and ringmat.mat_eq(val, minus):
                continue
            raise InputError("relator %r does not hold on the matrices" % (rel,))
        self.matrices = list(gen_matrices)
        self.R = residue_ring(prime, k)
        self.images = [self._canon(reduce_matrix(self.R, m)) for m in gen_matrices]
        self.image_inverses = [self._canon(reduce_matrix(self.R, m)) for m in inverses]
        rid = self._canon(rmat_identity(self.R, n))
        for rel in pres.relators:
            if self.image_of_word(rel) != rid:
                raise InputError("relator fails in the quotient (internal error)")
        closure = group_closure(self.R, self.images, budget=budget,
                                canon=self._canon)
        self.elements = closure.elements
        self.order = len(closure)
        self._action = closure.action

    def _canon(self, m):
        if not self.projective:
            return m
        neg = tuple(tuple(self.R.neg(x) for x in row) for row in m)
        return min(m, neg)

    def image_of_word(self, word):
        out = self._canon(rmat_identity(self.R, len(self.images[0])))
        for letter in word:
            m = (self.images[letter - 1] if letter > 0
                 else self.image_inverses[-letter - 1])
            out = self._canon(rmat_mul(self.R, out, m))
        return out

    def permutations(self):
        """Right-multiplication action of each generator on the element
        list (identity at position 0), as recorded by the closure."""
        return [self._action[g] for g in self.images]


# ---------------------------------------------------------------------------
# congruence quotient checks (the p-group lemma, verified by enumeration)


def congruence_quotient_check(scheme, prime, j, k, budget=CLOSURE_BUDGET_DEFAULT):
    """Enumerate the kernel of reduction G(O/p^k) -> G(O/p^j) and report
    its order, commutativity, exponent, and elementary-abelian-ness.

    The kernel is {Id + pi^j M}; candidates are parametrized by M over
    O/p^(k-j) and filtered by the scheme predicate in O/p^k.  The
    candidate count is checked against the budget before the enumeration,
    and the kernel order squared (the pair passes) before those passes.
    """
    if not (1 <= j <= k):
        raise InputError("need 1 <= j <= k")
    n = scheme.n
    if len(prime.gens) != 1:
        raise InputError("quotient check needs a principal prime")
    estimate = prime.norm() ** ((k - j) * n * n)
    if estimate > budget:
        raise BudgetExceeded(
            "kernel enumeration estimate %d exceeds budget" % estimate,
            estimate=estimate, budget=budget)
    report = {
        "scheme": scheme.name, "norm": prime.norm(), "j": j, "k": k,
        "estimate": estimate,
    }
    if j == k:
        report.update(order=1, abelian=True, exponent=1, elementary_abelian=True)
        return report
    R = residue_ring(prime, k)
    Rdiff = residue_ring(prime, k - j)
    ring = prime.ring
    pi = prime.gens[0]
    pi_j = pi ** j
    ident = rmat_identity(R, n)
    elements = []
    coords = list(Rdiff.elements())
    for combo in itertools.product(coords, repeat=n * n):
        m = []
        idx = 0
        for i in range(n):
            row = []
            for jj in range(n):
                lift = Rdiff.lift(combo[idx])
                entry = R.reduce(pi_j * lift)
                base = R.one if i == jj else R.zero
                row.append(R.add(base, entry))
                idx += 1
            m.append(tuple(row))
        m = tuple(m)
        if scheme.check(R, m):
            elements.append(m)
    order = len(elements)
    # the pair passes below make up to order^2 products: declare them too
    if order * order > budget:
        raise BudgetExceeded(
            "kernel of order %d needs %d pair products, over the budget"
            % (order, order * order), estimate=order * order, budget=budget)
    elem_set = set(elements)
    abelian = True
    for a, b in itertools.combinations(elements, 2):
        if rmat_mul(R, a, b) != rmat_mul(R, b, a):
            abelian = False
            break
    exponent = 1
    for a in elements:
        o = 1
        cur = a
        while cur != ident:
            cur = rmat_mul(R, cur, a)
            o += 1
            if o > order:
                raise AssertionError("element order exceeds group order")
        exponent = math.lcm(exponent, o)
    # closure sanity: the kernel is a group
    for a in elements[: min(len(elements), 50)]:
        for b in elements[: min(len(elements), 50)]:
            if rmat_mul(R, a, b) not in elem_set:
                raise AssertionError("kernel set is not closed")
    p = prime.p
    report.update(
        order=order,
        abelian=abelian,
        exponent=exponent,
        elementary_abelian=abelian and exponent == p,
    )
    return report


# ---------------------------------------------------------------------------
# the 5^5 projective-unitary count over F_5[eps]


def pu_identity_congruent_count():
    """Count unitary matrices Id + eps*X over F_5[eps]/(eps^2) for the
    reduced hermitian form [[3,1,0],[1,3,1],[0,1,3]], the scalars among
    them, and the projective count.

    Elements of the ring are pairs (a, b) = a + b*eps with eps^2 = 0 and
    the involution eps -> -eps.  The unitarity condition M* H M = H is
    evaluated exactly on all 5^9 candidate X by vectorized arithmetic on
    the two components.
    """
    H = np.array([[3, 1, 0], [1, 3, 1], [0, 1, 3]], dtype=np.int8)
    # digit k of the base-5 counter cycles with period 5^(9-k)
    base = np.arange(5, dtype=np.int8)
    digits = np.stack(
        [np.tile(np.repeat(base, 5 ** (8 - k)), 5 ** k) for k in range(9)],
        axis=1,
    )
    X = digits.reshape(-1, 3, 3)
    # M = Id + eps X and M* = Id - eps X^T (involution negates eps).
    # Expanding M* H M over F_5[eps]/(eps^2): the eps^0 component is H
    # identically, and the eps component is H X - X^T H, which is the whole
    # unitarity condition.  H is symmetric, so the condition is that H X is
    # symmetric; entries stay below 127, so int8 arithmetic is exact.
    hx = np.matmul(H, X)
    ok = np.ones(len(X), dtype=bool)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= (hx[:, i, j] - hx[:, j, i]) % 5 == 0
    lift_count = int(ok.sum())
    # scalar solutions: X = c * Id
    scalar = np.ones(len(X), dtype=bool)
    for off_pos in (1, 2, 3, 5, 6, 7):
        scalar &= digits[:, off_pos] == 0
    scalar &= (digits[:, 0] == digits[:, 4]) & (digits[:, 4] == digits[:, 8])
    scalar_count = int((ok & scalar).sum())
    if scalar_count == 0 or lift_count % scalar_count:
        raise AssertionError("scalar subgroup does not divide the solution count")
    return {
        "lift_count": lift_count,
        "scalar_count": scalar_count,
        "pu_count": lift_count // scalar_count,
    }


# ---------------------------------------------------------------------------
# ingestion: generator matrices plus a scheme descriptor block


def load_scheme_file(path):
    """Read {"ring": tag, "scheme": {...}, "matrices": {name: rows}}.

    The scheme block has kind "SL2" (determinant one) or "O"/"SU" (form
    preserving; the form rows live in the same ring; "special" adds the
    determinant condition).  Returns (ring, scheme, matrices-by-name).
    """
    payload = ringmat.read_json_file(path)
    if not isinstance(payload, dict) or "ring" not in payload:
        raise InputError('%s: expected a JSON object with "ring" and '
                         '"matrices"' % path)
    named = payload.get("matrices")
    if not isinstance(named, dict) or not named:
        raise InputError('%s: "matrices" must map generator names to rows'
                         % path)
    desc = payload.get("scheme", {"kind": "SL2"})
    if not isinstance(desc, dict):
        raise InputError('%s: "scheme" must be a JSON object' % path)
    ring = make_ring(payload["ring"])
    matrices = {name: ringmat.matrix_from_json({"rows": rows}, ring=ring)
                for name, rows in named.items()}
    sizes = {len(m) for m in matrices.values()}
    if len(sizes) != 1:
        raise InputError("generator matrices have mixed sizes")
    n = sizes.pop()
    kind = str(desc.get("kind", "SL2")).upper()
    if kind == "SL2":
        if n != 2:
            raise InputError("SL2 scheme needs 2x2 matrices")
        scheme = SchemeSL(2)
    elif kind in ("O", "SU"):
        form = ringmat.matrix_from_json({"rows": desc.get("form")}, ring=ring)
        scheme = SchemeFormPreserving(
            n, form, "hermitian" if kind == "SU" else "bilinear",
            special=bool(desc.get("special", False)), name=kind)
    else:
        raise InputError("unknown scheme kind %r" % (kind,))
    return ring, scheme, matrices


__all__ = [
    "SchemeSL", "SchemeFormPreserving", "ReductionHom",
    "Closure", "group_closure", "orbit", "reduce_matrix",
    "rmat_identity", "rmat_mul", "rmat_det", "rmat_vec",
    "congruence_quotient_check", "pu_identity_congruent_count",
    "load_scheme_file", "CLOSURE_BUDGET_DEFAULT",
]
