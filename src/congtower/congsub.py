"""Finite matrix groups over residue rings O/p^k: reduction homomorphisms,
closures (``coset.orbit`` of the identity) and congruence-kernel quotient
checks.

Matrices over a residue ring are tuples of tuples of canonical residue
representatives, so they hash and compare directly.  Each entry of a
product is one ``ResidueRing.dot``: the exact int dot product of the
representatives, reduced once, and a determinant is ``rings.det``'s
first-row expansion, each step one ``ResidueRing.dot``.  Every enumeration
declares its cost estimate up front and refuses to start past the budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from . import coset, intmat, ringmat, rings
from .rings import ResidueRing

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


# ---------------------------------------------------------------------------
# the scheme predicate


class SchemeSL:
    """det = 1."""

    name = "SL"

    def __init__(self, n):
        self.n = n

    def check(self, R, m):
        return rings.det(m, R.dot, R.neg, R.zero) == R.one


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
    """``coset.orbit`` of the identity under right multiplication by the
    generator matrices, whose action columns are the Closure's action.

    No inverses are needed: in a finite group the monoid the generators
    generate is the whole group.  The distinct canonical generators are
    tried in sorted order, so the result does not depend on the order of
    ``gens``.  ``canon`` optionally canonicalizes products (quotient by a
    central subgroup).
    """
    if canon is None:
        canon = lambda m: m
    gens = sorted({canon(g) for g in gens})
    elements, columns, _ = coset.orbit(
        canon(rmat_identity(R, len(gens[0]))), gens,
        lambda a, g: canon(rmat_mul(R, a, g)), budget)
    return Closure(elements, {g: tuple(c) for g, c in zip(gens, columns)})


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

    Verifies every relator exactly over the ring before reducing, which
    makes it hold in the finite quotient too; the coset table built from
    ``permutations`` traces every relator again on the same image.  With
    projective=True the target is the quotient by the center {+-Id}:
    relators may evaluate to -Id over the ring, and residue matrices are
    canonicalized up to sign.

    ``permutations`` reads the action that group_closure recorded on its
    list of the image (identity first, then BFS order).
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
            if val == ident:
                continue
            if projective and val == minus:
                continue
            raise InputError("relator %r does not hold on the matrices" % (rel,))
        self.R = ResidueRing(prime, k)
        self.images = [self._canon(reduce_matrix(self.R, m)) for m in gen_matrices]
        closure = group_closure(self.R, self.images, budget=budget,
                                canon=self._canon)
        self.order = len(closure)
        self._action = closure.action

    def _canon(self, m):
        """min(m, -m): the first entry x with -x != x decides, and the
        matrix is negated only when -x < x."""
        if not self.projective:
            return m
        neg = self.R.neg
        for row in m:
            for x in row:
                nx = neg(x)
                if nx != x:
                    if nx < x:
                        return tuple(tuple(neg(y) for y in r) for r in m)
                    return m
        return m

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
    O/p^(k-j) and filtered by the scheme predicate in O/p^k.  The size
    N(p)^k of O/p^k and then the candidate count are checked against the
    budget before the enumeration.

    The group passes work on a generating set.  Walking the kernel set,
    each element not yet in <gens> joins gens and <gens> is closed again;
    every closure must stay inside the kernel set, and at the end
    |<gens>| = order proves the set is a group.  It is abelian exactly
    when the generators commute pairwise, and each element's order comes
    from repeated p-th powers.  Each new generator at least doubles
    <gens>, so there are at most r = ceil(log2 order) of them: the
    closures and commutators make at most 2 * order * r products and the
    powers at most 2 * order * r more, a bound checked against the budget
    before the passes.
    """
    if not (1 <= j <= k):
        raise InputError("need 1 <= j <= k")
    n, norm = scheme.n, prime.norm()
    # 2^k > budget once k >= budget.bit_length(): a huge k is refused
    # without forming norm^k, and then no power below is huge either
    if j < k and (k >= budget.bit_length() or norm ** k > budget):
        raise BudgetExceeded("residue ring O/p^%d of %d^%d elements exceeds "
                             "budget" % (k, norm, k), budget=budget)
    estimate = norm ** ((k - j) * n * n)
    if estimate > budget:
        raise BudgetExceeded(
            "kernel enumeration estimate %d exceeds budget" % estimate,
            estimate=estimate, budget=budget)
    report = {
        "scheme": scheme.name, "norm": norm, "j": j, "k": k,
        "estimate": estimate,
    }
    if j == k:
        report.update(order=1, abelian=True, exponent=1, elementary_abelian=True)
        return report
    R = ResidueRing(prime, k)
    pi_j = R.reduce(prime.uniformizer_power(j))
    # each entry is pi^j c for c over O/p^(k-j), plus 1 on the diagonal:
    # those values are built once, pi^j c mod p^k being the residue product
    # of any representatives.  A product over the rows, each row a product
    # over its entries, keeps the row-major lexicographic order of a
    # product over all n * n entries.
    off = [R.mul(pi_j, c) for c in ResidueRing(prime, k - j).elements()]
    diag = [R.add(R.one, e) for e in off]
    rows = [list(itertools.product(*(diag if i == jj else off for jj in range(n))))
            for i in range(n)]
    elements = [m for m in itertools.product(*rows) if scheme.check(R, m)]
    order = len(elements)
    products = 4 * order * (order - 1).bit_length()    # 4 * order * ceil(log2 order)
    if products > budget:
        raise BudgetExceeded(
            "kernel of order %d needs up to %d products, over the budget"
            % (order, products), estimate=products, budget=budget)
    ident = rmat_identity(R, n)
    gens = _generating_set(R, elements, ident)
    abelian = all(rmat_mul(R, a, b) == rmat_mul(R, b, a)
                  for a, b in itertools.combinations(gens, 2))
    p = prime.p
    exponent = 1
    for a in elements:
        o = 1
        while a != ident:       # a, a^p, a^(p^2), ... until Id
            if o * p > order:
                raise AssertionError("kernel is not a p-group")
            a = rings.power(a, p, lambda x, y: rmat_mul(R, x, y))
            o *= p
        exponent = max(exponent, o)
    report.update(
        order=order,
        abelian=abelian,
        exponent=exponent,
        elementary_abelian=abelian and exponent == p,
    )
    return report


def _generating_set(R, elements, ident):
    """Generators of the set ``elements``, chosen greedily in order; raises
    AssertionError unless the set is a group."""
    members = set(elements)
    gens = []
    span = {ident}
    for a in elements:
        if a in span:
            continue
        gens.append(a)
        try:
            # a closure past len(members) elements cannot lie inside them
            span = set(group_closure(R, gens, budget=len(members)).elements)
        except BudgetExceeded:
            raise AssertionError("kernel set is not closed") from None
        # an early stop only: the span never shrinks, so the final
        # check below catches whatever this one does
        if not span <= members:
            raise AssertionError("kernel set is not closed")
    # the proof of closure: the group the generators span is the set
    if span != members:
        raise AssertionError("kernel set is not closed")
    return gens


# ---------------------------------------------------------------------------
# the 5^5 projective-unitary count over F_5[eps]


def pu_identity_congruent_count():
    """Count unitary matrices Id + eps*X over F_5[eps]/(eps^2) for the
    reduced hermitian form H = [[3,1,0],[1,3,1],[0,1,3]], the scalars among
    them, and the projective count.

    Elements of the ring are a + b*eps with eps^2 = 0 and the involution
    eps -> -eps, so M = Id + eps X has M* = Id - eps X^T and
    M* H M = H + eps (H X - X^T H).  H is symmetric, so unitarity is "H X
    is symmetric mod 5": three linear equations in the 9 entries of X.
    They are evaluated on the basis E_ab, and the solutions number
    5^(9 - rank), the rank over F_5 of that 3 x 9 condition matrix being
    its count of Smith divisors prime to 5.  The scalar solutions are the
    scalars c * Id, c in F_5, that pass the same equations.
    """
    p, n = 5, 3
    H = ((3, 1, 0), (1, 3, 1), (0, 1, 3))

    def asymmetry(X):
        hx = [[sum(H[i][t] * X[t][jj] for t in range(n)) for jj in range(n)]
              for i in range(n)]
        return [hx[i][jj] - hx[jj][i] for i, jj in itertools.combinations(range(n), 2)]

    columns = [asymmetry([[int((i, jj) == (a, b)) for jj in range(n)] for i in range(n)])
               for a in range(n) for b in range(n)]
    rank = sum(1 for d in intmat.snf(list(zip(*columns))) if d % p)
    lift_count = p ** (n * n - rank)
    scalar_count = sum(
        1 for c in range(p)
        if all(v % p == 0 for v in
               asymmetry([[c * (i == jj) for jj in range(n)] for i in range(n)])))
    if scalar_count == 0 or lift_count % scalar_count:
        raise AssertionError("scalar subgroup does not divide the solution count")
    return {
        "lift_count": lift_count,
        "scalar_count": scalar_count,
        "pu_count": lift_count // scalar_count,
    }


__all__ = [
    "SchemeSL", "ReductionHom",
    "Closure", "group_closure", "reduce_matrix",
    "rmat_identity", "rmat_mul",
    "congruence_quotient_check", "pu_identity_congruent_count",
    "CLOSURE_BUDGET_DEFAULT",
]
