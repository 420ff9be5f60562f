"""Finite matrix groups over residue rings O/p^k: presentations realized by
exact matrices, reduction homomorphisms, closures (``coset.orbit`` of the
identity) and congruence-kernel quotient checks.

A matrix over a residue ring is the flat row-major tuple of its entries'
residue indices (``ResidueRing.index``), so it hashes and compares
directly, and the order of those tuples is the order of the coordinate
representatives.  Products, determinants (``rings.det``'s first-row
expansion) and p-th powers run on the ring's add, mul and neg tables: a
product entry is a sum of table lookups, and no coordinate tuple is formed
or reduced.  A ring's N^2 table entries are declared against the budget
before any table is built, and every enumeration declares its cost
estimate up front and refuses to start past the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BudgetExceeded, InputError
from . import coset, intmat, ringmat, rings
from .rings import ResidueRing

CLOSURE_BUDGET_DEFAULT = 10_000_000


# ---------------------------------------------------------------------------
# residue matrices


def table_ring(prime, k, budget):
    """O/p^k, its add and mul tables of N^2 entries each declared against
    the budget before any is built."""
    R = ResidueRing(prime, k)
    entries = R.size ** 2
    if entries > budget:
        raise BudgetExceeded(
            "add and mul tables of O/p^%d, %d entries each, exceed budget"
            % (k, entries), estimate=entries, budget=budget)
    return R


def reduce_matrix(R, m):
    """The flat row-major residue indices of an integral matrix."""
    index, reduce = R.index, R.reduce
    return tuple(index(reduce(x)) for row in m for x in row)


def rmat_identity(R, n):
    one, zero = R.index(R.one), R.index(R.zero)
    return tuple(one if i == j else zero for i in range(n) for j in range(n))


def rdot(R, xs, ys):
    """The index of sum x_t y_t over residue indices, by table lookups."""
    add, mul, size = R.add_table, R.mul_table, R.size
    acc = 0                 # the index of zero
    for x, y in zip(xs, ys):
        acc = add[acc * size + mul[x * size + y]]
    return acc


def rmat_det(R, m):
    """The index of det m for a square matrix of residue indices:
    ``rings.det`` on its rows, with the table operations."""
    n = math.isqrt(len(m))
    return rings.det([m[i:i + n] for i in range(0, len(m), n)],
                     lambda xs, ys: rdot(R, xs, ys), R.neg_table.__getitem__,
                     R.index(R.zero))


def rmat_mul(R, a, b):
    """a * b for square matrices of residue indices, each entry the
    ``rdot`` of a row and a column; written out for 2 x 2, the size of
    every SL2 closure."""
    add, mul, size = R.add_table, R.mul_table, R.size
    if len(a) == 4:
        a0, a1, a2, a3 = [x * size for x in a]
        b0, b1, b2, b3 = b
        return (add[mul[a0 + b0] * size + mul[a1 + b2]],
                add[mul[a0 + b1] * size + mul[a1 + b3]],
                add[mul[a2 + b0] * size + mul[a3 + b2]],
                add[mul[a2 + b1] * size + mul[a3 + b3]])
    n = math.isqrt(len(a))
    cols = [b[j::n] for j in range(n)]
    return tuple(rdot(R, a[i:i + n], col)
                 for i in range(0, len(a), n) for col in cols)


# ---------------------------------------------------------------------------
# the scheme predicate


class SchemeSL:
    """det = 1, on the congruence kernel."""

    name = "SL"

    def __init__(self, n):
        self.n = n

    def check(self, R, t, m):
        """Is det(Id + pi^j M) = 1 in O/p^k, for M over R = O/p^(k-j) and t
        the index of pi^j in R?  det(Id + tM) is the sum over the index sets
        S of t^|S| det M_SS, so det(Id + pi^j M) - 1 is pi^j times the sum
        over nonempty S of t^(|S|-1) det M_SS, and multiplication by pi^j is
        injective from O/p^(k-j) into O/p^k: that sum must be zero in R."""
        n, add, mul, size = self.n, R.add_table, R.mul_table, R.size
        total, scale = 0, R.index(R.one)
        for i in range(1, n + 1):
            for rows in itertools.combinations(range(n), i):
                minor = rmat_det(R, tuple(m[r * n + c] for r in rows for c in rows))
                total = add[total * size + mul[scale * size + minor]]
            scale = mul[scale * size + t]
        return total == 0


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


def group_closure(R, gens, budget=CLOSURE_BUDGET_DEFAULT, canon=None,
                  product=None, identity=None):
    """``coset.orbit`` of the identity under right multiplication by the
    generator matrices, whose action columns are the Closure's action.

    No inverses are needed: in a finite group the monoid the generators
    generate is the whole group.  The distinct canonical generators are
    tried in sorted order, so the result does not depend on the order of
    ``gens``.  ``canon`` optionally canonicalizes products (quotient by a
    central subgroup).  ``product`` and ``identity``, by default
    ``rmat_mul`` over R and the identity matrix, give the group law of
    another carrier, such as the congruence kernel's M.
    """
    if canon is None:
        canon = lambda m: m
    if product is None:
        product = lambda a, b: rmat_mul(R, a, b)
    gens = sorted({canon(g) for g in gens})
    if identity is None:
        identity = rmat_identity(R, math.isqrt(len(gens[0])))
    elements, columns, _ = coset.orbit(
        canon(identity), gens, lambda a, g: canon(product(a, g)), budget)
    return Closure(elements, {g: tuple(c) for g, c in zip(gens, columns)})


# ---------------------------------------------------------------------------
# realizations and reduction homomorphisms


@dataclass(frozen=True)
class Realization:
    """A presentation with exact integral generator matrices, each with an
    integral inverse, on which every relator is Id or -Id.

    The constructor is the one exact evaluation of the relators: it
    refuses a wrong matrix count, a matrix or an inverse that is not
    integral, and a relator of any other value.  ``signs`` holds +1 or -1
    per relator, its value on the matrices."""
    pres: object
    matrices: tuple
    signs: tuple = field(init=False)
    _inverses: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mats = tuple(self.matrices)
        if len(mats) != self.pres.ngens:
            raise InputError("need one matrix per generator")
        inverses = tuple(ringmat.mat_inverse(m) for m in mats)
        if not all(ringmat.is_integral(m) for m in mats + inverses):
            raise InputError("generator matrices must be integral with "
                             "integral inverse")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_inverses", inverses)
        ident = ringmat.identity(mats[0][0][0].ring, len(mats[0]))
        minus = ringmat.mat_scale(ident, -1)
        signs = []
        for rel in self.pres.relators:
            value = self.evaluate(rel)
            if value != ident and value != minus:
                raise InputError("relator %r is neither Id nor -Id on the "
                                 "matrices" % (rel,))
            signs.append(1 if value == ident else -1)
        object.__setattr__(self, "signs", tuple(signs))

    @property
    def projective(self):
        """Some relator is -Id: the matrices realize the group only modulo
        the centre {+-Id}."""
        return -1 in self.signs

    def evaluate(self, word):
        """The exact matrix of a word, letter -i standing for the inverse
        of generator i."""
        m = self.matrices[0]
        out = ringmat.identity(m[0][0].ring, len(m))
        for letter in word:
            out = ringmat.mat_mul(out, self.matrices[letter - 1] if letter > 0
                                  else self._inverses[-letter - 1])
        return out


class ReductionHom:
    """The reduction of a realized group to matrices over O/p^k.

    The ``Realization`` has checked every relator exactly over the ring,
    so each holds in the finite quotient too; the coset table built from
    ``permutations`` traces every relator again on the images.  When the
    realization is projective the target is the quotient by the centre
    {+-Id}, and residue matrices are canonicalized up to sign.

    ``permutations`` reads the action that group_closure recorded on its
    list of the image (identity first, then BFS order).
    """

    def __init__(self, group, prime, k, budget=CLOSURE_BUDGET_DEFAULT):
        self.projective = group.projective
        self.R = table_ring(prime, k, budget)
        self.images = [self._canon(reduce_matrix(self.R, m)) for m in group.matrices]
        closure = group_closure(self.R, self.images, budget=budget,
                                canon=self._canon)
        self.order = len(closure)
        self._action = closure.action

    def _canon(self, m):
        """min(m, -m): the first entry x with -x != x decides, and the
        matrix is negated only when -x < x."""
        if not self.projective:
            return m
        neg = self.R.neg_table
        for x in m:
            nx = neg[x]
            if nx != x:
                return tuple(neg[y] for y in m) if nx < x else m
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

    The kernel is {Id + pi^j M}, and it is carried by the matrices M over
    R = O/p^(k-j): multiplication by pi^j is injective from O/p^(k-j) into
    O/p^k, so Id + pi^j M determines M, and the product
    (Id + pi^j A)(Id + pi^j B) = Id + pi^j (A + B + pi^j AB) is
    ``kernel_product``, A + B + t AB with t = pi^j in R, whose identity is
    M = 0.  The candidates, every M in tuple order, are filtered by the
    scheme predicate.  The size N(p)^k of O/p^k, the ring the kernel lies
    in (which also bounds the power pi^j formed), and then the candidate
    count are checked against the budget before the enumeration, and the
    N^2-entry tables of R before they are built.

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
    R = table_ring(prime, k - j, budget)
    t = R.index(R.reduce(prime.uniformizer_power(j)))
    candidates = itertools.product(range(R.size), repeat=n * n)
    elements = [m for m in candidates if scheme.check(R, t, m)]
    order = len(elements)
    products = 4 * order * (order - 1).bit_length()    # 4 * order * ceil(log2 order)
    if products > budget:
        raise BudgetExceeded(
            "kernel of order %d needs up to %d products, over the budget"
            % (order, products), estimate=products, budget=budget)

    def product(a, b):
        return kernel_product(R, t, a, b)

    ident = (0,) * (n * n)      # M = 0, the identity Id + pi^j 0
    gens = _generating_set(R, elements, ident, product)
    abelian = all(product(a, b) == product(b, a)
                  for a, b in itertools.combinations(gens, 2))
    p = prime.p
    exponent = 1
    for a in elements:
        o = 1
        while a != ident:       # a, a^p, a^(p^2), ... until Id
            if o * p > order:
                raise AssertionError("kernel is not a p-group")
            a = rings.power(a, p, product)
            o *= p
        exponent = max(exponent, o)
    report.update(
        order=order,
        abelian=abelian,
        exponent=exponent,
        elementary_abelian=abelian and exponent == p,
    )
    return report


def kernel_product(R, t, a, b):
    """A + B + t AB for square matrices of residue indices: the product of
    Id + pi^j A and Id + pi^j B carried to the M's, t being pi^j's index."""
    add, mul, size = R.add_table, R.mul_table, R.size
    t *= size
    return tuple(add[add[x * size + y] * size + mul[t + z]]
                 for x, y, z in zip(a, b, rmat_mul(R, a, b)))


def _generating_set(R, elements, ident, product):
    """Generators of the set ``elements`` under ``product``, chosen
    greedily in order; raises AssertionError unless the set is a group."""
    members = set(elements)
    gens = []
    span = {ident}
    for a in elements:
        if a in span:
            continue
        gens.append(a)
        try:
            # a closure past len(members) elements cannot lie inside them
            span = set(group_closure(R, gens, len(members), product=product,
                                     identity=ident).elements)
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
    "SchemeSL", "Realization", "ReductionHom",
    "Closure", "group_closure", "table_ring", "reduce_matrix",
    "rmat_identity", "rdot", "rmat_det", "rmat_mul",
    "congruence_quotient_check", "kernel_product", "pu_identity_congruent_count",
    "CLOSURE_BUDGET_DEFAULT",
]
