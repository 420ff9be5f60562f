"""Exact integer matrix algebra: Hermite and Smith normal forms.

Everything is plain Python ints (arbitrary precision), lists of rows.
``hnf`` gives the canonical basis of a row lattice (the prime-power
lattices of ``rings``), and ``lattice_contains`` tests membership in it.
The Smith reduction uses minimal-absolute-value pivoting with full row and
column reduction, which keeps entries tame at the sizes we need (a few
thousand rows).  Abelian invariants always go through a sparse elimination
front end that knocks out +-1 pivots, shortest row first from a queue of
rows bucketed by length, before handing the small dense core to ``snf``.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def hnf(rows):
    """Row HNF H of an int matrix M: the same row lattice as M, in
    canonical form: pivots positive, entries above each pivot reduced
    into [0, pivot), zero rows at the bottom.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    row = 0
    for col in range(n):
        # gcd-eliminate everything below `row` in this column
        piv = None
        for r in range(row, m):
            if a[r][col]:
                if piv is None or abs(a[r][col]) < abs(a[piv][col]):
                    piv = r
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        while True:
            done = True
            for r in range(row + 1, m):
                if a[r][col]:
                    q = a[r][col] // a[row][col]
                    if q:
                        _row_sub(a[r], a[row], q)
                    if a[r][col]:
                        a[row], a[r] = a[r], a[row]
                        done = False
            if done:
                break
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
        # reduce entries above the pivot
        for r in range(row):
            q = a[r][col] // a[row][col]
            if q:
                _row_sub(a[r], a[row], q)
        row += 1
        if row == m:
            break
    return a


def _row_sub(target, source, q):
    for j in range(len(target)):
        if source[j]:
            target[j] -= q * source[j]


def lattice_contains(hnf_rows, vector):
    """Membership of an integer vector in the row lattice given by a square,
    full-rank upper-triangular HNF basis."""
    x = list(vector)
    n = len(x)
    for i in range(n):
        piv = hnf_rows[i][i]
        if x[i] % piv:
            return False
        q = x[i] // piv
        if q:
            for j in range(i, n):
                x[j] -= q * hnf_rows[i][j]
    return all(v == 0 for v in x)


# ---------------------------------------------------------------------------
# Smith normal form


def snf(rows):
    """Divisor chain d_1 | d_2 | ... | d_r (nonzero divisors only)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    divisors = []
    s = 0
    while s < m and s < n:
        if _min_abs_pivot(a, m, n, s) is None:
            break
        while True:
            _clear_block_corner(a, m, n, s)
            # pivot must divide every remaining entry of the block
            piv_val = abs(a[s][s])
            offender = None
            for r in range(s + 1, m):
                row = a[r]
                for c in range(s + 1, n):
                    if row[c] % piv_val:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                a[s][j] += a[offender][j]
        divisors.append(abs(a[s][s]))
        s += 1
    return divisors


def _clear_block_corner(a, m, n, s):
    """Make a[s][s] the gcd pivot with zero row/column tail (min-abs pivoting)."""
    while True:
        r, c = _min_abs_pivot(a, m, n, s)
        if r != s:
            a[s], a[r] = a[r], a[s]
        if c != s:
            for row in a:
                row[s], row[c] = row[c], row[s]
        pv = a[s][s]
        dirty = False
        for r2 in range(s + 1, m):
            if a[r2][s]:
                q = a[r2][s] // pv
                if q:
                    _row_sub(a[r2], a[s], q)
                if a[r2][s]:
                    dirty = True
        for c2 in range(s + 1, n):
            if a[s][c2]:
                q = a[s][c2] // pv
                if q:
                    for row in a:
                        if row[s]:
                            row[c2] -= q * row[s]
                if a[s][c2]:
                    dirty = True
        if not dirty:
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
            return


def _min_abs_pivot(a, m, n, s):
    best = None
    best_val = None
    for r in range(s, m):
        row = a[r]
        for c in range(s, n):
            v = row[c]
            if v:
                av = abs(v)
                if best_val is None or av < best_val:
                    best, best_val = (r, c), av
                    if av == 1:
                        return best
    return best


# ---------------------------------------------------------------------------
# abelian invariants


def _factorint(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariants of a finitely generated abelian group.

    ``torsion`` is the multiset (sorted tuple) of prime powers appearing in
    the elementary-divisor decomposition; equality of AbelianInvariants is
    isomorphism of the groups.
    """

    free_rank: int
    torsion: tuple

    @classmethod
    def from_divisors(cls, ngens, divisors):
        rank = ngens - len(divisors)
        torsion = []
        for d in divisors:
            if d in (0, 1):
                continue
            for p, e in _factorint(d).items():
                torsion.append(p ** e)
        return cls(rank, tuple(sorted(torsion)))

    def torsion_factorization(self):
        """Size of the torsion subgroup in prime factorization, e.g. '2^5'."""
        if not self.torsion:
            return "1"
        agg = {}
        for q in self.torsion:
            fac = _factorint(q)
            for p, e in fac.items():
                agg[p] = agg.get(p, 0) + e
        parts = []
        for p in sorted(agg):
            e = agg[p]
            parts.append("%d^%d" % (p, e) if e > 1 else str(p))
        return " ".join(parts)

    def has_p_torsion(self, p):
        return any(q % p == 0 for q in self.torsion)

    def __str__(self):
        if self.free_rank == 0 and not self.torsion:
            return "trivial"
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank if self.free_rank > 1 else "Z")
        parts.extend("Z/%d" % q for q in self.torsion)
        return " x ".join(parts)


def abelian_invariants(relation_rows, num_generators):
    """Invariants of Z^num_generators / (row span of relation matrix).

    A row is a ``{column: coefficient}`` dict or a dense sequence.  The
    rows go through unit-pivot sparse elimination, then dense SNF on the
    residual core.  The pivot row is the shortest row with a +-1 entry,
    not the one of least Markowitz cost (r - 1)(c - 1) (Havas & Majewski
    1997); within it the pivot is the unit whose column has the fewest
    rows.  Live rows are filed in buckets indexed by their length, drained
    from the shortest; a pointer to the shortest non-empty bucket is
    lowered when an elimination shortens a row below it.  A unit pivot
    contributes the divisor 1 and removes its row and column exactly, so
    only the rows left without a unit reach ``snf``.
    """
    sparse = []
    for r in relation_rows:
        d = {j: v for j, v in (r.items() if isinstance(r, dict)
                               else enumerate(r)) if v}
        if d:
            sparse.append(d)
    by_col = {}
    for i, row in enumerate(sparse):
        for j in row:
            by_col.setdefault(j, set()).add(i)
    # buckets[k] lists the rows filed at length k; a row is filed again
    # whenever an elimination changes it, so an id whose row is dead or no
    # longer of length k is stale and skipped.  No row is longer than the
    # number of columns.
    buckets = [[] for _ in range(len(by_col) + 1)]
    for i, row in enumerate(sparse):
        buckets[len(row)].append(i)
    unit_pivots = 0
    k = 1
    while k < len(buckets):
        bucket = buckets[k]
        if not bucket:
            k += 1
            continue
        pi = bucket.pop()
        prow = sparse[pi]
        if prow is None or len(prow) != k:
            continue
        pj = None
        for j, v in prow.items():
            if (v == 1 or v == -1) and (
                    pj is None or len(by_col[j]) < len(by_col[pj])):
                pj = j
        if pj is None:
            continue  # no unit entry: filed again once it changes
        pval = prow.pop(pj)
        for j in prow:
            by_col[j].discard(pi)
        sparse[pi] = None
        unit_pivots += 1
        for i in by_col.pop(pj):
            if i == pi:
                continue
            row = sparse[i]
            factor = row.pop(pj) * pval  # pval is +-1 so this is row[pj]/pval
            for j, v in prow.items():
                if j in row:
                    nv = row[j] - factor * v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
                        by_col[j].discard(i)
                else:
                    row[j] = -factor * v
                    by_col[j].add(i)
            n = len(row)
            if n:
                buckets[n].append(i)
                if n < k:
                    k = n
            else:
                sparse[i] = None

    # densify the remaining core on the columns it still touches
    core_rows = [row for row in sparse if row is not None]
    col_index = {j: t for t, j in enumerate(
        sorted({j for row in core_rows for j in row}))}
    core = []
    for row in core_rows:
        dense = [0] * len(col_index)
        for j, v in row.items():
            dense[col_index[j]] = v
        core.append(dense)
    divisors = [1] * unit_pivots + (snf(core) if core else [])
    return AbelianInvariants.from_divisors(num_generators, divisors)


__all__ = [
    "hnf", "snf", "abelian_invariants", "AbelianInvariants",
    "lattice_contains",
]
