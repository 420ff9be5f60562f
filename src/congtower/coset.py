"""Orbits of finite actions with their Schreier trees, coset enumeration
(HLT Todd-Coxeter with lookahead and coincidence processing) and
Reidemeister-Schreier subgroup presentations.

Follows the structure in Holt, Eick and O'Brien, "Handbook of
Computational Group Theory", ch. 4 and 5.  ``orbit`` is the one
breadth-first walk of a finite orbit: group closures, tree-model
neighbours, tower alignment words and table standardization read its
points, action columns and tree, and a table keeps the tree for its
Schreier transversal.  Cosets are ints starting at 0; a table row holds,
for each letter (generator or inverse), the image coset or None.  Coset
numbering is first-defined order and tables are standardized
(renumbered in the orbit order of coset 0) after completion, so
enumeration output is reproducible bit for bit.
"""

from __future__ import annotations

from .errors import BudgetExceeded, InputError
from .presentations import Presentation, free_reduce, inverse_word

MAX_COSETS_DEFAULT = 2_000_000


def _letters(word):
    """word letters (+-k) -> table letter indices (2(k-1) / 2(k-1)+1)."""
    return tuple(2 * (l - 1) if l > 0 else 2 * (-l - 1) + 1 for l in word)


def _inv_letter(x):
    return x ^ 1


class CosetTable:
    """Complete coset table for a subgroup of a finitely presented group,
    standardized on construction, with the Schreier tree of the orbit of
    coset 0 that standardization walked: parents[c] = (b, x) when coset c
    was first reached from coset b < c by letter x, None at coset 0."""

    def __init__(self, pres, rows, subgroup_words):
        self.pres = pres
        self.rows, self.parents = _standardize(rows)
        self.subgroup_words = tuple(subgroup_words)

    @property
    def index(self):
        return len(self.rows)

    def trace(self, coset, word):
        for x in _letters(word):
            coset = self.rows[coset][x]
        return coset

    def validate(self):
        """Completeness, relator tracing, subgroup generator stabilization."""
        for row in self.rows:
            if any(v is None for v in row):
                raise InputError("coset table is incomplete")
        for c in range(len(self.rows)):
            for rel in self.pres.relators:
                if self.trace(c, rel) != c:
                    raise InputError("relator fails to trace at coset %d" % c)
        for w in self.subgroup_words:
            if self.trace(0, w) != 0:
                raise InputError("subgroup generator moves coset 0")
        return True


def coset_enumerate(pres, subgroup_words=(), max_cosets=MAX_COSETS_DEFAULT):
    """HLT enumeration of the cosets of <subgroup_words> in pres.

    Raises BudgetExceeded when the table would grow past max_cosets (the
    subgroup may simply have infinite index; that is not detectable).
    """
    enum = _Enumerator(pres, max_cosets)
    for w in subgroup_words:
        enum.scan_and_fill(0, _letters(free_reduce(w)))
    alpha = 0
    rel_letters = [_letters(r) for r in pres.relators]
    while alpha < len(enum.table):
        if enum.p[alpha] != alpha:
            alpha += 1
            continue
        for rl in rel_letters:
            enum.scan_and_fill(alpha, rl)
            if enum.p[alpha] != alpha:
                break
        # fill the remaining entries of the row so generators that appear in
        # no relator still get defined (free directions grow until the cap)
        if enum.p[alpha] == alpha:
            for x in range(enum.nletters):
                if enum.table[alpha][x] is None:
                    enum.define(alpha, x)
        alpha += 1
        if len(enum.table) > enum.next_lookahead:
            enum.lookahead(rel_letters)
    table = CosetTable(pres, enum.live_rows(), subgroup_words)
    table.validate()
    return table


class _Enumerator:
    def __init__(self, pres, max_cosets):
        self.pres = pres
        self.nletters = 2 * pres.ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.nletters]
        self.p = [0]
        self.next_lookahead = 50_000

    # -- union-find ------------------------------------------------------

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha, x):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded(
                "coset table exceeded %d cosets" % self.max_cosets,
                estimate=len(self.table), budget=self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.nletters)
        self.p.append(beta)
        self.table[alpha][x] = beta
        self.table[beta][_inv_letter(x)] = alpha
        return beta

    def _merge(self, k, lam, queue):
        x = self.rep(k)
        y = self.rep(lam)
        if x != y:
            mu, nu = min(x, y), max(x, y)
            self.p[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha, beta):
        queue = []
        self._merge(alpha, beta, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            for x in range(self.nletters):
                delta = self.table[gamma][x]
                if delta is None:
                    continue
                self.table[delta][_inv_letter(x)] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][_inv_letter(x)] is not None:
                    self._merge(mu, self.table[nu][_inv_letter(x)], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][_inv_letter(x)] = mu

    def scan_and_fill(self, alpha, letters, fill=True):
        alpha = self.rep(alpha)
        if not letters:
            return
        f = alpha
        i = 0
        b = alpha
        j = len(letters) - 1
        while True:
            # scan forward as far as possible
            while i <= j and self.table[f][letters[i]] is not None:
                f = self.table[f][letters[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            # scan backward
            while j >= i and self.table[b][_inv_letter(letters[j])] is not None:
                b = self.table[b][_inv_letter(letters[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # the gap is a single letter: deduction
                self.table[f][letters[i]] = b
                self.table[b][_inv_letter(letters[i])] = f
                return
            if not fill:
                return
            f = self.define(f, letters[i])
            i += 1

    def lookahead(self, rel_letters):
        """Scan-only pass over all live cosets to flush out coincidences."""
        for alpha in range(len(self.table)):
            if self.p[alpha] != alpha:
                continue
            for rl in rel_letters:
                self.scan_and_fill(alpha, rl, fill=False)
                if self.p[alpha] != alpha:
                    break
        self.next_lookahead = len(self.table) + 50_000

    def live_rows(self):
        live = [k for k in range(len(self.table)) if self.p[k] == k]
        renum = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = []
            for x in range(self.nletters):
                v = self.table[c][x]
                if v is None:
                    row.append(None)
                else:
                    row.append(renum[self.rep(v)])
            rows.append(row)
        return rows


def orbit(seed, gens, act, budget):
    """The orbit of ``seed`` under ``act(point, gen)``, breadth-first with
    the generators in the given order.

    Returns (points, action, parents): the points, seed first, then in
    BFS order; the action columns, points[action[k][i]] ==
    act(points[i], gens[k]); and the Schreier tree, parents[i] = (j, k)
    when point i was first reached as act(points[j], gens[k]), None at
    the seed.  Raises BudgetExceeded past ``budget`` points.
    """
    points = [seed]
    index = {seed: 0}
    parents = [None]
    action = [[] for _ in gens]
    columns = [(k, g, column.append)
               for k, (g, column) in enumerate(zip(gens, action))]
    for i, x in enumerate(points):      # the list grows as it is walked
        for k, g, append in columns:
            y = act(x, g)
            pos = index.get(y)
            if pos is None:
                pos = index[y] = len(points)
                points.append(y)
                parents.append((i, k))
                if len(points) > budget:
                    raise BudgetExceeded(
                        "orbit exceeded budget %d" % budget,
                        estimate=len(points), budget=budget)
            append(pos)
    return points, action, parents


def _standardize(rows):
    """Cosets renumbered in the order of their ``orbit`` from coset 0,
    the letters in ascending order, each acting by its column of the
    table: the canonical table layout, read off the action columns, and
    the orbit's Schreier tree, whose point indices are the new numbers.
    InputError unless the orbit reaches every coset."""
    cosets, action, parents = orbit(
        0, list(zip(*rows)), lambda c, column: column[c], len(rows))
    if len(cosets) != len(rows):
        raise InputError("coset graph is not connected")
    return [list(row) for row in zip(*action)], parents


def table_from_permutations(pres, perms):
    """Coset table from an explicit permutation action of the generators.

    perms[g] maps coset -> coset for generator g (all bijections on the same
    range, point 0 = the subgroup).  Used for congruence kernels, where the
    action is right multiplication on the finite image group.  The table is
    complete by construction, and ``rewrite_word`` traces every relator.
    """
    n = len(perms[0]) if perms else 1
    nletters = 2 * pres.ngens
    inv = []
    for perm in perms:
        ip = [0] * n
        for i, v in enumerate(perm):
            ip[v] = i
        inv.append(ip)
    rows = []
    for c in range(n):
        row = []
        for g in range(pres.ngens):
            row.append(perms[g][c])
            row.append(inv[g][c])
        rows.append(row)
    return CosetTable(pres, rows, ())


# ---------------------------------------------------------------------------
# Schreier transversals and Reidemeister-Schreier


def schreier_transversal(table):
    """Spanning tree of the coset graph: the table's Schreier tree of the
    orbit of coset 0, letters in ascending order (shortlex).

    Returns (transversal, tree_edges): transversal[c] is a word in the
    parent generators carrying coset 0 to c; tree_edges is a set of
    (coset, letter) pairs (both directions included).
    """
    transversal = [()]
    tree = set()
    for d, (c, x) in enumerate(table.parents[1:], 1):
        letter = (x // 2 + 1) if x % 2 == 0 else -(x // 2 + 1)
        transversal.append(transversal[c] + (letter,))
        tree.add((c, x))
        tree.add((d, _inv_letter(x)))
    return transversal, tree


def schreier_generators(table):
    """The nontrivial Schreier generators of the point stabilizer.

    Returns (gen_words, gen_index) where gen_words[k] is a word in the
    parent generators and gen_index maps (coset, generator) -> k for the
    non-tree edges.
    """
    transversal, tree = schreier_transversal(table)
    gen_words = []
    gen_index = {}
    for c in range(table.index):
        for g in range(table.pres.ngens):
            x = 2 * g
            if (c, x) in tree:
                continue
            d = table.rows[c][x]
            word = free_reduce(transversal[c] + (g + 1,) + inverse_word(transversal[d]))
            gen_index[(c, g)] = len(gen_words)
            gen_words.append(word)
    expected = table.index * table.pres.ngens - (table.index - 1)
    assert len(gen_words) == expected, (len(gen_words), expected)
    return gen_words, gen_index


def rewrite_word(table, gen_index, start, word):
    """Rewrite a parent word traced from a coset into Schreier letters;
    InputError unless the word's path returns to that coset."""
    out = []
    c = start
    for letter in word:
        if letter > 0:
            g = letter - 1
            k = gen_index.get((c, g))
            if k is not None:
                out.append(k + 1)
            c = table.rows[c][2 * g]
        else:
            g = -letter - 1
            c = table.rows[c][2 * g + 1]
            k = gen_index.get((c, g))
            if k is not None:
                out.append(-(k + 1))
    if c != start:
        raise InputError("relator fails to trace at coset %d" % start)
    return free_reduce(tuple(out))


def reidemeister_schreier(pres, table):
    """Presentation of the subgroup the table enumerates.

    Generators: nontrivial Schreier generators (index*(ngens-1)+1 of them).
    Relators: every parent relator rewritten at every coset
    (index * len(relators) words, some of which may freely reduce away).
    """
    gen_words, gen_index = schreier_generators(table)
    names = tuple("s%d" % k for k in range(len(gen_words)))
    relators = []
    for c in range(table.index):
        for rel in pres.relators:
            w = rewrite_word(table, gen_index, c, rel)
            if w:
                relators.append(w)
    sub = Presentation(names, tuple(relators), provenance=pres.provenance)
    return sub, gen_words


__all__ = [
    "orbit", "CosetTable", "coset_enumerate", "table_from_permutations",
    "schreier_transversal", "schreier_generators", "rewrite_word",
    "reidemeister_schreier", "MAX_COSETS_DEFAULT",
]
