"""Bruhat-Tits tree combinatorics via lattice classes.

Vertices are homothety classes of p-local lattices in K^n, represented by
canonical basis matrices: the column span over the localization at the
prime, scaled so the minimal elementary-divisor exponent is 0 and put into
Hermite form over the local ring with canonical residue representatives.
Its entries are ring integers, so a vertex is the int coordinate matrix
of its canonical form, a tuple of rows of int coordinate tuples, whose
columns zip(*v) generate the lattice; vertices compare, hash and sort as
tuples, and only ``vertex_strings`` lifts one to ring elements, to print
it.  Canonicalization takes the lattice's generators as int rows over one
denominator, eliminates without fractions, and reduces the residues mod a
power of the prime once, at the end.  The prime (a
``rings.PrimeIdeal``) is all the local context there is: it caches the
lattices of its powers p^k, the uniformizer powers pi^k, negative k
included, which make the exact quotients by pi^v, and the inverses of
units mod p^k, lifted from the residue field.

Tree models package a base vertex per type together with "moves": global
group elements carrying the base vertex to each of its neighbors,
discovered as a stabilizer orbit (``coset.orbit``, never hardcoded), each
with the canonical vertex it reaches and a transporter read off the
orbit's Schreier tree; a two-type model keeps the midpoint orbit's action
columns too, which the tower's alignment reads.  A g in GL_n(K) maps the
homothety class of X O^n to that of g X O^n, so canonicalize(g X)
depends only on the class of X, and a move's small canonical vertex
stands in for its transporter times the base.  A product that is only
canonicalized is taken on int numerators (``ringmat.product_rows``):
dropping a denominator is a homothety, so no ring element is built for
it.  BFS exploration keeps each frame g (a transporter from the base) as
int rows and each move's transporter as int columns, taken once per
walk; it reaches neighbour i of a vertex with frame g as
canonicalize(g * vertex_i), forms a child's frame rows g * transporter_i
only when it expands the child, and skips the one move that leads back
to the parent.  The tower's swap moves are ``Move`` records too, to the base
type (``tower._swap_moves``); in a one-type tree they are the base moves
themselves, and one breadth-first walk over them (``tower._walk``) gives
the tower's steps and its covered radius.
"""

from __future__ import annotations

import functools
import itertools
import types
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from . import catalog, coset, ringmat, rings
from .rings import make_ring, factor_rational_prime


def canonicalize(generators, prime):
    """Canonical representative of the homothety class of a lattice, given
    its generators as int coordinate rows: the numerators of a basis
    matrix's columns (``ringmat.numerator_columns``), the columns of a
    vertex, or of a product (``ringmat.product_rows``).  The result is a
    vertex: the int coordinate matrix whose columns span the class.

    Hermite form over the localization: upper triangular, diagonal entries
    exact uniformizer powers, entries to the right of each pivot reduced to
    canonical residue representatives, minimal diagonal exponent 0.
    Idempotent; raises on singular input.

    The work runs on the int coordinates of ring integers (the local
    analogue of Cohen's Hermite form modulo the determinant, 1993), and no
    ``RingElt`` is built.

    1. The generators are int rows over one dropped denominator, a
       homothety; they are copied, as the elimination works in place.
    2. Elimination needs no fractions: an entry x under the pivot
       y = pi^v u is cleared by row <- u row - (x / pi^v) pivot row, a
       scaling by the p-unit u, which keeps the span over the local ring;
       x / pi^v is an exact quotient of ring integers.
    3. The content c, the least valuation of any entry, is divided out,
       leaving pivots pi^(k_i).
    4. The rest runs mod p^K, K the sum of the k_i right of column 0:
       the fixups that reduce the entries of column j lose k_j of
       precision each, and column j needs k_j.  Each row is scaled by its
       unit's inverse mod p^K, lifted from the residue field.
    """
    n = len(generators)
    ring = prime.ring
    at_least = prime.numerator_at_least
    reduce_coords = rings.reduce_coords
    dot = ring.dot_coords
    mul = ring._mul_coords
    rows = [list(row) for row in generators]
    exps = []
    units = []
    for col in range(n):
        # the first row of least valuation: past the first nonzero entry,
        # one membership test against the least valuation so far
        piv = piv_val = None
        for r in range(col, n):
            x = rows[r][col]
            if any(x) and (piv is None or not at_least(x, piv_val)):
                piv, piv_val = r, prime.numerator_valuation(x)
        if piv is None:
            raise InputError("basis matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        u = prime.exact_quotient(prow[col], piv_val)
        exps.append(piv_val)
        units.append(u)
        for r in range(col + 1, n):
            row = rows[r]
            x = row[col]
            if any(x):
                q = prime.exact_quotient(x, piv_val)
                neg_q = tuple(-a for a in q)
                row[col + 1:] = [dot((u, neg_q), (a, b))
                                 for a, b in zip(row[col + 1:], prow[col + 1:])]
    # the content: the least valuation of any entry, tested against the
    # least valuation so far
    content = min(exps)
    for r in range(n):
        for x in rows[r][r + 1:]:
            if any(x) and not at_least(x, content):
                content = prime.numerator_valuation(x)
    exps = [e - content for e in exps]
    # K; with K = 0 every entry right of a pivot reduces to 0
    prec = sum(exps[1:])
    if prec:
        lattice = prime.power_lattice(prec)
        # right of the pivot, row r <- row r / (pi^c u_r) mod p^K: with
        # pi^-c = num/den and w the inverse of u_r, x / pi^c is a ring
        # integer, so each coordinate of x (num w) divides by den exactly
        c_inv = prime.uniformizer_power(-content)
        for r in range(n - 1):
            m = mul(c_inv.num, prime.unit_inverse(units[r], prec))
            rows[r][r + 1:] = [
                reduce_coords(lattice, tuple(a // c_inv.den for a in mul(x, m)))
                for x in rows[r][r + 1:]]
        # reduce the entries above each pivot pi^k to their residues mod
        # p^k (to 0 when k = 0), ascending so that later columns absorb the
        # fixups
        for col in range(1, n):
            k = exps[col]
            prow = rows[col]
            k_lattice = prime.power_lattice(k)
            for r in range(col):
                row = rows[r]
                x = row[col]
                rep = reduce_coords(k_lattice, x)
                if rep != x:
                    diff = prime.exact_quotient(
                        tuple(a - b for a, b in zip(x, rep)), k)
                    neg_diff = tuple(-a for a in diff)
                    row[col] = rep
                    row[col + 1:] = [
                        reduce_coords(lattice, tuple(
                            a + b for a, b in zip(y, mul(neg_diff, z))))
                        for y, z in zip(row[col + 1:], prow[col + 1:])]
    # hand back in column convention; pi^k, k >= 0, is a ring integer
    out = [[ring.zero.num] * n for _ in range(n)]
    for r in range(n):
        out[r][r] = prime.uniformizer_power(exps[r]).num
        if prec:
            for c in range(r + 1, n):
                out[c][r] = rows[r][c]
    return tuple(tuple(row) for row in out)


def apartment_vertex(prime, n, r_twice):
    """Apartment vertex x_{r} for r in (1/2)Z, encoded as 2r.

    Integer r: [pi^r e_1, e_2, ..., pi^-r e_n];  half-integers interleave:
    x_{r+1/2} = [pi^(r+1) e_1, e_2, ..., pi^-r e_n].
    """
    ring = prime.ring
    if r_twice % 2 == 0:
        r = r_twice // 2
        a, b = r, -r
    else:
        r = (r_twice - 1) // 2
        a, b = r + 1, -r
    rows = [[ring.zero] * n for _ in range(n)]
    rows[0][0] = prime.uniformizer_power(a)
    for i in range(1, n - 1):
        rows[i][i] = ring.one
    rows[n - 1][n - 1] = prime.uniformizer_power(b)
    return canonicalize(ringmat.numerator_columns(rows), prime)


def canonical_image(g, x, prime):
    """The vertex canonicalize(g X) for a matrix g of ring elements and a
    vertex X: g's int rows, its denominator dropped, times X's columns."""
    return canonicalize(ringmat.product_rows(
        prime.ring, zip(*x), ringmat.numerators(g)[0]), prime)


def identity_vertex(ring, n):
    """The standard lattice's vertex, already canonical: the int identity."""
    return tuple(tuple((ring.one if i == j else ring.zero).num
                       for j in range(n)) for i in range(n))


def vertex_strings(ring, v):
    """The printed entries of a vertex: its one lift to ring elements."""
    return [[str(x) for x in row] for row in ringmat.from_numerators(ring, v, 1)]


# ---------------------------------------------------------------------------
# tree models


@dataclass(frozen=True)
class Move:
    target_type: str
    transporter: tuple  # global matrix
    vertex: tuple       # canonical transporter * base[target_type], int


class TreeModel:
    """Base vertices by type plus neighbor moves discovered from orbits,
    the swap that the towers move by, the form the group preserves, with
    its ringmat.preserves_form kind (None for pgl2), and in a two-type
    tree the midpoint stabilizer's generators stab_mid with their action:
    stab_mid[k] carries the midpoint's neighbour i to neighbour
    mid_action[k][i], the columns of the orbit that found them.  The base
    is neighbour 0, the orbit's seed being the identity, and the swap is
    stab_mid[0]."""

    def __init__(self, prime, bases, moves, name, swap, stab_mid, mid_action,
                 form, form_kind):
        self.prime = prime
        self.bases = bases            # type -> canonical vertex
        self._moves = moves           # type -> list of Move
        self.name = name
        self.base_type = next(iter(bases))
        self.swap = swap
        self.stab_mid = stab_mid
        self.mid_action = mid_action
        self.form = form
        self.form_kind = form_kind

    def moves(self, vtype):
        return self._moves[vtype]

    def valences(self):
        return {t: len(ms) for t, ms in self._moves.items()}


# Most neighbour moves one vertex type may have.
_ORBIT_BUDGET = 10_000

# Most vertices `bfs_explore` visits unless told otherwise.
EXPLORE_BUDGET_DEFAULT = 100_000


def _orbit_moves(prime, base_vertices, ttype, seed, stab_gens):
    """``coset.orbit`` of the seed neighbour seed * base[ttype] under
    stabilizer generators, s taking a neighbour v to canonicalize(s * v):
    the moves and the orbit's action columns.  The product is taken on
    int numerators, each generator's rows read once.  The seed is the
    first move, and each later move's witness transporter is s_k times
    its Schreier-tree parent's, formed once per neighbour."""
    ring = prime.ring
    v = canonical_image(seed, base_vertices[ttype], prime)
    vertices, action, parents = coset.orbit(
        v, [ringmat.numerators(s)[0] for s in stab_gens],
        lambda w, s: canonicalize(
            ringmat.product_rows(ring, zip(*w), s), prime),
        _ORBIT_BUDGET)
    moves = [Move(ttype, seed, v)]
    for w, (i, k) in zip(vertices[1:], parents[1:]):
        moves.append(Move(ttype, ringmat.mat_mul(
            stab_gens[k], moves[i].transporter), w))
    return moves, action


def pgl2_model(ring=None, prime=None):
    """The (N(p)+1)-regular tree for PGL2 at a prime; defaults to the
    split prime over 2 in O_7.  The swap seed is [[0, x], [1, 0]] with
    x of valuation 1: the rational prime p unless it ramifies, and then the
    prime's generator."""
    if ring is None:
        ring, prime = catalog.magic_ring_and_prime()
    bases = {"v": identity_vertex(ring, 2)}
    x = ring(prime.p) if prime.e == 1 else prime.pi
    swap = ((ring.zero, x), (ring.one, ring.zero))
    gens = catalog.sl2_gen_matrices(ring)
    stab = [gens["a"], gens["b"], gens["u"]]
    moves, _ = _orbit_moves(prime, bases, "v", swap, stab)
    expect = prime.norm() + 1
    if len(moves) != expect:
        raise AssertionError("pgl2 model found %d neighbors, expected %d"
                             % (len(moves), expect))
    return TreeModel(prime, bases, {"v": moves}, "pgl2(%d)" % prime.norm(),
                     swap, (), (), None, None)


def _conjugated_reflections():
    """The reflection generators moved into the Q coordinates."""
    alpha = catalog.coordinate_change_alpha()
    alpha_inv = ringmat.mat_inverse(alpha)
    out = []
    for r in catalog.o41_reflections():
        out.append(ringmat.mat_mul(ringmat.mat_mul(alpha_inv, r), alpha))
    return out


def _two_type_model(prime, types, name, swap, mid_extra, stab, form,
                    form_kind):
    """A two-type tree whose base vertex (types[0]) is the standard
    lattice and whose midpoint (types[1]) is apartment_vertex(prime, n, 1),
    each reaching the other by the identity seed.  `stab` generates the
    base stabilizer; the midpoint stabilizer is generated by the swap, the
    `mid_extra` generators and the base-stabilizer generators that fix the
    midpoint: their action columns on the base's moves, an orbit from the
    midpoint, map point 0 to 0."""
    n = len(form)
    ident = ringmat.identity(prime.ring, n)
    mid = apartment_vertex(prime, n, 1)
    base_type, mid_type = types
    bases = {base_type: identity_vertex(prime.ring, n), mid_type: mid}
    base_moves, base_action = _orbit_moves(prime, bases, mid_type, ident, stab)
    stab_mid = [swap] + mid_extra + [
        m for m, column in zip(stab, base_action) if column[0] == 0]
    mid_moves, mid_action = _orbit_moves(prime, bases, base_type, ident,
                                         stab_mid)
    return TreeModel(prime, bases, {base_type: base_moves, mid_type: mid_moves},
                     name, swap, stab_mid, mid_action, form, form_kind)


def oq_model():
    """The (5,3)-biregular tree for the orthogonal group of q at 2.

    Base vertices: x0 = [L_0] (standard lattice) and xhalf = [L_{1/2}]
    (first column scaled by 2).  The reflections generate the stabilizer
    of x0; the swap g1 and the midpoint shear, the only non-integral
    generators, join those fixing xhalf to generate its stabilizer.
    """
    prime = factor_rational_prime(make_ring("rational"), 2)[0]
    return _two_type_model(
        prime, ("x0", "xhalf"), "oq-tree", catalog.o41_swap(),
        [catalog.o41_midpoint_stab_shear()], _conjugated_reflections(),
        catalog.q_form(), "bilinear")


def _su_stab_gens(ring, prime):
    """Generators of the standard-lattice stabilizer in SU(h0, O_E):
    a torus unit, upper and lower unipotents (searched in a small box, of
    least valuation at the prime over 5).

    The uniformizer-scaled uppers u(pi*a, y) with v(y) = 1 also stabilize
    the midpoint lattice and act nontrivially on its residue radical, which
    is what gives the midpoint vertex its full valence.
    """
    z = ring.zeta()
    pi = z - ring.one
    zero, one = ring.zero, ring.one
    h0 = ringmat.mat(ring, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    gens = [((z, zero, zero), (zero, z ** 3, zero), (zero, zero, z))]
    # u(x, y) = [[1, -conj(x), y], [0, 1, x], [0, 0, 1]], y + conj(y) = -x conj(x)
    found = []
    traces = _box_traces(ring)
    for x in (one, z, pi, pi * z, pi * z ** 2):
        target = -(x * x.conj())
        y = _solve_trace(ring, traces, target, prime)
        if y is not None:
            upper = ((one, -x.conj(), y), (zero, one, x), (zero, zero, one))
            lower = ((one, zero, zero), (x, one, zero), (y, -x.conj(), one))
            found.extend([upper, lower])
    gens.extend(found)
    for g in gens:
        if not ringmat.preserves_form(g, h0, "hermitian"):
            raise AssertionError("candidate stabilizer generator is not unitary")
        if not ringmat.is_integral(g):
            raise AssertionError("candidate stabilizer generator is not integral")
    return gens, h0


@functools.cache
def _box_traces(ring):
    """The int coordinates of y + conj(y) for each integral y with
    coordinates in [-2, 2], mapped to the tuple of those y in
    ``itertools.product`` order: built once per ring, and read-only."""
    traces = {}
    for coords in itertools.product(range(-2, 3), repeat=ring.degree):
        trace = tuple(a + b for a, b in zip(coords, ring._conj_coords(coords)))
        traces.setdefault(trace, []).append(coords)
    return types.MappingProxyType({t: tuple(ys) for t, ys in traces.items()})


def _solve_trace(ring, traces, target, prime):
    """Small integral y with y + conj(y) = target, minimizing v_p(y): the
    first such y of the box, in ``_box_traces`` order, of least valuation."""
    if target.den != 1:
        return None
    best = None
    best_val = None
    for coords in traces.get(target.num, ()):
        y = ring(coords)
        v = prime.valuation(y)
        if best_val is None or v < best_val:
            best, best_val = y, v
    return best


def su_model():
    """The tree for the special unitary group of h0 at the ramified prime
    over 5; vertex types 'v0' (standard lattice) and 'mid' (psi vertex)."""
    ring, prime = catalog.pu21_ring_and_prime()
    stab, h0 = _su_stab_gens(ring, prime)
    return _two_type_model(prime, ("v0", "mid"), "su-tree",
                           catalog.pu21_swap(), [], stab, h0, "hermitian")


# ---------------------------------------------------------------------------
# exploration


@dataclass
class TreeGraph:
    model_name: str
    ring: object
    vertices: list          # canonical int matrices
    types: list
    edges: list             # index pairs (i, j), i < j

    def is_tree(self):
        if len(self.edges) != len(self.vertices) - 1:
            return False
        parent = list(range(len(self.vertices)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                return False
            parent[rj] = ri
        return True

    def to_json(self):
        verts = []
        for i, (v, t) in enumerate(zip(self.vertices, self.types)):
            verts.append({
                "id": i,
                "type": t,
                "matrix": vertex_strings(self.ring, v),
            })
        return {
            "model": self.model_name,
            "vertices": verts,
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self):
        import hashlib
        colors = {}
        palette = ["black", "red", "blue", "green"]
        lines = ["graph tree {", "  node [shape=circle];"]
        for i, (v, t) in enumerate(zip(self.vertices, self.types)):
            if t not in colors:
                colors[t] = palette[len(colors) % len(palette)]
            digest = hashlib.sha256(
                repr(vertex_strings(self.ring, v)).encode()).hexdigest()[:8]
            lines.append('  %d [label="%s" color=%s];' % (i, digest, colors[t]))
        for i, j in self.edges:
            lines.append("  %d -- %d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _back_moves(model):
    """type -> the index j, among the moves of its moves' target type, of
    the one move that leads back: vertex_j is canonicalize(T^-1 base[type])
    for the seed T, the type's first move.  Every move T_i of the type is
    s T with s fixing base[type] (``_orbit_moves``), so T_i^-1 base[type]
    is in the class of T^-1 base[type], and a vertex reached from frame g by
    any move i returns to g base by move j.  Raises AssertionError unless
    exactly one move of the target does."""
    back = {}
    for t, base in model.bases.items():
        seed = model.moves(t)[0]
        home = canonical_image(ringmat.mat_inverse(seed.transporter), base,
                               model.prime)
        js = [j for j, m in enumerate(model.moves(seed.target_type))
              if m.vertex == home]
        if len(js) != 1:
            raise AssertionError("%d moves of type %r lead back to the base "
                                 "of type %r" % (len(js), seed.target_type, t))
        back[t] = js[0]
    return back


def bfs_explore(model, radius, budget=EXPLORE_BUDGET_DEFAULT):
    """All vertices within the given radius of the base vertex, with their
    types; edges are deduplicated and the result is scheduling-independent
    (canonical vertex ordering within each BFS layer).

    Frames are int rows and moves int columns (``ringmat.product_rows``).
    Neighbour i of a vertex with frame g is canonicalize(g * vertex_i); a
    child's frame g * transporter_i is formed when the child is expanded,
    so never on the last layer, and the move back to the parent, whose
    edge is already recorded, is not tried.  Vertices key ``index`` and
    sort as themselves, int tuples, in row-major coordinate order."""
    prime = model.prime
    ring = prime.ring
    product = ringmat.product_rows
    base_type = model.base_type
    base = model.bases[base_type]
    back = _back_moves(model)
    # type -> (vertex columns, transporter columns) of each move
    columns = {t: [(list(zip(*mv.vertex)),
                    ringmat.numerator_columns(mv.transporter))
                   for mv in model.moves(t)] for t in model.bases}
    identity = identity_vertex(ring, len(base))
    vertices = [base]
    types = [base_type]
    index = {base: 0}
    edges = set()
    # (vertex index, type, (parent frame rows, transporter columns) or
    # None at the base, the index of the move back to the parent)
    layer = [(0, base_type, None, None)]
    for _ in range(radius):
        nxt = []
        for vi, t, via, skip in layer:
            frame = identity if via is None else product(ring, *via)
            nbrs = []
            for i, (cols, _) in enumerate(columns[t]):
                if i != skip:
                    # the columns of frame * vertex_i
                    w = canonicalize(product(ring, cols, frame), prime)
                    nbrs.append((w, i))
            nbrs.sort()
            for w, i in nbrs:
                wi = index.get(w)
                if wi is None:
                    target = model.moves(t)[i].target_type
                    wi = index[w] = len(vertices)
                    vertices.append(w)
                    types.append(target)
                    nxt.append((wi, target, (frame, columns[t][i][1]),
                                back[t]))
                    if len(vertices) > budget:
                        raise BudgetExceeded("tree exploration exceeded budget",
                                             estimate=len(vertices), budget=budget)
                edges.add((min(vi, wi), max(vi, wi)))
        layer = nxt
    return TreeGraph(model.name, ring, vertices, types, sorted(edges))


__all__ = [
    "canonicalize", "canonical_image", "apartment_vertex", "TreeModel",
    "Move", "pgl2_model", "oq_model", "su_model", "bfs_explore", "TreeGraph",
    "identity_vertex", "vertex_strings", "EXPLORE_BUDGET_DEFAULT",
]
