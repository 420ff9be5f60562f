"""Bruhat-Tits tree combinatorics via lattice classes.

Vertices are homothety classes of p-local lattices in K^n, represented by
canonical basis matrices: the column span over the localization at the
prime, scaled so the minimal elementary-divisor exponent is 0 and put into
Hermite form over the local ring with canonical residue representatives.
All arithmetic is global and exact (entries in K with denominators only at
the prime); two vertices are equal iff their canonical matrices are.  The
prime (a ``rings.PrimeIdeal``) is all the local context there is: it
caches the uniformizer powers pi^k, negative k included, and the residue
rings O/p^k, so canonicalization divides by pi^v as a product with pi^-v
and inverts only each pivot's unit.

Tree models package a base vertex per type together with "moves": global
group elements carrying the base vertex to each of its neighbors,
discovered from stabilizer orbits (never hardcoded).  BFS exploration
reaches each vertex's neighbours through a frame (a transporter from the
base) and returns the vertices, types and edges.  The tower builds its own
frames from the model's swap moves and the swap (``tower._swap_moves``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from . import catalog, ringmat
from .rings import make_ring, factor_rational_prime


def canonicalize(basis_matrix, prime):
    """Canonical representative of the homothety class of the column span.

    Hermite form over the localization: upper triangular, diagonal entries
    exact uniformizer powers, entries to the right of each pivot reduced to
    canonical residue representatives, minimal diagonal exponent 0.
    Idempotent; raises on singular input.
    """
    n = len(basis_matrix)
    ring = prime.ring
    # work on rows of the transpose (row span = column span of the input)
    rows = [[basis_matrix[i][j] for i in range(n)] for j in range(n)]
    rows = [[ring(x) for x in row] for row in rows]
    at_least = prime.valuation_at_least
    exps = []
    # row col is zero left of column col once the earlier columns are
    # cleared, so the row operations start at column col
    for col in range(n):
        # the first row of least valuation: past the first nonzero entry,
        # one membership test against the least valuation so far
        piv = piv_val = None
        for r in range(col, n):
            x = rows[r][col]
            if not x.is_zero() and (piv is None or not at_least(x, piv_val)):
                piv, piv_val = r, prime.valuation(x)
        if piv is None:
            raise InputError("basis matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        # normalize the pivot to an exact uniformizer power: the one
        # inverse per pivot; every later division by pi^v multiplies by
        # the cached pi^-v
        piv_inv = prime.uniformizer_power(-piv_val)
        unit_inv = (rows[col][col] * piv_inv).inverse()
        rows[col][col:] = [x * unit_inv for x in rows[col][col:]]
        exps.append(piv_val)
        for r in range(col + 1, n):
            x = rows[r][col]
            if not x.is_zero():
                f = x * piv_inv
                rows[r][col:] = [a - f * b
                                 for a, b in zip(rows[r][col:], rows[col][col:])]
    # scale so the lattice is primitive: content = min valuation of any
    # entry.  The pivots are the exact powers pi^exps, and each entry above
    # them is tested against the least valuation so far.
    content = min(exps)
    for r in range(n):
        for x in rows[r][r + 1:]:
            if not x.is_zero() and not at_least(x, content):
                content = prime.valuation(x)
    if content:
        scale = prime.uniformizer_power(-content)
        rows = [[x * scale for x in row] for row in rows]
        exps = [e - content for e in exps]
    # reduce entries above each pivot pi^k to their canonical residue
    # representatives mod p^k (to 0 when k = 0); ascending column order so
    # later columns absorb the fixups
    for col in range(1, n):
        k = exps[col]
        piv_inv = prime.uniformizer_power(-k)
        R = prime.residue(k) if k else None
        for r in range(col):
            x = rows[r][col]
            diff = (x - R.lift(R.reduce(x)) if R else x) * piv_inv
            if not diff.is_zero():
                rows[r][col:] = [a - diff * b
                                 for a, b in zip(rows[r][col:], rows[col][col:])]
    # hand back in column convention
    return tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))


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
    return canonicalize(tuple(tuple(r) for r in rows), prime)


# ---------------------------------------------------------------------------
# tree models


@dataclass(frozen=True)
class Move:
    target_type: str
    transporter: tuple  # global matrix


class TreeModel:
    """Base vertices by type plus neighbor moves discovered from orbits,
    the swap that the towers move by, the generators of the midpoint
    stabilizer (two-type trees) and the form the group preserves, with
    its ringmat.preserves_form kind (None for pgl2)."""

    def __init__(self, prime, bases, moves, name, swap, stab_mid=(),
                 form=None, form_kind=None):
        self.prime = prime
        self.bases = bases            # type -> canonical vertex
        self._moves = moves           # type -> list of Move
        self.name = name
        self.base_type = next(iter(bases))
        self.swap = swap
        self.stab_mid = stab_mid
        self.form = form
        self.form_kind = form_kind

    def moves(self, vtype):
        return self._moves[vtype]

    def vertex(self, g, vtype):
        return canonicalize(ringmat.mat_mul(g, self.bases[vtype]), self.prime)

    def neighbors(self, vtype, frame):
        """Neighbor vertices of frame*base[vtype], with their frames."""
        out = []
        for mv in self._moves[vtype]:
            g = ringmat.mat_mul(frame, mv.transporter)
            out.append((self.vertex(g, mv.target_type), mv.target_type, g))
        return out

    def valences(self):
        return {t: len(ms) for t, ms in self._moves.items()}


def _orbit_moves(prime, base_vertices, seed_moves, stab_gens, budget=10_000):
    """Close the seed neighbor set under stabilizer generators, keeping a
    witness transporter for each new neighbor vertex."""
    moves = []
    seen = {}
    queue = []
    for ttype, w in seed_moves:
        v = canonicalize(ringmat.mat_mul(w, base_vertices[ttype]), prime)
        if v not in seen:
            seen[v] = Move(ttype, w)
            queue.append((v, ttype, w))
            moves.append(Move(ttype, w))
    head = 0
    while head < len(queue):
        v, ttype, w = queue[head]
        head += 1
        for s in stab_gens:
            w2 = ringmat.mat_mul(s, w)
            v2 = canonicalize(ringmat.mat_mul(w2, base_vertices[ttype]), prime)
            if v2 not in seen:
                mv = Move(ttype, w2)
                seen[v2] = mv
                moves.append(mv)
                queue.append((v2, ttype, w2))
                if len(moves) > budget:
                    raise BudgetExceeded("neighbor orbit exceeded budget",
                                         estimate=len(moves), budget=budget)
    return moves


def pgl2_model(ring=None, prime=None):
    """The (N(p)+1)-regular tree for PGL2 at a prime; defaults to the
    split prime over 2 in O_7.  The swap seed is [[0, x], [1, 0]] with
    x of valuation 1: the rational prime p unless it ramifies, and then the
    prime's generator."""
    if ring is None:
        ring, prime = catalog.magic_ring_and_prime()
    bases = {"v": ringmat.identity(ring, 2)}
    x = ring(prime.p) if prime.e == 1 else prime.pi
    swap = ((ring.zero, x), (ring.one, ring.zero))
    gens = catalog.sl2_gen_matrices(ring)
    stab = [gens["a"], gens["b"], gens["u"]]
    moves = _orbit_moves(prime, bases, [("v", swap)], stab)
    expect = prime.norm() + 1
    if len(moves) != expect:
        raise AssertionError("pgl2 model found %d neighbors, expected %d"
                             % (len(moves), expect))
    return TreeModel(prime, bases, {"v": moves}, "pgl2(%d)" % prime.norm(), swap)


def _conjugated_reflections():
    """The reflection generators moved into the Q coordinates."""
    alpha = catalog.coordinate_change_alpha()
    alpha_inv = ringmat.mat_inverse(alpha)
    out = []
    for r in catalog.o41_reflections():
        out.append(ringmat.mat_mul(ringmat.mat_mul(alpha_inv, r), alpha))
    return out


def oq_model():
    """The (5,3)-biregular tree for the orthogonal group of q at 2.

    Base vertices: x0 = [L_0] (standard lattice) and xhalf = [L_{1/2}]
    (first column scaled by 2).  Neighbor moves are discovered as stabilizer
    orbits of the seed edges, with the swap g1 and the midpoint shear as the
    only non-integral seeds.
    """
    ring = make_ring("rational")
    prime = factor_rational_prime(ring, 2)[0]
    x0 = ringmat.identity(ring, 5)
    xhalf = apartment_vertex(prime, 5, 1)
    bases = {"x0": x0, "xhalf": xhalf}
    refl = _conjugated_reflections()
    g1 = catalog.o41_swap()
    shear = catalog.o41_midpoint_stab_shear()
    # stabilizer generator sets
    stab_x0 = [m for m in refl]
    stab_xhalf = [g1, shear] + [
        m for m in refl
        if canonicalize(ringmat.mat_mul(m, xhalf), prime) == xhalf
    ]
    moves_x0 = _orbit_moves(prime, bases, [("xhalf", ringmat.identity(ring, 5))],
                            stab_x0)
    moves_xhalf = _orbit_moves(prime, bases, [("x0", ringmat.identity(ring, 5))],
                               stab_xhalf)
    return TreeModel(prime, bases, {"x0": moves_x0, "xhalf": moves_xhalf},
                     "oq-tree", g1, stab_xhalf, catalog.q_form(), "bilinear")


def _su_stab_gens(ring):
    """Generators of the standard-lattice stabilizer in SU(h0, O_E):
    a torus unit, upper and lower unipotents (searched in a small box).

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
    prime = factor_rational_prime(ring, 5)[0]
    traces = _box_traces(ring)
    for x in (one, z, z - one, pi, pi * z, pi * z ** 2):
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


def _box_traces(ring):
    """The int coordinates of y + conj(y) for each integral y with
    coordinates in [-2, 2], mapped to those y in ``itertools.product``
    order."""
    traces = {}
    for coords in itertools.product(range(-2, 3), repeat=ring.degree):
        trace = tuple(a + b for a, b in zip(coords, ring._conj_coords(coords)))
        traces.setdefault(trace, []).append(coords)
    return traces


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
    v0 = ringmat.identity(ring, 3)
    mid = apartment_vertex(prime, 3, 1)
    bases = {"v0": v0, "mid": mid}
    stab, h0 = _su_stab_gens(ring)
    g0 = catalog.pu21_swap()
    stab_mid = [g0] + [
        m for m in stab if canonicalize(ringmat.mat_mul(m, mid), prime) == mid
    ]
    ident = ringmat.identity(ring, 3)
    moves_v0 = _orbit_moves(prime, bases, [("mid", ident)], stab)
    moves_mid = _orbit_moves(prime, bases, [("v0", ident)], stab_mid)
    return TreeModel(prime, bases, {"v0": moves_v0, "mid": moves_mid},
                     "su-tree", g0, stab_mid, h0, "hermitian")


# ---------------------------------------------------------------------------
# exploration


@dataclass
class TreeGraph:
    model_name: str
    vertices: list          # canonical matrices
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
                "matrix": [[str(x) for x in row] for row in v],
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
                repr([[str(x) for x in row] for row in v]).encode()
            ).hexdigest()[:8]
            lines.append('  %d [label="%s" color=%s];' % (i, digest, colors[t]))
        for i, j in self.edges:
            lines.append("  %d -- %d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


def bfs_explore(model, radius, budget=100_000):
    """All vertices within the given radius of the base vertex, with their
    types; edges are deduplicated and the result is scheduling-independent
    (canonical vertex ordering within each BFS layer)."""
    base_type = model.base_type
    base = model.bases[base_type]
    ident = ringmat.identity(model.prime.ring, len(base))
    vertices = [base]
    types = [base_type]
    index = {base: 0}
    edges = set()
    layer = [(base, base_type, ident, 0)]
    for _ in range(radius):
        nxt = []
        for v, t, frame, vi in layer:
            nbrs = model.neighbors(t, frame)
            nbrs.sort(key=lambda item: _vertex_key(item[0]))
            for (w, wt, g) in nbrs:
                if w not in index:
                    index[w] = len(vertices)
                    vertices.append(w)
                    types.append(wt)
                    nxt.append((w, wt, g, index[w]))
                    if len(vertices) > budget:
                        raise BudgetExceeded("tree exploration exceeded budget",
                                             estimate=len(vertices), budget=budget)
                e = (min(vi, index[w]), max(vi, index[w]))
                edges.add(e)
        layer = nxt
    return TreeGraph(model.name, vertices, types, sorted(edges))


def _vertex_key(v):
    """Each row's coordinates as (numerator, denominator) pairs in lowest
    terms: a coordinate a/den with g = gcd(a, den) gives (a // g, den // g),
    the pair of Fraction(a, den)."""
    return tuple(tuple((a // g, x.den // g)
                       for x in row for a in x.num for g in (math.gcd(a, x.den),))
                 for row in v)


__all__ = [
    "canonicalize", "apartment_vertex", "TreeModel", "Move", "pgl2_model",
    "oq_model", "su_model", "bfs_explore", "TreeGraph",
]
