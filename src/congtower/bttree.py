"""Bruhat-Tits tree combinatorics via lattice classes.

Vertices are homothety classes of p-local lattices in K^n, represented by
canonical basis matrices: the column span over the localization at the
prime, scaled so the minimal elementary-divisor exponent is 0 and put into
Hermite form over the local ring with canonical residue representatives.
All arithmetic is global and exact (entries in K with denominators only at
the prime); two vertices are equal iff their canonical matrices are.

Tree models package a base vertex per type together with "moves": global
group elements carrying the base vertex to each of its neighbors,
discovered from stabilizer orbits (never hardcoded).  BFS exploration
carries a frame (a transporter from the base) for every vertex, which is
what the tower construction consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from . import catalog, congsub, ringmat
from .rings import make_ring, factor_rational_prime, residue_ring


class LocalContext:
    """Valuation/reduction context at a prime of a number ring."""

    def __init__(self, ring, prime):
        self.ring = ring
        self.prime = prime
        if len(prime.gens) != 1:
            raise InputError("tree contexts need a principal prime")
        self.pi = prime.gens[0]
        self._residue = {}

    def valuation(self, x):
        return self.prime.valuation(x)

    def uniformizer_power(self, k):
        return self.pi ** k

    def residue(self, k):
        if k not in self._residue:
            self._residue[k] = residue_ring(self.prime, k)
        return self._residue[k]

    def canonical_mod(self, x, k):
        """Canonical representative of x mod p^k (x must be a local integer)."""
        if k <= 0:
            return self.ring.zero
        R = self.residue(k)
        return R.lift(R.reduce(x))


def canonicalize(basis_matrix, ctx):
    """Canonical representative of the homothety class of the column span.

    Hermite form over the localization: upper triangular, diagonal entries
    exact uniformizer powers, entries to the right of each pivot reduced to
    canonical residue representatives, minimal diagonal exponent 0.
    Idempotent; raises on singular input.
    """
    n = len(basis_matrix)
    ring = ctx.ring
    # work on rows of the transpose (row span = column span of the input)
    rows = [[basis_matrix[i][j] for i in range(n)] for j in range(n)]
    rows = [[ring(x) for x in row] for row in rows]
    exps = []
    for col in range(n):
        piv = None
        piv_val = None
        for r in range(col, n):
            v = ctx.valuation(rows[r][col])
            if v is not math.inf and (piv_val is None or v < piv_val):
                piv, piv_val = r, v
        if piv is None:
            raise InputError("basis matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        # normalize the pivot to an exact uniformizer power
        unit = rows[col][col] / ctx.uniformizer_power(piv_val)
        unit_inv = unit.inverse()
        rows[col] = [x * unit_inv for x in rows[col]]
        exps.append(piv_val)
        for r in range(col + 1, n):
            x = rows[r][col]
            if not x.is_zero():
                f = x / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    # scale so the lattice is primitive: content = min valuation of any entry
    content = min(
        (ctx.valuation(x) for row in rows for x in row if not x.is_zero()),
    )
    if content:
        scale = ctx.uniformizer_power(-content)
        rows = [[x * scale for x in row] for row in rows]
        exps = [e - content for e in exps]
    # reduce entries above each pivot to canonical residue representatives;
    # ascending column order so later columns absorb the fixups
    for col in range(1, n):
        piv_pow = ctx.uniformizer_power(exps[col])
        for r in range(col):
            x = rows[r][col]
            rep = ctx.canonical_mod(x, exps[col])
            diff = (x - rep) / piv_pow
            if not diff.is_zero():
                rows[r] = [a - diff * b for a, b in zip(rows[r], rows[col])]
    # hand back in column convention
    return tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))


def transition_exponents(v, w, ctx):
    """Elementary-divisor exponents (sorted) of the transition matrix
    between two lattice representatives."""
    t = ringmat.mat_mul(ringmat.mat_inverse(v), w)
    n = len(t)
    rows = [list(row) for row in t]
    exps = []
    for s in range(n):
        piv = None
        piv_val = None
        for r in range(s, n):
            for c in range(s, n):
                val = ctx.valuation(rows[r][c])
                if val is not math.inf and (piv_val is None or val < piv_val):
                    piv, piv_val = (r, c), val
        if piv is None:
            raise InputError("singular transition")
        r0, c0 = piv
        rows[s], rows[r0] = rows[r0], rows[s]
        for row in rows:
            row[s], row[c0] = row[c0], row[s]
        for r in range(s + 1, n):
            x = rows[r][s]
            if not x.is_zero():
                f = x / rows[s][s]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[s])]
        for c in range(s + 1, n):
            x = rows[s][c]
            if not x.is_zero():
                f = x / rows[s][s]
                for row in rows:
                    row[c] = row[c] - f * row[s]
        exps.append(piv_val)
    return sorted(exps)


def gl_adjacent(v, w, ctx):
    """Ambient building adjacency: after homothety normalization the
    transition exponents are all in {0,1} and not all equal."""
    if len(v) != len(w):
        raise InputError("dimension mismatch")
    exps = transition_exponents(v, w, ctx)
    lo = exps[0]
    exps = [e - lo for e in exps]
    return set(exps) <= {0, 1} and len(set(exps)) == 2


def pgl2_neighbors(v, ctx):
    """The p+1 neighbors of a vertex of the PGL2 tree (index-p sublattices)."""
    if len(v) != 2:
        raise InputError("pgl2 neighbors need 2x2 vertices")
    ring = ctx.ring
    p = ctx.prime.norm()
    pi = ctx.pi
    reps = [ctx.canonical_mod(ring(k), 1) for k in range(p)]
    # canonical residue reps may repeat as ring elements only if p is wrong
    mats = [((pi, r), (ring.zero, ring.one)) for r in reps]
    mats.append(((ring.one, ring.zero), (ring.zero, pi)))
    out = []
    seen = set()
    for m in mats:
        w = canonicalize(ringmat.mat_mul(v, m), ctx)
        if w not in seen:
            seen.add(w)
            out.append(w)
    if len(out) != p + 1:
        raise AssertionError("expected %d distinct neighbors, got %d"
                             % (p + 1, len(out)))
    return out


def standard_lattice(ring, n):
    return ringmat.identity(ring, n)


def apartment_vertex(ctx, n, r_twice):
    """Apartment vertex x_{r} for r in (1/2)Z, encoded as 2r.

    Integer r: [pi^r e_1, e_2, ..., pi^-r e_n];  half-integers interleave:
    x_{r+1/2} = [pi^(r+1) e_1, e_2, ..., pi^-r e_n].
    """
    ring = ctx.ring
    if r_twice % 2 == 0:
        r = r_twice // 2
        a, b = r, -r
    else:
        r = (r_twice - 1) // 2
        a, b = r + 1, -r
    rows = [[ring.zero] * n for _ in range(n)]
    rows[0][0] = ctx.uniformizer_power(a)
    for i in range(1, n - 1):
        rows[i][i] = ring.one
    rows[n - 1][n - 1] = ctx.uniformizer_power(b)
    return canonicalize(tuple(tuple(r) for r in rows), ctx)


def su_tree_vertex(r_twice):
    """Apartment dictionary for the unitary tree over Z[zeta5]: the vertex
    of the PGL3 building associated with the additive-norm apartment point
    r (encoded as 2r, so psi between phi_0 and phi_1 is r_twice=1)."""
    ring, prime = catalog.pu21_ring_and_prime()
    ctx = LocalContext(ring, prime)
    return apartment_vertex(ctx, 3, r_twice)


# ---------------------------------------------------------------------------
# tree models


@dataclass(frozen=True)
class Move:
    target_type: str
    transporter: tuple  # global matrix


class TreeModel:
    """Base vertices by type plus neighbor moves discovered from orbits."""

    def __init__(self, ctx, bases, moves, name):
        self.ctx = ctx
        self.bases = bases            # type -> canonical vertex
        self._moves = moves           # type -> list of Move
        self.name = name
        self.base_type = next(iter(bases))

    def moves(self, vtype):
        return self._moves[vtype]

    def vertex(self, g, vtype):
        return canonicalize(ringmat.mat_mul(g, self.bases[vtype]), self.ctx)

    def neighbors(self, vtype, frame):
        """Neighbor vertices of frame*base[vtype], with their frames."""
        out = []
        for mv in self._moves[vtype]:
            g = ringmat.mat_mul(frame, mv.transporter)
            out.append((self.vertex(g, mv.target_type), mv.target_type, g))
        return out

    def valences(self):
        return {t: len(ms) for t, ms in self._moves.items()}


def _orbit_moves(ctx, base_vertices, seed_moves, stab_gens, budget=10_000):
    """Close the seed neighbor set under stabilizer generators, keeping a
    witness transporter for each new neighbor vertex."""
    moves = []
    seen = {}
    queue = []
    for ttype, w in seed_moves:
        v = canonicalize(ringmat.mat_mul(w, base_vertices[ttype]), ctx)
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
            v2 = canonicalize(ringmat.mat_mul(w2, base_vertices[ttype]), ctx)
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
    """The (N(p)+1)-regular tree for PGL2 at a principal prime; defaults to
    the split prime over 2 in O_7.  The swap seed is [[0, x], [1, 0]] with
    x of valuation 1: the rational prime p unless it ramifies, and then the
    prime's generator."""
    if ring is None:
        ring, prime = catalog.magic_ring_and_prime()
    ctx = LocalContext(ring, prime)
    base = standard_lattice(ring, 2)
    bases = {"v": base}
    x = ring(prime.p) if prime.e == 1 else ctx.pi
    swap = ((ring.zero, x), (ring.one, ring.zero))
    gens = catalog.sl2_gen_matrices(ring)
    stab = [gens["a"], gens["b"], gens["u"]]
    moves = _orbit_moves(ctx, bases, [("v", swap)], stab)
    expect = prime.norm() + 1
    if len(moves) != expect:
        raise AssertionError("pgl2 model found %d neighbors, expected %d"
                             % (len(moves), expect))
    model = TreeModel(ctx, bases, {"v": moves}, "pgl2(%d)" % prime.norm())
    model.swap = swap
    return model


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
    ctx = LocalContext(ring, prime)
    x0 = standard_lattice(ring, 5)
    half_rows = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(5)]
                 for i in range(5)]
    xhalf = canonicalize(ringmat.mat(ring, half_rows), ctx)
    bases = {"x0": x0, "xhalf": xhalf}
    refl = _conjugated_reflections()
    g1 = catalog.o41_swap()
    shear = catalog.o41_midpoint_stab_shear()
    # stabilizer generator sets
    stab_x0 = [m for m in refl]
    stab_xhalf = [g1, shear] + [
        m for m in refl
        if canonicalize(ringmat.mat_mul(m, xhalf), ctx) == xhalf
    ]
    moves_x0 = _orbit_moves(ctx, bases, [("xhalf", ringmat.identity(ring, 5))],
                            stab_x0)
    moves_xhalf = _orbit_moves(ctx, bases, [("x0", ringmat.identity(ring, 5))],
                               stab_xhalf)
    model = TreeModel(ctx, bases,
                      {"x0": moves_x0, "xhalf": moves_xhalf}, "oq-tree")
    model.swap = g1
    model.stab_mid = stab_xhalf
    model.form = catalog.q_form()
    return model


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
    for x in (one, z, z - one, pi, pi * z, pi * z ** 2):
        target = -(x * x.conj())
        y = _solve_trace(ring, target, prime)
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


def _solve_trace(ring, target, prime):
    """Small integral y with y + conj(y) = target, minimizing v_p(y)."""
    import itertools
    best = None
    best_val = None
    for coords in itertools.product(range(-2, 3), repeat=ring.degree):
        y = ring(coords)
        if y + y.conj() == target:
            v = prime.valuation(y)
            if best_val is None or v < best_val:
                best, best_val = y, v
    return best


def su_model():
    """The tree for the special unitary group of h0 at the ramified prime
    over 5; vertex types 'v0' (standard lattice) and 'mid' (psi vertex)."""
    ring, prime = catalog.pu21_ring_and_prime()
    ctx = LocalContext(ring, prime)
    pi = ctx.pi
    v0 = standard_lattice(ring, 3)
    mid = canonicalize(ringmat.mat(
        ring, [[pi, ring.zero, ring.zero],
               [ring.zero, ring.one, ring.zero],
               [ring.zero, ring.zero, ring.one]]), ctx)
    bases = {"v0": v0, "mid": mid}
    stab, h0 = _su_stab_gens(ring)
    g0 = catalog.pu21_swap()
    stab_mid = [g0] + [
        m for m in stab if canonicalize(ringmat.mat_mul(m, mid), ctx) == mid
    ]
    ident = ringmat.identity(ring, 3)
    moves_v0 = _orbit_moves(ctx, bases, [("mid", ident)], stab)
    moves_mid = _orbit_moves(ctx, bases, [("v0", ident)], stab_mid)
    model = TreeModel(ctx, bases, {"v0": moves_v0, "mid": moves_mid}, "su-tree")
    model.swap = g0
    model.stab_mid = stab_mid
    model.form = h0
    return model


# ---------------------------------------------------------------------------
# residue-level orbit verifications for the orthogonal tree


def oq_mod2_vector_orbit():
    """Orbit of e5 under the mod-2 image of the integral orthogonal group
    of q (generated by the reduced reflection generators).

    Neighbors of x0 correspond to the orbit of the hyperplane e5-perp,
    equivalently of e5 itself; returns (orbit, group_order)."""
    ring = make_ring("rational")
    prime = factor_rational_prime(ring, 2)[0]
    R = residue_ring(prime, 1)
    gens = [congsub.reduce_matrix(R, m) for m in _conjugated_reflections()]
    group = congsub.group_closure(R, gens)
    e5 = (R.zero,) * 4 + (R.one,)
    orb = congsub.orbit(R, gens, e5, action="vector")
    return orb, len(group)


def oq_halfvertex_line_orbit():
    """Orbit of the line spanned by f1 in L_{1/2}/2L_{1/2} under the mod-2
    image of the stabilizer of L_{1/2} (computed in the f-basis)."""
    ring = make_ring("rational")
    prime = factor_rational_prime(ring, 2)[0]
    R = residue_ring(prime, 1)
    f = ringmat.mat(ring, [[2 if i == j == 0 else (1 if i == j else 0)
                            for j in range(5)] for i in range(5)])
    f_inv = ringmat.mat_inverse(f)
    ctx = LocalContext(ring, prime)
    xhalf = canonicalize(f, ctx)
    stab = [catalog.o41_swap(), catalog.o41_midpoint_stab_shear()] + [
        m for m in _conjugated_reflections()
        if canonicalize(ringmat.mat_mul(m, f), ctx) == xhalf
    ]
    gens = []
    for m in stab:
        conj = ringmat.mat_mul(ringmat.mat_mul(f_inv, m), f)
        gens.append(congsub.reduce_matrix(R, conj))
    f1 = (R.one,) + (R.zero,) * 4
    orb = congsub.orbit(R, gens, f1, action="line")
    return orb


# ---------------------------------------------------------------------------
# exploration


@dataclass
class TreeGraph:
    model_name: str
    vertices: list          # canonical matrices
    types: list
    frames: list            # transporter from the base vertex
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
    frames; edges are deduplicated and the result is scheduling-independent
    (canonical vertex ordering within each BFS layer)."""
    base_type = model.base_type
    base = model.bases[base_type]
    ident = ringmat.identity(model.ctx.ring, len(base))
    vertices = [base]
    types = [base_type]
    frames = [ident]
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
                    frames.append(g)
                    nxt.append((w, wt, g, index[w]))
                    if len(vertices) > budget:
                        raise BudgetExceeded("tree exploration exceeded budget",
                                             estimate=len(vertices), budget=budget)
                e = (min(vi, index[w]), max(vi, index[w]))
                edges.add(e)
        layer = nxt
    return TreeGraph(model.name, vertices, types, frames, sorted(edges))


def _vertex_key(v):
    return tuple(tuple((c.numerator, c.denominator) for x in row for c in x.coords)
                 for row in v)


__all__ = [
    "LocalContext", "canonicalize", "transition_exponents", "gl_adjacent",
    "pgl2_neighbors", "apartment_vertex", "su_tree_vertex",
    "standard_lattice", "TreeModel", "Move", "pgl2_model", "oq_model",
    "su_model", "bfs_explore", "TreeGraph",
]
