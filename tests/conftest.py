import itertools
import random

import pytest

from congtower import bttree, catalog, congsub, homology, ringmat, rings
from congtower.errors import InputError
from congtower.rings import ResidueRing, make_ring, factor_rational_prime


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240809)


@pytest.fixture(scope="session")
def all_rings():
    return [make_ring(spec) for spec in ("rational", 1, 2, 3, 7, 11, "cyclotomic-5")]


@pytest.fixture(scope="session")
def gaussian_prime2():
    return factor_rational_prime(make_ring(1), 2)[0]


@pytest.fixture(scope="session")
def sl2_lift():
    """d -> the SL2 realization of O_d: the central lift of the bundled
    PSL2 realization."""
    def lift(d):
        return homology.central_lift(homology.psl2_realization(d))
    return lift


@pytest.fixture(scope="session")
def zeta5_prime():
    return factor_rational_prime(make_ring("cyclotomic-5"), 5)[0]


def _local_residue(R, x):
    """The representative mod p^k of a p-locally integral x = num/den of
    the fraction field.  With p^v the power of the rational prime p in den
    and p = pi^e u, u a unit at the prime, x = (num pi^-ev) / (den pi^-ev).
    The bottom is the integral unit u^v (den / p^v), and the top is
    integral exactly when x is locally integral (InputError from
    ``ResidueRing.reduce`` otherwise), so the residue is the top times
    the bottom's inverse mod p^k, ``PrimeIdeal.unit_inverse``."""
    prime = R.prime
    x = R.ring(x)
    scale = prime.uniformizer_power(
        -prime.e * rings._int_valuation(x.den, prime.p))
    top = R.reduce(rings.RingElt(R.ring, x.num) * scale)
    bottom = (scale * x.den).int_coords()
    return R.mul(top, prime.unit_inverse(bottom, R.k))


@pytest.fixture(scope="session")
def local_residue():
    """(R, x) -> the residue mod p^k of a p-locally integral x of the
    fraction field, which ``ResidueRing.reduce`` refuses."""
    return _local_residue


def _leibniz_det(m):
    """The determinant of a square matrix of RingElts as the sum over
    permutations of sign * product: independent of any cofactor
    expansion."""
    ring = m[0][0].ring
    n = len(m)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = ring.one
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.fixture(scope="session")
def leibniz_det():
    """The Leibniz sum of a matrix of RingElts, the oracle for every
    determinant."""
    return _leibniz_det


def _row_expansions(m, dot, neg, zero, one):
    """The Laplace expansion of det(m) along each row i: row i dotted with
    ``rings.cofactors`` of m with row i moved to the top, times (-1)^i."""
    out = []
    for i, row in enumerate(m):
        moved = [row] + list(m[:i]) + list(m[i + 1:])
        value = dot(row, rings.cofactors(moved, dot, neg, zero, one))
        out.append(neg(value) if i % 2 else value)
    return out


@pytest.fixture(scope="session")
def row_expansions():
    """(m, dot, neg, zero, one) -> det(m) expanded along each row, by
    ``rings.cofactors`` in the ring the operations give."""
    return _row_expansions


def _lattice_contains(hnf_rows, vector):
    """Membership of an integer vector in the row lattice of a square,
    full-rank upper-triangular HNF basis, refused at the first pivot that
    does not divide: the test ``rings.reduce_coords`` replaced."""
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


@pytest.fixture(scope="session")
def lattice_contains():
    """(hnf_rows, vector) -> lattice membership, the oracle for a zero
    reduction."""
    return _lattice_contains


# The global Hermite form on RingElt entries that ``bttree.canonicalize``
# computed before it ran on integer numerators, kept as the oracle: every
# pivot unit inverted in the fraction field, every residue of a p-integral
# entry taken mod p^k by ``_local_residue``.
def _global_canonicalize(basis_matrix, prime):
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
    exps = []
    # row col is zero left of column col once the earlier columns are
    # cleared, so the row operations start at column col
    for col in range(n):
        # the first row of least valuation
        piv = piv_val = None
        for r in range(col, n):
            x = rows[r][col]
            if not x.is_zero() and (piv is None or prime.valuation(x) < piv_val):
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
            if not x.is_zero() and prime.valuation(x) < content:
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
        R = ResidueRing(prime, k) if k else None
        for r in range(col):
            x = rows[r][col]
            diff = (x - R.ring(_local_residue(R, x)) if R else x) * piv_inv
            if not diff.is_zero():
                rows[r][col:] = [a - diff * b
                                 for a, b in zip(rows[r][col:], rows[col][col:])]
    # hand back in column convention
    return tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))


@pytest.fixture(scope="session")
def oracle_canonicalize():
    """(basis matrix, prime) -> its canonical form by the global Hermite
    form, the oracle for ``bttree.canonicalize``."""
    return _global_canonicalize


def _lift(ring, v):
    """The matrix of ring elements of a vertex, an int coordinate matrix:
    every entry over denominator 1."""
    return ringmat.from_numerators(ring, v, 1)


@pytest.fixture(scope="session")
def lift():
    """(ring, vertex) -> the vertex as a matrix of ring elements, for the
    exact products and the oracles that work on ring elements."""
    return _lift


def _row_major(v):
    """The int coordinates of a vertex's entries, row by row: the order
    ``bttree.bfs_explore`` lists each vertex's neighbours in."""
    return [c for row in v for x in row for c in x]


@pytest.fixture(scope="session")
def row_major():
    """vertex -> its int coordinates, row by row, flattened."""
    return _row_major


def _frame_neighbors(model, vtype, frame):
    """(vertex, type, frame) for each neighbour of frame * base[vtype]:
    the child frame frame * T for each move T and its vertex
    canonicalize(frame * T * base[type]), every product formed exactly."""
    ring = model.prime.ring
    out = []
    for mv in model.moves(vtype):
        g = ringmat.mat_mul(frame, mv.transporter)
        out.append((bttree.canonicalize(ringmat.numerator_columns(
            ringmat.mat_mul(g, _lift(ring, model.bases[mv.target_type]))),
            model.prime), mv.target_type, g))
    return out


@pytest.fixture(scope="session")
def frame_neighbors():
    """(model, type, frame) -> the neighbours of frame * base[type] with
    their frames, each reached through its full frame: the oracle for
    ``bttree.bfs_explore``, which multiplies by a move's canonical vertex
    and skips the move back to the parent."""
    return _frame_neighbors


@pytest.fixture(scope="session")
def framed_explore():
    """(model, radius) -> (vertices, types, edges, frames) by breadth-first
    search through full frames: each layer in order, each vertex's
    neighbours sorted by their row-major coordinates, every move tried,
    the back move included, and each frame its parent's times a move."""
    def explore(model, radius):
        base = model.bases[model.base_type]
        vertices, types = [base], [model.base_type]
        frames = [ringmat.identity(model.prime.ring, len(base))]
        index = {base: 0}
        edges = set()
        layer = [0]
        for _ in range(radius):
            nxt = []
            for vi in layer:
                nbrs = _frame_neighbors(model, types[vi], frames[vi])
                nbrs.sort(key=lambda item: _row_major(item[0]))
                for w, wt, g in nbrs:
                    if w not in index:
                        index[w] = len(vertices)
                        vertices.append(w)
                        types.append(wt)
                        frames.append(g)
                        nxt.append(index[w])
                    edges.add((min(vi, index[w]), max(vi, index[w])))
            layer = nxt
        return vertices, types, sorted(edges), frames
    return explore


# The breadth-first walk that ``bttree.bfs_explore`` made before its
# frames and products ran on int numerators, kept as the oracle: every
# frame and every product g * vertex_i is a matrix of ring elements formed
# by ``ringmat.mat_mul``, and the move back to the parent is skipped.
def _ringelt_explore(model, radius):
    """The ``bttree.TreeGraph`` within `radius` of the base vertex."""
    prime = model.prime
    ring = prime.ring

    def canon(m):
        return bttree.canonicalize(ringmat.numerator_columns(m), prime)

    back = {}
    for t, base in model.bases.items():
        seed = model.moves(t)[0]
        home = canon(ringmat.mat_mul(ringmat.mat_inverse(seed.transporter),
                                     _lift(ring, base)))
        js = [j for j, m in enumerate(model.moves(seed.target_type))
              if m.vertex == home]
        assert len(js) == 1
        back[t] = js[0]
    base_type = model.base_type
    base = model.bases[base_type]
    vertices, types = [base], [base_type]
    index = {base: 0}
    edges = set()
    layer = [(0, base_type, None, None)]
    for _ in range(radius):
        nxt = []
        for vi, t, via, skip in layer:
            frame = (ringmat.identity(prime.ring, len(base)) if via is None
                     else ringmat.mat_mul(via[0], via[1].transporter))
            nbrs = [(canon(ringmat.mat_mul(frame, _lift(ring, mv.vertex))), i)
                    for i, mv in enumerate(model.moves(t)) if i != skip]
            nbrs.sort(key=lambda item: _row_major(item[0]))
            for w, i in nbrs:
                if w not in index:
                    mv = model.moves(t)[i]
                    index[w] = len(vertices)
                    vertices.append(w)
                    types.append(mv.target_type)
                    nxt.append((index[w], mv.target_type, (frame, mv),
                                back[t]))
                edges.add((min(vi, index[w]), max(vi, index[w])))
        layer = nxt
    return bttree.TreeGraph(model.name, ring, vertices, types, sorted(edges))


@pytest.fixture(scope="session")
def ringelt_explore():
    """(model, radius) -> the tree graph by breadth-first search on frames
    and products of ring elements: the oracle for ``bttree.bfs_explore``'s
    int numerator rows."""
    return _ringelt_explore


@pytest.fixture(scope="session")
def framed_ball(framed_explore):
    """(model, radius) -> {vertex: (type, frame)} for the vertices within
    `radius` of the base, each frame its parent's times a move."""
    def ball(model, radius):
        vertices, types, _edges, frames = framed_explore(model, radius)
        return {v: (t, f) for v, t, f in zip(vertices, types, frames)}
    return ball


@pytest.fixture(scope="session")
def residue_orbit():
    """(R, gens, point, lines=False) -> the sorted orbit of a column vector
    of representatives over the residue ring R under generator matrices of
    residue indices, by breadth-first search on the representatives.  With
    lines=True the points are the lines the vectors span, each scaled so
    that its first nonzero coordinate is 1 (R a field)."""
    def image(R, g, v):
        reps, n = list(R.elements()), len(v)
        out = []
        for i in range(n):
            acc = R.zero
            for x, y in zip(g[i * n:(i + 1) * n], v):
                acc = R.add(acc, R.mul(reps[x], y))
            out.append(acc)
        return tuple(out)

    def line(R, v):
        inv = R.prime.unit_inverse(next(x for x in v if x != R.zero), R.k)
        return tuple(R.mul(inv, x) for x in v)

    def orbit(R, gens, point, lines=False):
        norm = (lambda v: line(R, v)) if lines else (lambda v: v)
        queue = [norm(tuple(point))]
        seen = set(queue)
        for v in queue:         # the list grows as it is walked
            for g in gens:
                w = norm(image(R, g, v))
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return sorted(seen)
    return orbit


@pytest.fixture(scope="session")
def oq_residue_orbits(residue_orbit):
    """The oq tree's valences counted as residue orbits over F_2, not as
    canonical forms of neighbours: the orbit of e5 under the reduced
    reflection generators, which stabilize x0, and the orbit of the line
    of f1 in L_{1/2}/2L_{1/2} under the reduced midpoint stabilizer,
    written in the basis f of L_{1/2}.  Returns (x0 generators, vector
    orbit, line orbit)."""
    model = bttree.oq_model()
    ring = model.prime.ring
    R = ResidueRing(model.prime, 1)
    alpha = catalog.coordinate_change_alpha()
    alpha_inv = ringmat.mat_inverse(alpha)
    x0_gens = [congsub.reduce_matrix(
        R, ringmat.mat_mul(ringmat.mat_mul(alpha_inv, r), alpha))
        for r in catalog.o41_reflections()]
    vectors = residue_orbit(R, x0_gens, (R.zero,) * 4 + (R.one,))
    f = ringmat.mat(ring, [[2 if i == j == 0 else int(i == j)
                            for j in range(5)] for i in range(5)])
    f_inv = ringmat.mat_inverse(f)
    mid_gens = [congsub.reduce_matrix(
        R, ringmat.mat_mul(ringmat.mat_mul(f_inv, m), f))
        for m in model.stab_mid]
    lines = residue_orbit(R, mid_gens, (R.one,) + (R.zero,) * 4, lines=True)
    return x0_gens, vectors, lines
