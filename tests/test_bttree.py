import json
from fractions import Fraction

import pytest

from congtower import bttree, catalog, ringmat
from congtower.errors import InputError
from congtower.rings import factor_rational_prime, make_ring


@pytest.fixture(scope="module")
def magic_ctx():
    ring, prime = catalog.magic_ring_and_prime()
    return bttree.LocalContext(ring, prime)


@pytest.fixture(scope="module")
def pgl2():
    return bttree.pgl2_model()


@pytest.fixture(scope="module")
def oq():
    return bttree.oq_model()


@pytest.fixture(scope="module")
def su():
    return bttree.su_model()


def test_canonicalize_idempotent_and_homothety(magic_ctx):
    ring = magic_ctx.ring
    v0 = bttree.standard_lattice(ring, 2)
    c = bttree.canonicalize(v0, magic_ctx)
    assert bttree.canonicalize(c, magic_ctx) == c
    assert bttree.canonicalize(ringmat.mat_scale(v0, 2), magic_ctx) == c
    assert bttree.canonicalize(ringmat.mat_scale(v0, ring.gen()), magic_ctx) == c


def test_canonicalize_rejects_singular(magic_ctx):
    ring = magic_ctx.ring
    with pytest.raises(InputError):
        bttree.canonicalize(ringmat.mat(ring, [[1, 1], [1, 1]]), magic_ctx)


def test_canonicalize_stabilizer_invariance(magic_ctx, rng):
    # random words in SL2(O) stabilize the standard vertex
    ring = magic_ctx.ring
    gens = catalog.sl2_gen_matrices(ring)
    mats = [gens[k] for k in "abu"]
    mats += [ringmat.mat_inverse(m) for m in mats]
    v0 = bttree.standard_lattice(ring, 2)
    base = bttree.canonicalize(v0, magic_ctx)
    for _ in range(50):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 6)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        assert bttree.canonicalize(ringmat.mat_mul(g, v0), magic_ctx) == base
    # and for a moved vertex: stabilizer conjugates
    w = bttree.canonicalize(ringmat.mat_mul(catalog.magic_swap(), v0), magic_ctx)
    swap = catalog.magic_swap()
    for _ in range(25):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 4)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        conj = ringmat.mat_mul(ringmat.mat_mul(swap, g),
                               ringmat.mat_inverse(swap))
        assert bttree.canonicalize(ringmat.mat_mul(conj, w), magic_ctx) == w


def test_gl_adjacent_symmetric_irreflexive(magic_ctx):
    v0 = bttree.canonicalize(bttree.standard_lattice(magic_ctx.ring, 2), magic_ctx)
    for w in bttree.pgl2_neighbors(v0, magic_ctx):
        assert bttree.gl_adjacent(v0, w, magic_ctx)
        assert bttree.gl_adjacent(w, v0, magic_ctx)
    assert not bttree.gl_adjacent(v0, v0, magic_ctx)


def test_apartment_adjacency(magic_ctx):
    # consecutive apartment vertices (half-integer steps) are adjacent;
    # skipping one is distance two
    xs = [bttree.apartment_vertex(magic_ctx, 2, t) for t in range(-2, 3)]
    for a, b in zip(xs, xs[1:]):
        assert bttree.gl_adjacent(a, b, magic_ctx)
    assert not bttree.gl_adjacent(xs[0], xs[2], magic_ctx)


def test_pgl2_neighbor_count_various_p():
    # p+1 lines, counted by brute force over F_p^2
    for d, p in ((1, 3), (1, 5), (2, 3)):
        ring = make_ring(d)
        primes = [q for q in factor_rational_prime(ring, p) if q.f == 1]
        if not primes:
            continue
        ctx = bttree.LocalContext(ring, primes[0])
        v0 = bttree.canonicalize(bttree.standard_lattice(ring, 2), ctx)
        nbrs = bttree.pgl2_neighbors(v0, ctx)
        assert len(nbrs) == p + 1
        lines = set()
        for x in range(p):
            for y in range(p):
                if (x, y) != (0, 0):
                    lines.add(_line_rep(x, y, p))
        assert len(nbrs) == len(lines)


def _line_rep(x, y, p):
    if x:
        inv = pow(x, -1, p)
        return (1, (y * inv) % p)
    inv = pow(y, -1, p)
    return (0, 1)


def test_oq_apartment_vertices_and_types(oq):
    ctx = oq.ctx
    x0 = oq.bases["x0"]
    xh = oq.bases["xhalf"]
    assert bttree.apartment_vertex(ctx, 5, 0) == x0
    assert bttree.apartment_vertex(ctx, 5, 1) == xh
    x1 = bttree.apartment_vertex(ctx, 5, 2)
    assert bttree.gl_adjacent(x0, xh, ctx)
    assert bttree.gl_adjacent(xh, x1, ctx)
    assert not bttree.gl_adjacent(x0, x1, ctx)


def test_oq_valences_from_orbits(oq):
    assert oq.valences() == {"x0": 5, "xhalf": 3}
    orbit, order = bttree.oq_mod2_vector_orbit()
    assert len(orbit) == 5
    assert order % len(orbit) == 0
    lines = bttree.oq_halfvertex_line_orbit()
    assert len(lines) == 3
    # orbit sizes match the recomputed tree valences
    assert len(orbit) == len(oq.moves("x0"))
    assert len(lines) == len(oq.moves("xhalf"))


def test_oq_orbit_members_match_published_sets():
    orbit, _ = bttree.oq_mod2_vector_orbit()
    def v(*coords):
        return tuple((c,) for c in coords)
    expected = {
        v(0, 0, 0, 0, 1),
        v(1, 0, 0, 0, 0),
        v(1, 1, 1, 0, 1),
        v(1, 1, 0, 1, 1),
        v(1, 0, 1, 1, 1),
    }
    assert set(orbit) == expected
    lines = set(bttree.oq_halfvertex_line_orbit())
    assert lines == {v(1, 0, 0, 0, 0), v(0, 0, 0, 0, 1), v(1, 0, 0, 0, 1)}


def test_oq_base_neighbors_match_published_representatives(oq):
    ring = oq.ctx.ring
    ident = ringmat.identity(ring, 5)

    def vert(cols):
        m = tuple(tuple(ring(c[i]) for c in cols) for i in range(5))
        return bttree.canonicalize(m, oq.ctx)

    nb_x0 = {v for (v, t, g) in oq.neighbors("x0", ident)}
    explicit = [
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 1, 0),
         (1, 1, 1, 0, 1)],
        [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, 1, 0),
         (1, 1, 0, 1, 1)],
        [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
         (1, 0, 1, 1, 1)],
    ]
    assert oq.bases["xhalf"] in nb_x0
    assert bttree.apartment_vertex(oq.ctx, 5, -1) in nb_x0
    for cols in explicit:
        assert vert(cols) in nb_x0
    nb_xh = {v for (v, t, g) in oq.neighbors("xhalf", ident)}
    shear_image = vert([(1, 0, 0, 0, Fraction(1, 2)), (0, 1, 0, 0, 0),
                        (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert nb_xh == {oq.bases["x0"], bttree.apartment_vertex(oq.ctx, 5, 2),
                     shear_image}


def test_su_dictionary_and_swap(su):
    ctx = su.ctx
    v0 = su.bases["v0"]
    mid = su.bases["mid"]
    assert bttree.su_tree_vertex(0) == v0
    assert bttree.su_tree_vertex(1) == mid
    v1 = bttree.su_tree_vertex(2)
    g0 = catalog.pu21_swap()
    assert bttree.canonicalize(ringmat.mat_mul(g0, v0), ctx) == v1
    assert bttree.canonicalize(ringmat.mat_mul(g0, mid), ctx) == mid
    assert bttree.gl_adjacent(v0, mid, ctx)
    assert bttree.gl_adjacent(mid, v1, ctx)


def test_bfs_counts_and_acyclicity(pgl2, oq, su):
    g0 = bttree.bfs_explore(pgl2, 0)
    assert len(g0.vertices) == 1 and g0.edges == []
    g2 = bttree.bfs_explore(pgl2, 2)
    assert len(g2.vertices) == 1 + 3 + 6
    assert g2.is_tree()
    g4 = bttree.bfs_explore(pgl2, 4)
    assert len(g4.vertices) == 46 and g4.is_tree()
    oq2 = bttree.bfs_explore(oq, 2)
    assert len(oq2.vertices) == 1 + 5 + 10
    assert oq2.is_tree()
    oq3 = bttree.bfs_explore(oq, 3)
    assert len(oq3.vertices) == 16 + 10 * 4
    assert oq3.is_tree()
    su2 = bttree.bfs_explore(su, 2)
    assert len(su2.vertices) == 1 + 6 + 30 and su2.is_tree()


def test_vertex_key_is_reduced_fraction_coordinates(pgl2, oq):
    # bfs_explore orders each vertex's neighbours by this key, so the tree
    # and tower JSON depend on it
    for graph in (bttree.bfs_explore(pgl2, 3), bttree.bfs_explore(oq, 2)):
        for v in graph.vertices:
            coords = [[Fraction(c, x.den) for x in row for c in x.num] for row in v]
            assert bttree._vertex_key(v) == tuple(
                tuple((f.numerator, f.denominator) for f in row) for row in coords)


def test_explored_valences_recomputed(oq):
    # every explored vertex has the valence of its type, recomputed from
    # the neighbors (distinctness and adjacency verified per vertex)
    graph = bttree.bfs_explore(oq, 3)
    expected = oq.valences()
    for v, t, frame in zip(graph.vertices, graph.types, graph.frames):
        nbrs = oq.neighbors(t, frame)
        verts = {w for (w, _, _) in nbrs}
        assert len(verts) == expected[t]
        for w, _, _ in nbrs:
            assert bttree.gl_adjacent(v, w, oq.ctx)


def test_exports(pgl2, tmp_path):
    g = bttree.bfs_explore(pgl2, 2)
    dot = g.to_dot()
    assert dot.startswith("graph tree {") and "--" in dot
    payload = g.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert len(back["vertices"]) == len(g.vertices)
    assert all(len(e) == 2 for e in back["edges"])


def test_frames_carry_base_to_vertex(oq):
    graph = bttree.bfs_explore(oq, 2)
    for v, t, frame in zip(graph.vertices, graph.types, graph.frames):
        assert bttree.canonicalize(
            ringmat.mat_mul(frame, oq.bases[t]), oq.ctx) == v
