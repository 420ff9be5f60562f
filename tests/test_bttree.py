import json
import math
from fractions import Fraction

import pytest

from congtower import bttree, catalog, congsub, ringmat, rings
from congtower.errors import InputError
from congtower.rings import factor_rational_prime, make_ring


@pytest.fixture(scope="module")
def magic_prime():
    return catalog.magic_ring_and_prime()[1]


@pytest.fixture(scope="module")
def pgl2():
    return bttree.pgl2_model()


@pytest.fixture(scope="module")
def oq():
    return bttree.oq_model()


@pytest.fixture(scope="module")
def su():
    return bttree.su_model()


# -- the adjacency oracle: elementary divisors of the transition matrix -----
# Independent of canonicalize and of the models' moves, which it checks.

def transition_exponents(v, w, prime):
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
                val = prime.valuation(rows[r][c])
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


def gl_adjacent(v, w, prime):
    """Ambient building adjacency: after homothety normalization the
    transition exponents are all in {0,1} and not all equal."""
    if len(v) != len(w):
        raise InputError("dimension mismatch")
    exps = transition_exponents(v, w, prime)
    lo = exps[0]
    exps = [e - lo for e in exps]
    return set(exps) <= {0, 1} and len(set(exps)) == 2


def test_canonicalize_idempotent_and_homothety(magic_prime):
    ring = magic_prime.ring
    v0 = ringmat.identity(ring, 2)
    c = bttree.canonicalize(v0, magic_prime)
    assert bttree.canonicalize(c, magic_prime) == c
    assert bttree.canonicalize(ringmat.mat_scale(v0, 2), magic_prime) == c
    assert bttree.canonicalize(ringmat.mat_scale(v0, ring.gen()), magic_prime) == c


def test_canonicalize_rejects_singular(magic_prime):
    ring = magic_prime.ring
    with pytest.raises(InputError):
        bttree.canonicalize(ringmat.mat(ring, [[1, 1], [1, 1]]), magic_prime)


def test_canonicalize_stabilizer_invariance(magic_prime, rng):
    # random words in SL2(O) stabilize the standard vertex
    ring = magic_prime.ring
    gens = catalog.sl2_gen_matrices(ring)
    mats = [gens[k] for k in "abu"]
    mats += [ringmat.mat_inverse(m) for m in mats]
    v0 = ringmat.identity(ring, 2)
    base = bttree.canonicalize(v0, magic_prime)
    for _ in range(50):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 6)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        assert bttree.canonicalize(ringmat.mat_mul(g, v0), magic_prime) == base
    # and for a moved vertex: stabilizer conjugates
    w = bttree.canonicalize(ringmat.mat_mul(catalog.magic_swap(), v0), magic_prime)
    swap = catalog.magic_swap()
    for _ in range(25):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 4)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        conj = ringmat.mat_mul(ringmat.mat_mul(swap, g),
                               ringmat.mat_inverse(swap))
        assert bttree.canonicalize(ringmat.mat_mul(conj, w), magic_prime) == w


@pytest.mark.parametrize("name", ["pgl2", "oq", "su"])
def test_uniformizer_powers_are_cached(request, name):
    prime = request.getfixturevalue(name).prime
    for k in range(-4, 5):
        assert prime.uniformizer_power(k) == prime.pi ** k
        assert prime.uniformizer_power(k) is prime.uniformizer_power(k)
    for k in range(1, 4):
        assert prime.residue(k) is prime.residue(k)
        assert (prime.residue(k).prime, prime.residue(k).k) == (prime, k)


def test_pi_is_inverted_once_per_prime(monkeypatch):
    # the prime owns pi^-1: canonicalization and every residue ring
    # O/p^1 .. O/p^6 the exploration reduces in share one inverse of pi
    calls = []
    inverse = rings.RingElt.inverse
    monkeypatch.setattr(rings.RingElt, "inverse",
                        lambda self: calls.append(self) or inverse(self))
    model = bttree.pgl2_model()
    bttree.bfs_explore(model, 6)
    assert calls.count(model.prime.pi) == 1


@pytest.mark.parametrize("name", ["pgl2", "oq", "su"])
def test_canonicalize_inverts_once_per_pivot(request, name, monkeypatch,
                                              framed_ball):
    # every division by pi^v is a product with the cached pi^-v, which
    # leaves one inverse per pivot unit
    model = request.getfixturevalue(name)
    prime = model.prime
    base = model.bases[model.base_type]
    pi_inv = prime.uniformizer_power(-1)
    inputs = [ringmat.mat_mul(frame, base)
              for _t, frame in framed_ball(model, 2).values()]
    inputs += [ringmat.mat_scale(m, pi_inv) for m in inputs[:8]]
    calls = []
    inverse = rings.RingElt.inverse
    monkeypatch.setattr(rings.RingElt, "inverse",
                        lambda self: calls.append(self) or inverse(self))
    for m in inputs:
        del calls[:]
        bttree.canonicalize(m, prime)
        assert len(calls) <= len(m)


def test_gl_adjacent_symmetric_irreflexive(pgl2):
    prime = pgl2.prime
    v0 = pgl2.bases["v"]
    nbrs = {w for (w, _, _) in pgl2.neighbors("v", ringmat.identity(prime.ring, 2))}
    assert len(nbrs) == pgl2.valences()["v"] == prime.norm() + 1
    for w in nbrs:
        assert gl_adjacent(v0, w, prime)
        assert gl_adjacent(w, v0, prime)
    assert not gl_adjacent(v0, v0, prime)


def test_apartment_adjacency(magic_prime):
    # consecutive apartment vertices (half-integer steps) are adjacent;
    # skipping one is distance two
    xs = [bttree.apartment_vertex(magic_prime, 2, t) for t in range(-2, 3)]
    for a, b in zip(xs, xs[1:]):
        assert gl_adjacent(a, b, magic_prime)
    assert not gl_adjacent(xs[0], xs[2], magic_prime)


def test_pgl2_neighbor_count_various_p():
    # p+1 lines, counted by brute force over F_p^2
    for d, p in ((1, 3), (1, 5), (2, 3)):
        ring = make_ring(d)
        primes = [q for q in factor_rational_prime(ring, p) if q.f == 1]
        if not primes:
            continue
        model = bttree.pgl2_model(ring, primes[0])
        v0 = model.bases["v"]
        nbrs = {w for (w, _, _) in model.neighbors("v", ringmat.identity(ring, 2))}
        assert len(nbrs) == model.valences()["v"] == p + 1
        assert all(gl_adjacent(v0, w, model.prime) for w in nbrs)
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
    prime = oq.prime
    x0 = oq.bases["x0"]
    xh = oq.bases["xhalf"]
    assert bttree.apartment_vertex(prime, 5, 0) == x0
    assert bttree.apartment_vertex(prime, 5, 1) == xh
    x1 = bttree.apartment_vertex(prime, 5, 2)
    assert gl_adjacent(x0, xh, prime)
    assert gl_adjacent(xh, x1, prime)
    assert not gl_adjacent(x0, x1, prime)


def test_oq_valences_from_orbits(oq, oq_residue_orbits):
    assert oq.valences() == {"x0": 5, "xhalf": 3}
    gens, orbit, lines = oq_residue_orbits
    assert len(orbit) == 5
    order = len(congsub.group_closure(oq.prime.residue(1), gens).elements)
    assert order % len(orbit) == 0
    assert len(lines) == 3
    # orbit sizes match the recomputed tree valences
    assert len(orbit) == len(oq.moves("x0"))
    assert len(lines) == len(oq.moves("xhalf"))


def test_oq_orbit_members_match_published_sets(oq_residue_orbits):
    _gens, orbit, lines = oq_residue_orbits
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
    assert set(lines) == {v(1, 0, 0, 0, 0), v(0, 0, 0, 0, 1), v(1, 0, 0, 0, 1)}


def test_oq_base_neighbors_match_published_representatives(oq):
    ring = oq.prime.ring
    ident = ringmat.identity(ring, 5)

    def vert(cols):
        m = tuple(tuple(ring(c[i]) for c in cols) for i in range(5))
        return bttree.canonicalize(m, oq.prime)

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
    assert bttree.apartment_vertex(oq.prime, 5, -1) in nb_x0
    for cols in explicit:
        assert vert(cols) in nb_x0
    nb_xh = {v for (v, t, g) in oq.neighbors("xhalf", ident)}
    shear_image = vert([(1, 0, 0, 0, Fraction(1, 2)), (0, 1, 0, 0, 0),
                        (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert nb_xh == {oq.bases["x0"], bttree.apartment_vertex(oq.prime, 5, 2),
                     shear_image}


def test_su_dictionary_and_swap(su):
    prime = su.prime
    v0 = su.bases["v0"]
    mid = su.bases["mid"]
    apartment = catalog.pu21_ring_and_prime()[1]
    assert bttree.apartment_vertex(apartment, 3, 0) == v0
    assert bttree.apartment_vertex(apartment, 3, 1) == mid
    v1 = bttree.apartment_vertex(apartment, 3, 2)
    g0 = catalog.pu21_swap()
    assert bttree.canonicalize(ringmat.mat_mul(g0, v0), prime) == v1
    assert bttree.canonicalize(ringmat.mat_mul(g0, mid), prime) == mid
    assert gl_adjacent(v0, mid, prime)
    assert gl_adjacent(mid, v1, prime)


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


def test_vertex_key_is_reduced_fraction_coordinates(pgl2, oq, su):
    # bfs_explore orders each vertex's neighbours by this key, so the tree
    # and tower JSON depend on it; the vertices are integral, so each is
    # also keyed over the denominator 6
    for graph in (bttree.bfs_explore(pgl2, 3), bttree.bfs_explore(oq, 2),
                  bttree.bfs_explore(su, 2)):
        for v in graph.vertices + [ringmat.mat_scale(v, Fraction(1, 6))
                                   for v in graph.vertices]:
            coords = [[Fraction(c, x.den) for x in row for c in x.num] for row in v]
            assert bttree._vertex_key(v) == tuple(
                tuple((f.numerator, f.denominator) for f in row) for row in coords)


def test_explored_valences_recomputed(oq, framed_ball):
    # every explored vertex has the valence of its type, recomputed from
    # the neighbors (distinctness and adjacency verified per vertex)
    graph = bttree.bfs_explore(oq, 3)
    ball = framed_ball(oq, 3)
    assert set(ball) == set(graph.vertices)
    expected = oq.valences()
    for v, (t, frame) in ball.items():
        nbrs = oq.neighbors(t, frame)
        verts = {w for (w, _, _) in nbrs}
        assert len(verts) == expected[t]
        for w, _, _ in nbrs:
            assert gl_adjacent(v, w, oq.prime)


def test_exports(pgl2, tmp_path):
    g = bttree.bfs_explore(pgl2, 2)
    dot = g.to_dot()
    assert dot.startswith("graph tree {") and "--" in dot
    payload = g.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert len(back["vertices"]) == len(g.vertices)
    assert all(len(e) == 2 for e in back["edges"])


def test_frames_carry_base_to_vertex(oq, framed_ball):
    graph = bttree.bfs_explore(oq, 2)
    ball = framed_ball(oq, 2)
    assert [ball[v][0] for v in graph.vertices] == graph.types
    for v, (t, frame) in ball.items():
        assert bttree.canonicalize(
            ringmat.mat_mul(frame, oq.bases[t]), oq.prime) == v


def _box_solve_trace(ring, target, prime):
    # the reference: build every y of the [-2, 2] box and keep the first of
    # least valuation among those with y + conj(y) = target
    import itertools
    best = best_val = None
    for coords in itertools.product(range(-2, 3), repeat=ring.degree):
        y = ring(coords)
        if y + y.conj() == target:
            v = prime.valuation(y)
            if best_val is None or v < best_val:
                best, best_val = y, v
    return best


def test_su_stab_gens_match_the_box_loop():
    ring = make_ring("cyclotomic-5")
    prime = factor_rational_prime(ring, 5)[0]
    gens, _ = bttree._su_stab_gens(ring)
    # after the torus unit, each upper u(x, y) is followed by its lower
    uppers = gens[1::2]
    expected = []
    z, one = ring.zeta(), ring.one
    pi = z - one
    for x in (one, z, z - one, pi, pi * z, pi * z ** 2):
        y = _box_solve_trace(ring, -(x * x.conj()), prime)
        if y is not None:
            expected.append((x, y))
    assert len(expected) > 0
    assert [(u[1][2], u[0][2]) for u in uppers] == expected
