import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congtower import bttree, catalog, congsub, ringmat, rings, tower
from congtower.errors import InputError
from congtower.rings import factor_rational_prime, make_ring


def canon(m, prime):
    """``bttree.canonicalize`` of the column span of a matrix of ring
    elements, any product in it formed exactly by ``ringmat.mat_mul``."""
    return bttree.canonicalize(ringmat.numerator_columns(m), prime)


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


@pytest.fixture(scope="module")
def gl_adjacent(lift):
    """(v, w, prime) -> the ambient building adjacency of two vertices:
    after homothety normalization the transition exponents are all in
    {0,1} and not all equal."""
    def adjacent(v, w, prime):
        if len(v) != len(w):
            raise InputError("dimension mismatch")
        exps = transition_exponents(lift(prime.ring, v), lift(prime.ring, w),
                                    prime)
        lo = exps[0]
        exps = [e - lo for e in exps]
        return set(exps) <= {0, 1} and len(set(exps)) == 2
    return adjacent


def test_canonicalize_idempotent_and_homothety(magic_prime, lift):
    ring = magic_prime.ring
    v0 = ringmat.identity(ring, 2)
    c = canon(v0, magic_prime)
    assert canon(lift(ring, c), magic_prime) == c
    assert canon(ringmat.mat_scale(v0, 2), magic_prime) == c
    assert canon(ringmat.mat_scale(v0, ring.gen()), magic_prime) == c


def test_canonicalize_rejects_singular(magic_prime):
    ring = magic_prime.ring
    with pytest.raises(InputError):
        canon(ringmat.mat(ring, [[1, 1], [1, 1]]), magic_prime)


def test_canonicalize_stabilizer_invariance(magic_prime, rng, lift):
    # random words in SL2(O) stabilize the standard vertex
    ring = magic_prime.ring
    gens = catalog.sl2_gen_matrices(ring)
    mats = [gens[k] for k in "abu"]
    mats += [ringmat.mat_inverse(m) for m in mats]
    v0 = ringmat.identity(ring, 2)
    base = canon(v0, magic_prime)
    for _ in range(50):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 6)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        assert canon(ringmat.mat_mul(g, v0), magic_prime) == base
    # and for a moved vertex: stabilizer conjugates
    w = canon(ringmat.mat_mul(catalog.magic_swap(), v0), magic_prime)
    swap = catalog.magic_swap()
    for _ in range(25):
        g = ringmat.identity(ring, 2)
        for _ in range(rng.randint(1, 4)):
            g = ringmat.mat_mul(g, rng.choice(mats))
        conj = ringmat.mat_mul(ringmat.mat_mul(swap, g),
                               ringmat.mat_inverse(swap))
        assert canon(ringmat.mat_mul(conj, lift(ring, w)), magic_prime) == w


@pytest.mark.parametrize("name", ["pgl2", "oq", "su"])
def test_uniformizer_powers_are_cached(request, name):
    prime = request.getfixturevalue(name).prime
    for k in range(-4, 5):
        assert prime.uniformizer_power(k) == prime.pi ** k
        assert prime.uniformizer_power(k) is prime.uniformizer_power(k)


@pytest.mark.parametrize("name", ["oq", "su"])
def test_base_moves_fix_the_base(request, name, lift):
    # tower._swap_moves aligns each move as h = f sigma, which fixes the
    # base because every base move f does
    model = request.getfixturevalue(name)
    base = model.bases[model.base_type]
    for f in model.moves(model.base_type):
        assert canon(ringmat.mat_mul(f.transporter,
                                     lift(model.prime.ring, base)),
                     model.prime) == base


def _two_type_generators(name):
    """The base-stabilizer generators and the extra midpoint-stabilizer
    generators the two-type model `name` is built from."""
    if name == "oq":
        return (bttree._conjugated_reflections(),
                [catalog.o41_midpoint_stab_shear()])
    return bttree._su_stab_gens(*catalog.pu21_ring_and_prime())[0], []


@pytest.mark.parametrize("name", ["oq", "su"])
def test_mid_action_is_the_midpoint_stabilizer_action(request, name, lift):
    # the oracle for the action columns the tower's alignment reads:
    # mid_action[k][i] == j exactly when stab_mid[k] carries the midpoint's
    # neighbour i to its neighbour j, by canonical forms
    model = request.getfixturevalue(name)
    mid_type = model.moves(model.base_type)[0].target_type
    nbrs = [m.vertex for m in model.moves(mid_type)]
    assert len(set(nbrs)) == len(nbrs)
    assert len(model.mid_action) == len(model.stab_mid)
    for g, column in zip(model.stab_mid, model.mid_action):
        assert column == [nbrs.index(canon(
            ringmat.mat_mul(g, lift(model.prime.ring, v)), model.prime))
            for v in nbrs]


@pytest.mark.parametrize("name", ["oq", "su"])
def test_stab_mid_keeps_the_base_generators_fixing_the_midpoint(request,
                                                                name, lift):
    # after the swap and the extra generators, exactly the base-stabilizer
    # generators g with g mid = mid, in order
    model = request.getfixturevalue(name)
    stab, extra = _two_type_generators(name)
    mid = model.bases[model.moves(model.base_type)[0].target_type]
    fixing = [g for g in stab
              if canon(ringmat.mat_mul(g, lift(model.prime.ring, mid)),
                       model.prime) == mid]
    assert 0 < len(fixing) < len(stab)
    assert model.stab_mid == [model.swap] + extra + fixing


@pytest.mark.parametrize("name", ["oq", "su"])
def test_base_is_midpoint_neighbour_0_and_swap_is_generator_0(request, name):
    # TreeModel states both; tower._swap_moves starts its pair orbit at
    # (0, mid_action[0][0]) on them
    model = request.getfixturevalue(name)
    mid_type = model.moves(model.base_type)[0].target_type
    assert model.moves(mid_type)[0].vertex == model.bases[model.base_type]
    assert model.stab_mid[0] == model.swap


@pytest.mark.parametrize("name", ["oq", "su"])
def test_two_type_model_canonicalizes_only_its_orbits(monkeypatch, name):
    # one canonical form for the midpoint, then per orbit the seed's and
    # one per (neighbour, generator); which base generators fix the
    # midpoint is read off the base orbit's action, with no more
    stab, _ = _two_type_generators(name)
    calls = []
    canonicalize = bttree.canonicalize

    def counting(*args):
        calls.append(args)
        return canonicalize(*args)

    monkeypatch.setattr(bttree, "canonicalize", counting)
    model = getattr(bttree, name + "_model")()
    monkeypatch.setattr(bttree, "canonicalize", canonicalize)
    base_type = model.base_type
    mid_type = model.moves(base_type)[0].target_type
    valence = model.valences()
    assert len(calls) == (1 + 1 + valence[base_type] * len(stab)
                          + 1 + valence[mid_type] * len(model.stab_mid))


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
def test_canonicalize_inverts_no_ring_element(request, name, monkeypatch,
                                              framed_ball, lift):
    # every division by pi^v is an exact quotient by the cached pi^-v, and
    # each pivot unit is inverted mod p^K by a lift from the residue field,
    # so no element of the fraction field is inverted
    model = request.getfixturevalue(name)
    prime = model.prime
    base = model.bases[model.base_type]
    pi_inv = prime.uniformizer_power(-1)
    inputs = [ringmat.mat_mul(frame, lift(prime.ring, base))
              for _t, frame in framed_ball(model, 2).values()]
    inputs += [ringmat.mat_scale(m, pi_inv) for m in inputs[:8]]
    calls = []
    inverse = rings.RingElt.inverse
    monkeypatch.setattr(rings.RingElt, "inverse",
                        lambda self: calls.append(self) or inverse(self))
    for m in inputs:
        canon(m, prime)
    assert calls == []


# -- canonicalize against the global Hermite form (the oracle) -------------

def _conj_pi_column(m, prime):
    """m with its first column times conj(pi)^-1: a denominator at the
    conjugate prime (a unit at pi when p splits)."""
    c = prime.pi.conj().inverse()
    return tuple((row[0] * c,) + tuple(row[1:]) for row in m)


@pytest.mark.parametrize("name, radius", [("pgl2", 6), ("oq", 4), ("su", 4)])
def test_canonicalize_matches_the_oracle_on_frames(request, framed_ball,
                                                   oracle_canonicalize, name,
                                                   radius, lift):
    # frame * base for every vertex of the ball, scaled by pi^-1, with a
    # column over conj(pi), and moved by the swap (pu21's has a conj(pi)^-1
    # entry)
    model = request.getfixturevalue(name)
    prime = model.prime
    pi_inv = prime.uniformizer_power(-1)
    for t, frame in framed_ball(model, radius).values():
        m = ringmat.mat_mul(frame, lift(prime.ring, model.bases[t]))
        for x in (m, ringmat.mat_scale(m, pi_inv), _conj_pi_column(m, prime),
                  ringmat.mat_mul(model.swap, m)):
            assert lift(prime.ring, canon(x, prime)) == oracle_canonicalize(
                x, prime)


@pytest.mark.parametrize("p, radius", [(3, 2), (5, 2)])
def test_canonicalize_matches_the_oracle_at_inert_primes(framed_ball,
                                                         oracle_canonicalize,
                                                         p, radius, lift):
    # pgl2 over O_7 at the inert primes 3 and 5 (residue degree 2)
    ring = make_ring(7)
    prime, = factor_rational_prime(ring, p)
    assert prime.f == 2
    model = bttree.pgl2_model(ring, prime)
    pi_inv = prime.uniformizer_power(-1)
    for t, frame in framed_ball(model, radius).values():
        m = ringmat.mat_mul(frame, lift(ring, model.bases[t]))
        for x in (m, ringmat.mat_scale(m, pi_inv)):
            assert lift(ring, canon(x, prime)) == oracle_canonicalize(x, prime)


_ORACLE_PRIMES = {
    "magic": lambda: catalog.magic_ring_and_prime()[1],
    "rational-2": lambda: factor_rational_prime(make_ring("rational"), 2)[0],
    "zeta5-5": lambda: catalog.pu21_ring_and_prime()[1],
    "o7-3": lambda: factor_rational_prime(make_ring(7), 3)[0],
}


@pytest.mark.parametrize("name", sorted(_ORACLE_PRIMES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_canonicalize_matches_the_oracle_on_integral_matrices(
        oracle_canonicalize, lift, name, data):
    prime = _ORACLE_PRIMES[name]()
    ring = prime.ring
    n = data.draw(st.integers(2, 3))
    coords = st.tuples(*[st.integers(-9, 9)] * ring.degree)
    m = [[ring(data.draw(coords)) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        # a column that repeats another: singular
        for row in m:
            row[1] = row[0]
    m = tuple(tuple(row) for row in m)
    try:
        expected = oracle_canonicalize(m, prime)
    except InputError:
        with pytest.raises(InputError):
            canon(m, prime)
    else:
        assert lift(ring, canon(m, prime)) == expected


def test_canonicalize_builds_no_residue_ring_past_the_budget(
        su, oracle_canonicalize, lift):
    # the fixups run mod p^K on the lattice of p^K, never in O/p^K: for
    # diag(1, pi^5, pi^5), K = 10 and 5^10 is past 10^6, the size at
    # which residue rings were once refused.  The oracle, which builds O/p^k
    # for each exponent k, takes both inputs, as 5^(largest exponent) is
    # under it; 5^(sum of exponents) is not
    prime = su.prime
    ring = prime.ring
    pi5 = prime.uniformizer_power(5)
    d = ((ring.one, ring.zero, ring.zero), (ring.zero, pi5, ring.zero),
         (ring.zero, ring.zero, pi5))
    for m, exps in ((d, (0, 5, 5)),
                    (ringmat.mat_mul(catalog.pu21_swap(), d), (7, 6, 0))):
        assert (prime.norm() ** max(exps) <= 10 ** 6
                < prime.norm() ** sum(exps))
        out = lift(ring, canon(m, prime))
        assert [out[i][i] for i in range(3)] == [
            prime.uniformizer_power(k) for k in exps]
        assert out == oracle_canonicalize(m, prime)


def test_gl_adjacent_symmetric_irreflexive(pgl2, frame_neighbors,
                                           gl_adjacent):
    prime = pgl2.prime
    v0 = pgl2.bases["v"]
    nbrs = {w for (w, _, _) in frame_neighbors(
        pgl2, "v", ringmat.identity(prime.ring, 2))}
    assert len(nbrs) == pgl2.valences()["v"] == prime.norm() + 1
    for w in nbrs:
        assert gl_adjacent(v0, w, prime)
        assert gl_adjacent(w, v0, prime)
    assert not gl_adjacent(v0, v0, prime)


def test_apartment_adjacency(magic_prime, gl_adjacent):
    # consecutive apartment vertices (half-integer steps) are adjacent;
    # skipping one is distance two
    xs = [bttree.apartment_vertex(magic_prime, 2, t) for t in range(-2, 3)]
    for a, b in zip(xs, xs[1:]):
        assert gl_adjacent(a, b, magic_prime)
    assert not gl_adjacent(xs[0], xs[2], magic_prime)


def test_pgl2_neighbor_count_various_p(frame_neighbors, gl_adjacent):
    # p+1 lines, counted by brute force over F_p^2
    for d, p in ((1, 3), (1, 5), (2, 3)):
        ring = make_ring(d)
        primes = [q for q in factor_rational_prime(ring, p) if q.f == 1]
        if not primes:
            continue
        model = bttree.pgl2_model(ring, primes[0])
        v0 = model.bases["v"]
        nbrs = {w for (w, _, _) in frame_neighbors(
            model, "v", ringmat.identity(ring, 2))}
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


def test_oq_apartment_vertices_and_types(oq, gl_adjacent):
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
    order = len(congsub.group_closure(rings.ResidueRing(oq.prime, 1), gens).elements)
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


def test_oq_base_neighbors_match_published_representatives(oq,
                                                           frame_neighbors):
    ring = oq.prime.ring
    ident = ringmat.identity(ring, 5)

    def vert(cols):
        m = tuple(tuple(ring(c[i]) for c in cols) for i in range(5))
        return canon(m, oq.prime)

    nb_x0 = {v for (v, t, g) in frame_neighbors(oq, "x0", ident)}
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
    nb_xh = {v for (v, t, g) in frame_neighbors(oq, "xhalf", ident)}
    shear_image = vert([(1, 0, 0, 0, Fraction(1, 2)), (0, 1, 0, 0, 0),
                        (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert nb_xh == {oq.bases["x0"], bttree.apartment_vertex(oq.prime, 5, 2),
                     shear_image}


def test_su_dictionary_and_swap(su, gl_adjacent, lift):
    prime = su.prime
    v0 = su.bases["v0"]
    mid = su.bases["mid"]
    apartment = catalog.pu21_ring_and_prime()[1]
    assert bttree.apartment_vertex(apartment, 3, 0) == v0
    assert bttree.apartment_vertex(apartment, 3, 1) == mid
    v1 = bttree.apartment_vertex(apartment, 3, 2)
    g0 = catalog.pu21_swap()
    assert canon(ringmat.mat_mul(g0, lift(prime.ring, v0)), prime) == v1
    assert canon(ringmat.mat_mul(g0, lift(prime.ring, mid)), prime) == mid
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


def test_vertices_are_int_matrices_sorted_row_major(pgl2, oq, su,
                                                    row_major):
    # bfs_explore orders each vertex's neighbours by the vertices
    # themselves, so the tree and tower JSON depend on tuple order: every
    # vertex of the benchmark's three tree balls and of a pu21 tower is a
    # square tuple of rows of int coordinate tuples, and on these tuple
    # order is the order of the row-major coordinates
    balls = [(model, bttree.bfs_explore(model, radius).vertices)
             for model, radius in ((pgl2, 8), (oq, 4), (su, 3))]
    data = tower.build_tower("pu21", 30)
    balls.append((data.model, [s.vertex for s in data.steps]))
    for model, vertices in balls:
        n = len(model.bases[model.base_type])
        degree = model.prime.ring.degree
        for v in vertices:
            assert type(v) is tuple and len(v) == n
            for row in v:
                assert type(row) is tuple and len(row) == n
                for x in row:
                    assert type(x) is tuple and len(x) == degree
                    assert all(type(c) is int for c in x)
        assert sorted(vertices) == sorted(vertices, key=row_major)


def test_explored_valences_recomputed(oq, framed_ball, frame_neighbors,
                                      gl_adjacent):
    # every explored vertex has the valence of its type, recomputed from
    # the neighbors (distinctness and adjacency verified per vertex)
    graph = bttree.bfs_explore(oq, 3)
    ball = framed_ball(oq, 3)
    assert set(ball) == set(graph.vertices)
    expected = oq.valences()
    for v, (t, frame) in ball.items():
        nbrs = frame_neighbors(oq, t, frame)
        verts = {w for (w, _, _) in nbrs}
        assert len(verts) == expected[t]
        for w, _, _ in nbrs:
            assert gl_adjacent(v, w, oq.prime)


@pytest.mark.parametrize("name, radius", [("pgl2", 5), ("oq", 3),
                                          ("su", 3)])
def test_bfs_explore_matches_the_frame_oracle(request, framed_explore, name,
                                              radius):
    # the same vertices in the same order, the same types and edges as a
    # search that reaches every neighbour through its full frame and tries
    # the move back to the parent too
    model = request.getfixturevalue(name)
    graph = bttree.bfs_explore(model, radius)
    vertices, types, edges, _frames = framed_explore(model, radius)
    assert graph.vertices == vertices
    assert graph.types == types
    assert graph.edges == edges


@pytest.mark.parametrize("name", ["pgl2", "oq", "su"])
def test_move_vertex_is_the_canonical_transporter_image(request, name, lift):
    model = request.getfixturevalue(name)
    for t in model.bases:
        for mv in model.moves(t):
            assert mv.vertex == canon(ringmat.mat_mul(
                mv.transporter, lift(model.prime.ring,
                                     model.bases[mv.target_type])),
                model.prime)


@pytest.mark.parametrize("name", ["pgl2", "oq", "su"])
def test_back_moves_lead_back_to_the_base(request, name, lift):
    # the table is found from each type's seed; from the vertex that any
    # move i of type t reaches, move back[t] returns to base[t], and it is
    # the only move that does
    model = request.getfixturevalue(name)
    back = bttree._back_moves(model)
    assert set(back) == set(model.bases)
    for t in model.bases:
        for mv in model.moves(t):
            home = [k for k, m in enumerate(model.moves(mv.target_type))
                    if canon(ringmat.mat_mul(
                        mv.transporter, lift(model.prime.ring, m.vertex)),
                        model.prime)
                    == model.bases[t]]
            assert home == [back[t]]


@pytest.mark.parametrize("name, radius", [("pgl2", 5), ("oq", 3),
                                          ("su", 2)])
def test_bfs_explore_forms_each_edge_once(request, monkeypatch, name, radius):
    # past the back table (one inverse, product and canonical form per
    # type), one product and one canonical form per edge, the move back
    # to the parent never tried, and one frame per expanded vertex but the
    # base, none on the last layer; every product is on int rows, so no
    # matrix of ring elements is multiplied; vertices are int matrices, so
    # no ring element is hashed
    model = request.getfixturevalue(name)
    inner = len(bttree.bfs_explore(model, radius - 1).vertices)
    table = len(model.bases)
    calls = {"canonicalize": 0, "product_rows": 0, "mat_mul": 0,
             "__hash__": 0}
    for owner, attr in ((bttree, "canonicalize"), (ringmat, "product_rows"),
                        (ringmat, "mat_mul"), (rings.RingElt, "__hash__")):
        def counting(*args, _f=getattr(owner, attr), _attr=attr):
            calls[_attr] += 1
            return _f(*args)
        monkeypatch.setattr(owner, attr, counting)
    graph = bttree.bfs_explore(model, radius)
    edges = len(graph.edges)
    assert calls == {"canonicalize": table + edges,
                     "product_rows": table + edges + inner - 1,
                     "mat_mul": 0, "__hash__": 0}


def _pgl2_primes_below_50():
    """(ring spec, rational p, index) of every prime of Z below 50 and of
    every prime of O_7 of norm below 50: split, inert and ramified."""
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        out.append(("rational", p, 0))
        out.extend((7, p, i) for i, prime in enumerate(
            factor_rational_prime(make_ring(7), p)) if prime.norm() < 50)
    return out


@pytest.mark.parametrize("spec, p, i", _pgl2_primes_below_50(),
                         ids=lambda v: str(v))
def test_bfs_explore_matches_the_ringelt_walk_on_pgl2(ringelt_explore, spec,
                                                      p, i):
    prime = factor_rational_prime(make_ring(spec), p)[i]
    model = bttree.pgl2_model(prime.ring, prime)
    assert bttree.bfs_explore(model, 2) == ringelt_explore(model, 2)


@pytest.mark.parametrize("name, radius", [("oq", 3), ("su", 2)])
def test_bfs_explore_matches_the_ringelt_walk(request, ringelt_explore, name,
                                              radius):
    model = request.getfixturevalue(name)
    assert bttree.bfs_explore(model, radius) == ringelt_explore(model, radius)


def test_back_moves_refuse_a_model_without_one_way_back(oq):
    moves = {t: list(oq.moves(t)) for t in oq.bases}
    gone = bttree._back_moves(oq)["x0"]
    for xhalf in ([m for k, m in enumerate(moves["xhalf"]) if k != gone],
                  moves["xhalf"] + moves["xhalf"]):
        broken = bttree.TreeModel(oq.prime, oq.bases,
                                  {"x0": moves["x0"], "xhalf": xhalf},
                                  oq.name, oq.swap, oq.stab_mid,
                                  oq.mid_action, oq.form, oq.form_kind)
        with pytest.raises(AssertionError, match="lead back"):
            bttree.bfs_explore(broken, 1)


def test_exports(pgl2, tmp_path):
    g = bttree.bfs_explore(pgl2, 2)
    dot = g.to_dot()
    assert dot.startswith("graph tree {") and "--" in dot
    payload = g.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert len(back["vertices"]) == len(g.vertices)
    assert all(len(e) == 2 for e in back["edges"])


def test_frames_carry_base_to_vertex(oq, framed_ball, lift):
    graph = bttree.bfs_explore(oq, 2)
    ball = framed_ball(oq, 2)
    assert [ball[v][0] for v in graph.vertices] == graph.types
    for v, (t, frame) in ball.items():
        assert canon(ringmat.mat_mul(frame, lift(oq.prime.ring, oq.bases[t])),
                     oq.prime) == v


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
    gens, _ = bttree._su_stab_gens(ring, prime)
    # after the torus unit, each upper u(x, y) is followed by its lower
    uppers = gens[1::2]
    expected = []
    z, one = ring.zeta(), ring.one
    pi = z - one
    for x in (one, z, pi, pi * z, pi * z ** 2):
        y = _box_solve_trace(ring, -(x * x.conj()), prime)
        if y is not None:
            expected.append((x, y))
    assert len(expected) > 0
    assert [(u[1][2], u[0][2]) for u in uppers] == expected
    assert len(set(gens)) == len(gens)
