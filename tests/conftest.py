import random

import pytest

from congtower import bttree, catalog, congsub, homology, ringmat
from congtower.rings import make_ring, factor_rational_prime


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
    """d -> the SL2 presentation of O_d and its generator matrices: the
    central lift of the bundled PSL2 presentation."""
    def lift(d):
        return homology.central_lift(
            *homology.psl2_presentation_and_matrices(d))
    return lift


@pytest.fixture(scope="session")
def zeta5_prime():
    return factor_rational_prime(make_ring("cyclotomic-5"), 5)[0]


@pytest.fixture(scope="session")
def framed_ball():
    """(model, radius) -> {vertex: (type, frame)} for the vertices within
    `radius` of the base, each frame its parent's times a move, as
    ``TreeModel.neighbors`` gives it."""
    def ball(model, radius):
        base = model.bases[model.base_type]
        out = {base: (model.base_type,
                      ringmat.identity(model.prime.ring, len(base)))}
        layer = list(out.items())
        for _ in range(radius):
            nxt = []
            for _v, (t, frame) in layer:
                for w, wt, g in model.neighbors(t, frame):
                    if w not in out:
                        out[w] = (wt, g)
                        nxt.append((w, (wt, g)))
            layer = nxt
        return out
    return ball


@pytest.fixture(scope="session")
def residue_orbit():
    """(R, gens, point, lines=False) -> the sorted orbit of a column vector
    over the residue ring R under generator matrices, by breadth-first
    search.  With lines=True the points are the lines the vectors span,
    each scaled so that its first nonzero coordinate is 1 (R a field)."""
    def image(R, g, v):
        return tuple(x for x, in congsub.rmat_mul(R, g, tuple((x,) for x in v)))

    def line(R, v):
        inv = R.inverse(next(x for x in v if x != R.zero))
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
    R = model.prime.residue(1)
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
