import random

import pytest

from congtower import ringmat
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
