"""The congruence-kernel homology pipeline for Bianchi-type groups.

For a presentation of PSL2 over an imaginary quadratic ring together with
exact generator matrices, computes for each prime ideal p the abelian
invariants of the level-p congruence kernel Gamma(p) of SL2:

    reduction hom -> finite image (closure) -> coset action table ->
    Reidemeister-Schreier presentation -> Smith normal form.

Off 2, -Id is not congruent to Id mod p, so Gamma(p) maps isomorphically
onto the level-p kernel of PSL2 and the row is computed on the PSL2 image,
half the size of the SL2 one.  Over 2 the row needs SL2 itself, presented
by the central lift of the same PSL2 presentation.

The closure lists the image identity first, then in BFS order, and its
recorded right action is the coset table: no product is formed twice.

Presentations are data: the PSL2(Z[i]) one is bundled (classical); the
others carry their provenance.  A presentation meets its generator
matrices once, in a ``congsub.Realization``, which evaluates every
relator exactly; each kernel is computed from it with no evaluation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .errors import BudgetExceeded, InputError
from . import catalog, congsub, coset, ringmat
from .presentations import Presentation, load_presentation
from .rings import _is_small_prime, factor_rational_prime, make_ring

DATA_ENV_VAR = "CONGTOWER_DATA_DIR"


def data_dir():
    """The directory of the bundled presentations: ``CONGTOWER_DATA_DIR``
    when it is set, else the package's ``data``."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return override
    return str(resources.files("congtower") / "data")


def presentation_path(name):
    return os.path.join(data_dir(), "presentations", name)


def bundled_presentation(name):
    path = presentation_path(name)
    if not os.path.exists(path):
        raise InputError("presentation data file %s not found" % path)
    return load_presentation(path)


# ---------------------------------------------------------------------------
# kernel invariants for one prime


@dataclass
class HomologyRow:
    norm: int
    index: int
    invariants: object

    def as_dict(self):
        return {
            "norm": self.norm,
            "index": self.index,
            "rank": self.invariants.free_rank,
            "torsion": self.invariants.torsion_factorization(),
        }


def kernel_presentation(group, prime, k=1,
                        budget=congsub.CLOSURE_BUDGET_DEFAULT):
    """ker(G -> image mod p^k) for the group G of a ``congsub.Realization``,
    its image taken up to sign when the realization is projective:
    reduction hom -> coset table -> Reidemeister-Schreier.  Returns
    (image order, presentation, generator words)."""
    hom = congsub.ReductionHom(group, prime, k, budget=budget)
    table = coset.table_from_permutations(group.pres, hom.permutations())
    sub, gen_words = coset.reidemeister_schreier(group.pres, table)
    return hom.order, sub, gen_words


def sl2_image_order(norm):
    """|SL2(F_q)| = q (q^2 - 1)."""
    return norm * (norm * norm - 1)


def primes_up_to_norm(ring, norm_max):
    """The prime ideals of norm <= norm_max, one per conjugacy class,
    sorted by norm (then by lattice for determinism).

    The ring is imaginary quadratic, so the primes over p are one prime
    or a complex-conjugate pair: the first one stands for p."""
    out = []
    p = 2
    while p <= norm_max:
        if _is_small_prime(p):
            ideal = factor_rational_prime(ring, p)[0]
            if ideal.norm() <= norm_max:
                out.append(ideal)
        p += 1
    out.sort(key=lambda q: (q.norm(), q.power_lattice(1)))
    return out


PRESENTATION_FILES = {
    1: "psl2_d1.pres",
    2: "psl2_d2.pres",
    3: "psl2_d3.pres",
    7: "psl2_d7.pres",
    11: "psl2_d11.pres",
}


def load_generator_matrices(path):
    """Read an SL2 generator-matrices file,
    {"ring": tag, "scheme": {"kind": "SL2"}, "matrices": {name: rows}},
    the scheme block optional.  Returns (ring, 2x2 matrices by name)."""
    payload = ringmat.read_json_file(path)
    if not isinstance(payload, dict) or "ring" not in payload:
        raise InputError('%s: expected a JSON object with "ring" and '
                         '"matrices"' % path)
    named = payload.get("matrices")
    if not isinstance(named, dict) or not named:
        raise InputError('%s: "matrices" must map generator names to rows'
                         % path)
    if "scheme" in payload and payload["scheme"] != {"kind": "SL2"}:
        raise InputError('%s: "scheme" must be {"kind": "SL2"} or left out'
                         % path)
    ring = make_ring(payload["ring"])
    matrices = {name: ringmat.matrix_from_json(rows, ring)
                for name, rows in named.items()}
    if any(len(m) != 2 for m in matrices.values()):
        raise InputError("%s: generator matrices must be 2x2" % path)
    return ring, matrices


def psl2_realization(d, pres_file=None, matrices_file=None):
    """The ``congsub.Realization`` of the PSL2 presentation for O_d on its
    generator matrices.

    The bundled file for d unless a presentation file is given, which must
    carry provenance.  The generator name convention is a, b, u (and
    optional extras); matrices follow catalog.sl2_gen_matrices unless
    overridden by a generator-matrices file (--matrices, read by
    load_generator_matrices) keyed by generator name, which must give
    each generator of the presentation and no other name.  A generator
    whose matrix is +-Id is refused first: such a presentation already
    carries the centre, and its lift would present SL2 x Z/2.
    """
    ring = make_ring(d)
    if pres_file is None:
        pres = bundled_presentation(PRESENTATION_FILES[d])
    else:
        pres = load_presentation(pres_file)
        if not pres.provenance:
            raise InputError(
                "ingested presentation %s lacks a provenance comment"
                % pres_file)
    if matrices_file is not None:
        file_ring, named = load_generator_matrices(matrices_file)
        if file_ring != ring:
            raise InputError("matrices file is over a different ring")
        mats = []
        for gname in pres.generators:
            if gname not in named:
                raise InputError("matrices file has no entry for %r" % gname)
            mats.append(named[gname])
        extra = sorted(set(named) - set(pres.generators))
        if extra:
            raise InputError("matrices file has an entry for %r, which is "
                             "not a generator of the presentation" % extra[0])
    else:
        mats = _matrices_for(pres, ring)
    ident = ringmat.identity(ring, 2)
    for name, m in zip(pres.generators, mats):
        if m == ident or m == ringmat.mat_scale(ident, -1):
            raise InputError("generator %r has the matrix +-Id; a PSL2 "
                             "presentation is expected" % name)
    return congsub.Realization(pres, mats)


def central_lift(group):
    """The SL2 realization over a PSL2 one, with the central j = -Id
    adjoined as the last generator: each relator r that is -Id on the
    matrices becomes r j^-1, the others stay, and then j^2 and [x, j] for
    every generator x."""
    pres = group.pres
    j = pres.ngens + 1
    relators = [rel + (-j,) if sign < 0 else rel
                for rel, sign in zip(pres.relators, group.signs)]
    relators.append((j, j))
    relators += [(x, j, -x, -j) for x in range(1, j)]
    name = "j"
    while name in pres.generators:
        name += "_"
    ring = group.matrices[0][0][0].ring
    return congsub.Realization(
        Presentation(pres.generators + (name,), tuple(relators),
                     pres.provenance),
        group.matrices + (ringmat.mat_scale(ringmat.identity(ring, 2), -1),))


def _matrices_for(pres, ring):
    base = catalog.sl2_gen_matrices(ring)
    w = ring.gen()
    wbar = w.conj()
    known = dict(base)
    # the diagonal unit diag(w, wbar) (determinant N(w)); only a valid
    # generator when w is a unit (d=3)
    known["e"] = ((w, ring.zero), (ring.zero, wbar))
    mats = []
    for name in pres.generators:
        if name not in known:
            raise InputError("no builtin matrix for generator %r" % name)
        mats.append(known[name])
    return mats


def homology_table(d, norm_max, pres_file=None, matrices_file=None,
                   index_cap=50_000):
    """Rows (norm, rank, torsion) for prime ideals of O_d up to norm_max.

    A row's index is |SL2(F_q)|, q the prime's norm, known before the
    work: rows above index_cap are skipped with a reason.  Off 2 the row
    closes the PSL2 image, of order |SL2(F_q)| / 2; over 2 it closes the
    SL2 image of the central lift.  That order is the row's closure
    budget, so a closure past it, or an image of another order, means the
    presentation or the matrices are wrong.
    """
    ring = make_ring(d)
    psl2 = psl2_realization(d, pres_file, matrices_file)
    sl2 = central_lift(psl2)
    rows = []
    skipped = []
    for prime in primes_up_to_norm(ring, norm_max):
        index = sl2_image_order(prime.norm())
        if index > index_cap:
            skipped.append({
                "norm": prime.norm(),
                "reason": "index %d exceeds cap %d" % (index, index_cap),
            })
            continue
        # -Id = Id mod p exactly when p lies over 2
        if prime.p != 2:
            name, group, expected = "PSL2", psl2, index // 2
        else:
            name, group, expected = "SL2", sl2, index
        try:
            order, sub, _ = kernel_presentation(group, prime, budget=expected)
        except BudgetExceeded:
            order = "> %d" % expected
        if order != expected:
            raise InputError(
                "image order %s != |%s(F_%d)| = %d; presentation or matrices wrong"
                % (order, name, prime.norm(), expected))
        rows.append(HomologyRow(prime.norm(), index, sub.abelianization()))
    return rows, skipped


# ---------------------------------------------------------------------------
# the two-stage reflection-group pipeline


def coxeter_presentation():
    """The reflection presentation read off the diagram labels."""
    orders = catalog.coxeter_diagram_orders()
    relators = []
    for i in range(5):
        for j in range(i, 5):
            relators.append(((i + 1), (j + 1)) * orders[i][j])
    return Presentation(tuple("r%d" % (i + 1) for i in range(5)),
                        tuple(relators),
                        provenance="reflection presentation from the diagram "
                                   "labels; generators realized by the "
                                   "validated root reflections")


def o41_two_stage():
    """Reflection group -> Gamma(2) -> Gamma(4), abelianized.

    Stage 1 computes Gamma(2) as the mod-2 congruence kernel of the
    reflection group (index = mod-2 image order, computed by closure) and
    simplifies its presentation; stage 2 computes Gamma(4) as the mod-4
    kernel inside Gamma(2) (its matrices checked against the simplified
    relators) and abelianizes it.  Returns a report dict.
    """
    from .presentations import tietze_simplify

    prime = factor_rational_prime(make_ring("rational"), 2)[0]
    stage1 = congsub.Realization(coxeter_presentation(),
                                 catalog.o41_reflections())
    index2, sub2, gen_words2 = kernel_presentation(stage1, prime)
    simp2 = tietze_simplify(sub2)
    inv2 = simp2.abelianization()

    stage2 = congsub.Realization(
        simp2, [stage1.evaluate(gen_words2[int(nm[1:])])
                for nm in simp2.generators])
    index4, sub4, _ = kernel_presentation(stage2, prime, k=2)
    inv4 = sub4.abelianization()
    return {
        "index_gamma2": index2,
        "gamma2_generators": simp2.ngens,
        "gamma2_abelianization": str(inv2),
        "index_gamma4_in_gamma2": index4,
        "gamma4_abelianization": inv4,
    }


__all__ = [
    "kernel_presentation",
    "homology_table", "load_generator_matrices", "psl2_realization",
    "central_lift",
    "primes_up_to_norm", "sl2_image_order", "HomologyRow", "bundled_presentation", "data_dir",
    "DATA_ENV_VAR", "PRESENTATION_FILES", "coxeter_presentation",
    "o41_two_stage",
]
