"""The congruence-kernel homology pipeline for Bianchi-type groups.

For a presentation of SL2 over an imaginary quadratic ring together with
exact generator matrices, computes for each prime ideal p the abelian
invariants of the level-p congruence kernel:

    reduction hom -> finite image (closure) -> coset action table ->
    Reidemeister-Schreier presentation -> Smith normal form.

The closure lists the image identity first, then in BFS order, and its
recorded right action is the coset table: no product is formed twice.

Presentations are data: the SL2(Z[i]) one is bundled (classical); the
others carry their provenance and are revalidated against the relator
matrices at load time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .errors import InputError
from . import catalog, congsub, coset, ringmat
from .presentations import Presentation, load_presentation, free_reduce
from .rings import make_ring, factor_rational_prime

DATA_ENV_VAR = "CONGTOWER_DATA_DIR"


def data_dir():
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


def have_presentation(name):
    return os.path.exists(presentation_path(name))


# ---------------------------------------------------------------------------
# SL2 lift of a PSL2 presentation


def sl2_lift(pres, matrices, ring):
    """Add the central -Id generator j to a PSL2 presentation.

    Each PSL2 relator w evaluates to +-Id on the matrices; those with -Id
    become w*j^-1.  New relators j^2 and [g, j] make j central of order 2.
    The lift is mechanical and verified: it raises if some relator matrix
    is not +-Id.
    """
    n = 2
    ident = ringmat.identity(ring, n)
    minus = ringmat.mat_scale(ident, -1)
    inverses = [ringmat.mat_inverse(m) for m in matrices]
    j_index = pres.ngens + 1
    relators = []
    for rel in pres.relators:
        val = congsub.evaluate_word(matrices, inverses, rel, ident)
        if ringmat.mat_eq(val, ident):
            relators.append(rel)
        elif ringmat.mat_eq(val, minus):
            relators.append(rel + (-j_index,))
        else:
            raise InputError(
                "relator %r is not +-Id on the matrices; not a PSL2 presentation"
                % (rel,))
    relators.append((j_index, j_index))
    for g in range(1, pres.ngens + 1):
        relators.append(free_reduce((g, j_index, -g, -j_index)))
    names = pres.generators + ("j",)
    mats = list(matrices) + [minus]
    prov = pres.provenance
    if prov:
        prov = prov + "\nlifted to SL2 by adjoining the central j = -Id"
    return Presentation(names, tuple(relators), provenance=prov), mats


# ---------------------------------------------------------------------------
# kernel invariants for one prime


@dataclass
class HomologyRow:
    norm: int
    index: int
    invariants: object
    prime: object

    def as_dict(self):
        return {
            "norm": self.norm,
            "index": self.index,
            "rank": self.invariants.free_rank,
            "torsion": self.invariants.torsion_factorization(),
        }


def kernel_presentation(pres, matrices, prime, k=1, projective=False,
                        budget=10 ** 7):
    """ker(G -> image mod p^k) for the presented group G: reduction hom
    (relators checked on the matrices) -> coset table -> Reidemeister-
    Schreier.  Returns (image order, presentation, generator words)."""
    hom = congsub.ReductionHom(pres, matrices, prime, k, budget=budget,
                               projective=projective)
    table = coset.table_from_permutations(pres, hom.permutations())
    sub, gen_words = coset.reidemeister_schreier(pres, table)
    return hom.order, sub, gen_words


def congruence_kernel_invariants(pres, matrices, prime, budget=10 ** 7):
    """Abelian invariants of ker(G -> image mod p) for the presented group."""
    order, sub, _ = kernel_presentation(pres, matrices, prime, budget=budget)
    return sub.abelianization(), order


def sl2_image_order(norm):
    """|SL2(F_q)| = q (q^2 - 1)."""
    return norm * (norm * norm - 1)


def conjugate_dedup(ideals):
    """One prime per conjugacy class, matching the table convention."""
    out = []
    seen = set()
    for ideal in ideals:
        key = ideal.power_lattice(1)
        if key in seen:
            continue
        ring = ideal.ring
        conj_gens = tuple(g.conj() for g in ideal.gens)
        conj_ideal = type(ideal)(ring, ideal.p, conj_gens, ideal.e, ideal.f)
        seen.add(key)
        seen.add(conj_ideal.power_lattice(1))
        out.append(ideal)
    return out


def primes_up_to_norm(ring, norm_max):
    """All prime ideals of norm <= norm_max, one per conjugacy class,
    sorted by norm (then by lattice for determinism)."""
    out = []
    p = 2
    while p <= norm_max:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            for ideal in conjugate_dedup(factor_rational_prime(ring, p)):
                if ideal.norm() <= norm_max:
                    out.append(ideal)
        p += 1
    out.sort(key=lambda q: (q.norm(), q.power_lattice(1)))
    return out


PRESENTATION_FILES = {
    1: "sl2_d1.pres",
    2: "sl2_d2.pres",
    3: "sl2_d3.pres",
    7: "sl2_d7.pres",
    11: "sl2_d11.pres",
}


def sl2_presentation_and_matrices(d, pres_file=None, matrices_file=None):
    """The SL2 presentation for O_d and its generator matrices.

    d=1 is bundled (its presentation is classical); other fields load from
    data files with provenance.
    The generator name convention is a, b, u (and optional extras), then j;
    matrices follow catalog.sl2_gen_matrices unless overridden by a scheme
    file (--matrices) keyed by generator name.
    """
    ring = make_ring(d)
    if pres_file is None:
        name = PRESENTATION_FILES.get(d)
        if name is None or not have_presentation(name):
            raise InputError(
                "no presentation data for d=%d (provide --presentation)" % d)
        pres = bundled_presentation(name)
    else:
        pres = load_presentation(pres_file)
        if not pres.provenance:
            raise InputError(
                "ingested presentation %s lacks a provenance comment"
                % pres_file)
    if matrices_file is not None:
        file_ring, _scheme, named = congsub.load_scheme_file(matrices_file)
        if file_ring != ring:
            raise InputError("matrices file is over a different ring")
        mats = []
        for gname in pres.generators:
            if gname not in named:
                raise InputError("matrices file has no entry for %r" % gname)
            mats.append(named[gname])
    else:
        mats = _matrices_for(pres, ring)
    return pres, mats


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
                   budget=10 ** 7, index_cap=50_000):
    """Rows (norm, rank, torsion) for prime ideals of O_d up to norm_max.

    Rows whose congruence image would exceed index_cap are skipped with a
    reason (research scale), mirroring the enumeration budget discipline.
    """
    ring = make_ring(d)
    pres, mats = sl2_presentation_and_matrices(d, pres_file, matrices_file)
    rows = []
    skipped = []
    for prime in primes_up_to_norm(ring, norm_max):
        expected = sl2_image_order(prime.norm())
        if expected > index_cap:
            skipped.append({
                "norm": prime.norm(),
                "reason": "index %d exceeds cap %d" % (expected, index_cap),
            })
            continue
        inv, order = congruence_kernel_invariants(pres, mats, prime,
                                                  budget=budget)
        if order != expected:
            raise InputError(
                "image order %d != |SL2(F_%d)| = %d; presentation or matrices wrong"
                % (order, prime.norm(), expected))
        rows.append(HomologyRow(prime.norm(), order, inv, prime))
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


def o41_two_stage(progress=None):
    """Reflection group -> Gamma(2) -> Gamma(4), abelianized.

    Stage 1 computes Gamma(2) as the mod-2 congruence kernel of the
    reflection group (index = mod-2 image order, computed by closure) and
    simplifies its presentation; stage 2 computes Gamma(4) as the mod-4
    kernel inside Gamma(2) (its matrices checked against the simplified
    relators) and abelianizes it.  Returns a report dict.
    """
    from .presentations import tietze_simplify

    def note(msg):
        if progress:
            progress(msg)

    ring = make_ring("rational")
    prime = factor_rational_prime(ring, 2)[0]
    pres = coxeter_presentation()
    mats = catalog.o41_reflections()
    index2, sub2, gen_words2 = kernel_presentation(pres, mats, prime)
    note("mod-2 image order %d" % index2)
    simp2 = tietze_simplify(sub2)
    note("Gamma(2) simplified to %d generators" % simp2.ngens)
    inv2 = simp2.abelianization()

    ident = ringmat.identity(ring, 5)
    inverses = [ringmat.mat_inverse(m) for m in mats]
    g2_mats = [
        congsub.evaluate_word(mats, inverses, gen_words2[int(nm[1:])], ident)
        for nm in simp2.generators
    ]
    index4, sub4, _ = kernel_presentation(simp2, g2_mats, prime, k=2)
    note("Gamma(2) mod 4 image order %d" % index4)
    note("Gamma(4) raw presentation: %d generators" % sub4.ngens)
    inv4 = sub4.abelianization()
    return {
        "index_gamma2": index2,
        "gamma2_generators": simp2.ngens,
        "gamma2_abelianization": str(inv2),
        "index_gamma4_in_gamma2": index4,
        "gamma4_abelianization": inv4,
    }


__all__ = [
    "sl2_lift", "kernel_presentation", "congruence_kernel_invariants",
    "homology_table", "sl2_presentation_and_matrices", "primes_up_to_norm",
    "conjugate_dedup", "sl2_image_order", "HomologyRow", "bundled_presentation", "data_dir",
    "DATA_ENV_VAR", "PRESENTATION_FILES", "coxeter_presentation",
    "o41_two_stage",
]
