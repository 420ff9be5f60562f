"""Congruence tower construction with machine-checkable certificates.

A tower is a sequence of conjugates Delta_n = T_n Gamma T_n^-1 of a fixed
congruence subgroup Gamma = Gamma(p^j), indexed by the type-x0 vertices of
the relevant tree in BFS order, T_n the frame carrying the base vertex to
vertex n.  For each step there is an earlier index i and a relative element
w = T_i^-1 T_n of the shape (base-stabilizer) * swap, and the step's
certificate shows

    w^-1 (Id + pi^(2j) X) w  ==  Id  mod p^j    (entrywise, X free),

which by the congruence p-group lemma (verified by enumeration elsewhere)
makes Delta_i / (Delta_i intersect Delta_n) an abelian p-group -- the tower
criterion's condition (2).  Condition (1), cofinality, is not machine
checkable for the infinite tower; the report states the exhaustion radius
actually covered as a proxy.

Certificates are complete basis checks: the conjugation is affine in X, so
it is computed exactly at X = 0, which must give Id, and at each of the n^2
elementary matrices E_ij, whose conjugates must be = Id mod p^j by
valuations.  Re-verification evaluates the conjugation at fresh random
integer points with the same plain matrix arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetExceeded, CheckFailed, InputError
from . import bttree, catalog, congsub, coset, homology, ringmat
from .intmat import AbelianInvariants


# ---------------------------------------------------------------------------
# containment certificates


@dataclass
class ContainmentCertificate:
    """Evidence that conjugating the generic level-p^a element by g lands in
    the level-p^b congruence condition (p-local valuations, entrywise)."""

    conjugator: tuple
    inner_level: int          # a: the level of the generic element
    outer_level: int          # b: the level certified after conjugation
    nvars: int
    min_valuation: object     # smallest valuation of conj - Id seen
    passed: bool

    def summary(self):
        return {
            "a": self.inner_level,
            "b": self.outer_level,
            "direction": "left",
            "nvars": self.nvars,
            "min_valuation": (None if self.min_valuation is math.inf
                              else int(self.min_valuation)),
            # exact conjugations made: X = 0 and each E_ij
            "basis_checks": self.nvars + 1,
            "pass": self.passed,
        }


def _conjugate_generic(g, g_inv, pi_a, x):
    """g^-1 (Id + pi^a X) g, exactly."""
    ring = g[0][0].ring
    n = len(g)
    generic = ringmat.mat_add(
        ringmat.identity(ring, n),
        tuple(tuple(x[i][j] * pi_a for j in range(n)) for i in range(n)))
    return ringmat.mat_mul(ringmat.mat_mul(g_inv, generic), g)


def certify_containment(g, prime, a, b):
    """Certificate that  g^-1 Gamma(p^a) g  lies in the level-p^b congruence
    condition.

    X -> g^-1 (Id + pi^a X) g is affine in X and p^b is an ideal, so the
    containment holds for every integral X exactly when it holds at X = 0
    and at each elementary matrix E_ij.  X = 0 must give Id exactly; each
    E_ij must give a matrix = Id mod p^b in the valuation sense.  Raises
    CheckFailed with the offending E_ij and entry if not.
    """
    ring = g[0][0].ring
    n = len(g)
    if len(prime.gens) != 1:
        raise InputError("certificates need a principal prime")
    pi_a = prime.gens[0] ** a
    g_inv = ringmat.mat_inverse(g)
    ident = ringmat.identity(ring, n)
    zero = [[ring.zero] * n for _ in range(n)]
    if not ringmat.mat_eq(_conjugate_generic(g, g_inv, pi_a, zero), ident):
        raise CheckFailed("conjugating the identity does not give the identity")
    min_val = math.inf
    for i in range(n):
        for j in range(n):
            e_ij = [row[:] for row in zero]
            e_ij[i][j] = ring.one
            conj = _conjugate_generic(g, g_inv, pi_a, e_ij)
            for k in range(n):
                for l in range(n):
                    v = prime.valuation(conj[k][l] - ident[k][l])
                    min_val = min(min_val, v)
                    if v < b:
                        raise CheckFailed(
                            "at E_(%d,%d), entry (%d,%d) of the conjugate is "
                            "%r, valuation %s < %d from the identity"
                            % (i, j, k, l, conj[k][l], v, b))
    return ContainmentCertificate(
        conjugator=g, inner_level=a, outer_level=b, nvars=n * n,
        min_valuation=min_val, passed=True)


def recheck_certificate(cert, prime, rng=None, points=100, span=10):
    """Independent numeric re-verification at fresh random integer points.

    Evaluates the conjugation with plain matrix arithmetic and checks the
    level-b congruence by valuations.  Returns the number of points
    checked; raises CheckFailed on any failure.
    """
    rng = rng or random.Random(0)
    g = cert.conjugator
    ring = g[0][0].ring
    n = len(g)
    pi_a = prime.gens[0] ** cert.inner_level
    g_inv = ringmat.mat_inverse(g)
    for _ in range(points):
        x = [[ring(rng.randrange(-span, span + 1)) for _ in range(n)]
             for _ in range(n)]
        conj = _conjugate_generic(g, g_inv, pi_a, x)
        if not ringmat.congruent_to_identity(conj, prime, cert.outer_level):
            raise CheckFailed("certificate fails at a random point")
    return points


# ---------------------------------------------------------------------------
# tower configuration per example


@dataclass
class TowerConfig:
    name: str
    model_factory: object
    prime_factory: object
    level_j: int              # Gamma = Gamma(p^j)
    p: int
    distance: int             # 1 (pgl2) or 2 (through a midpoint)
    torsion_check: object     # () -> (AbelianInvariants, mode, note)


def _magic_torsion():
    ring, prime = catalog.magic_ring_and_prime()
    name = "psl2_d7.pres"
    if homology.have_presentation(name):
        pres = homology.bundled_presentation(name)
        mats = homology._matrices_for(pres, ring)
        hom = congsub.ReductionHom(pres, mats, prime, 1, projective=True)
        table = coset.table_from_permutations(pres, hom.permutations())
        sub, _ = coset.reidemeister_schreier(pres, table)
        inv = sub.abelianization()
        return inv, "computed", \
            "kernel of PSL2(O_7) -> PSL2(F_2) abelianized via Reidemeister-Schreier"
    return AbelianInvariants(3, ()), "declared", \
        "H_1 of the norm-2 congruence kernel (3-chain link complement)"


def _o41_torsion():
    return AbelianInvariants(55, ()), "declared", \
        "abelianization of the level-4 congruence subgroup of the integral " \
        "(4,1) orthogonal group (Z^55); recomputable via the two-stage " \
        "reflection-group pipeline (acceptance criterion 8 runs it)"


def _pu21_torsion():
    return AbelianInvariants(60, ()), "declared", \
        "abelianization of the level-p5^2 congruence subgroup of the " \
        "cocompact unitary lattice (Z^60); source data, not recomputed here"


def _magic_prime():
    return catalog.magic_ring_and_prime()[1]


def _o41_prime():
    from .rings import make_ring, factor_rational_prime
    return factor_rational_prime(make_ring("rational"), 2)[0]


def _pu21_prime():
    return catalog.pu21_ring_and_prime()[1]


TOWER_EXAMPLES = {
    "magic": TowerConfig("magic", bttree.pgl2_model, _magic_prime,
                         level_j=1, p=2, distance=1,
                         torsion_check=_magic_torsion),
    "o41": TowerConfig("o41", bttree.oq_model, _o41_prime,
                       level_j=2, p=2, distance=2,
                       torsion_check=_o41_torsion),
    "pu21": TowerConfig("pu21", bttree.su_model, _pu21_prime,
                        level_j=2, p=5, distance=2,
                        torsion_check=_pu21_torsion),
}


# ---------------------------------------------------------------------------
# tower steps


@dataclass
class TowerStep:
    n: int
    conjugator: tuple         # frame T_n with T_n(base) = vertex
    vertex: tuple
    vertex_depth: int         # distance from the base in swap-steps
    source_i: int
    relative: tuple           # w = T_i^-1 T_n, the certified element
    swap_conjugate: tuple     # g_n = h_n swap h_n^-1 (the classical shape)
    certificate: object


@dataclass
class TowerData:
    example: str
    config: TowerConfig
    model: object
    prime: object
    steps: list
    torsion: tuple            # (invariants, mode, note)
    requested: int


def build_tower(example, steps):
    """Construct `steps` certified tower steps for a built-in example.

    Vertices are the type-x0 vertices of the tree in BFS order (step 0 is
    the base vertex with the identity conjugator); each later step records
    its source index, the relative conjugator, and a containment
    certificate at levels (2j, j).
    """
    if example not in TOWER_EXAMPLES:
        raise InputError("unknown tower example %r (have %s)"
                         % (example, ", ".join(sorted(TOWER_EXAMPLES))))
    cfg = TOWER_EXAMPLES[example]
    model = cfg.model_factory()
    prime = cfg.prime_factory()
    ctx = model.ctx
    ring = ctx.ring
    n = len(model.bases[model.base_type])
    ident = ringmat.identity(ring, n)
    base_type = model.base_type
    base = model.bases[base_type]
    j = cfg.level_j
    a, b = 2 * j, j

    tower_steps = [TowerStep(
        n=0, conjugator=ident, vertex=base, vertex_depth=0, source_i=0,
        relative=ident, swap_conjugate=ident, certificate=None)]
    index = {base: 0}
    queue = [0]
    head = 0
    while len(tower_steps) < steps + 1 and head < len(queue):
        i = queue[head]
        head += 1
        src = tower_steps[i]
        for cand in _swap_neighbors(model, cfg, src):
            vertex, t_n, h_n = cand
            if vertex in index:
                continue
            w = ringmat.mat_mul(ringmat.mat_inverse(src.conjugator), t_n)
            cert = certify_containment(w, prime, a, b)
            swap_conj = ringmat.mat_mul(
                ringmat.mat_mul(h_n, model.swap), ringmat.mat_inverse(h_n))
            step = TowerStep(
                n=len(tower_steps), conjugator=t_n, vertex=vertex,
                vertex_depth=src.vertex_depth + 1,
                source_i=i, relative=w, swap_conjugate=swap_conj,
                certificate=cert)
            _validate_step(model, cfg, step, tower_steps)
            index[vertex] = step.n
            tower_steps.append(step)
            queue.append(step.n)
            if len(tower_steps) == steps + 1:
                break
        if head >= len(queue) and len(tower_steps) < steps + 1:
            raise BudgetExceeded("ran out of reachable vertices",
                                 estimate=len(tower_steps), budget=steps)
    return TowerData(example, cfg, model, prime, tower_steps,
                     cfg.torsion_check(), steps)


def _swap_neighbors(model, cfg, src):
    """Candidate (vertex, frame, h) triples one swap-step from a source:
    h(base) = source vertex, h(swap base) = candidate, frame = h * swap."""
    ctx = model.ctx
    base_type = model.base_type
    base = model.bases[base_type]
    t_i = src.conjugator
    if cfg.distance == 1:
        for mv in model.moves(base_type):
            # moves were built as (stabilizer word) * swap
            s = ringmat.mat_mul(mv.transporter, ringmat.mat_inverse(model.swap))
            h = ringmat.mat_mul(t_i, s)
            t_n = ringmat.mat_mul(t_i, mv.transporter)
            vertex = bttree.canonicalize(ringmat.mat_mul(t_n, base), ctx)
            yield vertex, t_n, h
    else:
        mid_type = model.moves(base_type)[0].target_type
        for mv_mid in model.moves(base_type):
            f_m = ringmat.mat_mul(t_i, mv_mid.transporter)
            f_inv = ringmat.mat_inverse(f_m)
            u_i = bttree.canonicalize(ringmat.mat_mul(f_inv, src.vertex), ctx)
            for mv_b in model.moves(mid_type):
                t_cand = ringmat.mat_mul(f_m, mv_b.transporter)
                vertex = bttree.canonicalize(ringmat.mat_mul(t_cand, base), ctx)
                if vertex == src.vertex:
                    continue
                h = _align_pair(model, f_m, f_inv, u_i, vertex)
                if h is None:
                    continue
                t_n = ringmat.mat_mul(h, model.swap)
                yield vertex, t_n, h


# Longest stabilizer word the alignment search tries.
_ALIGN_DEPTH = 8


def _align_pair(model, f_m, f_inv, u_i, v_n):
    """h = f_m * sigma with sigma a word in the midpoint-base stabilizer,
    such that h(base) = v_i and h(swap base) = v_n; None if no word of
    length <= _ALIGN_DEPTH does it.  f_inv is f_m^-1 and u_i the canonical
    form of f_m^-1 v_i; both are fixed per midpoint."""
    target = (u_i, bttree.canonicalize(ringmat.mat_mul(f_inv, v_n), model.ctx))
    pairs = getattr(model, "_stab_pairs", None)
    if pairs is None:
        pairs = model._stab_pairs = _StabilizerPairs(model)
    sigma = pairs.word_for(target)
    return None if sigma is None else ringmat.mat_mul(f_m, sigma)


class _StabilizerPairs:
    """Breadth-first search over words s in the midpoint-base stabilizer,
    keyed by the vertex pair (s base, s swap base).

    The pairs do not depend on the vertices being aligned, so one search
    per tree model serves every alignment.  It is grown one whole level at
    a time, in generator order, only as far as a lookup needs, so each pair
    maps to the same first word a fresh search would return.
    """

    def __init__(self, model):
        self.ctx = model.ctx
        self.base = model.bases[model.base_type]
        self.swap_base = ringmat.mat_mul(model.swap, self.base)
        self.gens = _mid_stab_gens(model)
        ident = ringmat.identity(self.ctx.ring, len(self.base))
        self.first = {self._pair_of(ident): ident}
        self.frontier = [ident]
        self.level = 0

    def _pair_of(self, s):
        return (bttree.canonicalize(ringmat.mat_mul(s, self.base), self.ctx),
                bttree.canonicalize(ringmat.mat_mul(s, self.swap_base),
                                    self.ctx))

    def word_for(self, target):
        """The first word reaching the target pair within _ALIGN_DEPTH
        levels, or None."""
        while (target not in self.first and self.frontier
               and self.level < _ALIGN_DEPTH):
            nxt = []
            for s in self.frontier:
                for gen in self.gens:
                    s2 = ringmat.mat_mul(gen, s)
                    k2 = self._pair_of(s2)
                    if k2 not in self.first:
                        self.first[k2] = s2
                        nxt.append(s2)
            self.frontier = nxt
            self.level += 1
        return self.first.get(target)


def _mid_stab_gens(model):
    if hasattr(model, "stab_xhalf"):
        return model.stab_xhalf
    if hasattr(model, "stab_mid"):
        return model.stab_mid
    raise InputError("model has no midpoint stabilizer generators")


def _validate_step(model, cfg, step, tower_steps):
    ctx = model.ctx
    base = model.bases[model.base_type]
    # frame really lands on the vertex
    if bttree.canonicalize(
            ringmat.mat_mul(step.conjugator, base), ctx) != step.vertex:
        raise CheckFailed("step %d: frame does not carry the base vertex"
                          % step.n)
    # the certified relative element is bound to the exact conjugators:
    # any entry change in either frame breaks this equality
    src = tower_steps[step.source_i]
    recomputed = ringmat.mat_mul(
        ringmat.mat_inverse(src.conjugator), step.conjugator)
    if not ringmat.mat_eq(recomputed, step.relative):
        raise CheckFailed(
            "step %d: relative conjugator does not match the frames" % step.n)
    if step.certificate is not None and not ringmat.mat_eq(
            step.certificate.conjugator, step.relative):
        raise CheckFailed(
            "step %d: certificate is not about this step's conjugator" % step.n)
    # the swap conjugate exchanges source and target vertices
    g_n = step.swap_conjugate
    if bttree.canonicalize(
            ringmat.mat_mul(g_n, src.vertex), ctx) != step.vertex:
        raise CheckFailed("step %d: swap conjugate does not move source to target"
                          % step.n)
    if bttree.canonicalize(
            ringmat.mat_mul(g_n, step.vertex), ctx) != src.vertex:
        raise CheckFailed("step %d: swap conjugate does not move target to source"
                          % step.n)
    # form preservation where a form is attached to the model
    form = getattr(model, "form", None)
    if form is not None:
        kind = "hermitian" if model.name == "su-tree" else "bilinear"
        if not ringmat.preserves_form(step.conjugator, form, kind):
            raise CheckFailed("step %d: conjugator does not preserve the form"
                              % step.n)


# ---------------------------------------------------------------------------
# no-p-torsion and reports


def check_no_p_torsion(invariants, p):
    """True iff no torsion factor of the abelianization is a power of p."""
    return not invariants.has_p_torsion(p)


def covered_radius(tower):
    """Largest r such that every type-x0 vertex within r swap-steps of the
    base is among the tower's vertices (the cofinality proxy).  The search
    stops at the first vertex outside the tower."""
    model = tower.model
    cfg = tower.config
    visited = {s.vertex for s in tower.steps}
    radius = 0
    frontier = {tower.steps[0].vertex: tower.steps[0].conjugator}
    seen = set(frontier)
    while True:
        nxt = {}
        for v, frame in frontier.items():
            src = TowerStep(0, frame, v, 0, 0, None, None, None)
            for vertex, t_n, _h in _swap_neighbors(model, cfg, src):
                if vertex not in seen:
                    if vertex not in visited:
                        return radius
                    nxt[vertex] = t_n
                    seen.add(vertex)
        if not nxt:
            return radius
        radius += 1
        frontier = nxt


def tower_report(tower, recheck_points=100, rng_seed=2024, check_radius=True):
    """Verdict + evidence for a constructed tower.

    PASS requires: the no-p-torsion hypothesis holds for the base group's
    abelianization; every certificate passed and re-verifies at fresh
    random points; every step's bookkeeping revalidates.  The cofinality
    radius is a proxy (vertex exhaustion), reported as such.
    """
    cfg = tower.config
    inv, mode, note = tower.torsion
    rng = random.Random(rng_seed)
    ok = True
    failures = []
    if not check_no_p_torsion(inv, cfg.p):
        ok = False
        failures.append({"step": None, "reason": "base group has p-torsion"})
    steps_json = []
    for step in tower.steps:
        entry = {
            "n": step.n,
            "source_i": step.source_i,
            "vertex": [[str(x) for x in row] for row in step.vertex],
            "g": [[str(x) for x in row] for row in step.conjugator],
        }
        if step.certificate is not None:
            entry["certificate"] = step.certificate.summary()
            try:
                _validate_step(tower.model, cfg, step, tower.steps)
                # with no points rechecked the verdict rests on the
                # complete certificate alone
                entry["reverified"] = recheck_certificate(
                    step.certificate, tower.prime,
                    rng=rng, points=recheck_points) > 0
            except CheckFailed as exc:
                ok = False
                entry["reverified"] = False
                failures.append({"step": step.n, "reason": str(exc)})
            if not step.certificate.passed:
                ok = False
                failures.append({"step": step.n, "reason": "certificate refused"})
        steps_json.append(entry)
    radius = covered_radius(tower) if (ok and check_radius) else 0
    report = {
        "example": tower.example,
        "p": cfg.p,
        "level_j": cfg.level_j,
        "certificate_levels": {"a": 2 * cfg.level_j, "b": cfg.level_j},
        "hypothesis": {
            "no_p_torsion": check_no_p_torsion(inv, cfg.p),
            "abelianization": str(inv),
            "mode": mode,
            "note": note,
        },
        "depends_on": "the congruence quotient p-group lemma, verified by "
                      "enumeration at small levels (see lemma22 checks)",
        "steps": steps_json,
        "cofinality_radius": radius,
        "cofinality_note": "vertex exhaustion up to the stated radius; true "
                           "cofinality of the infinite tower is not machine "
                           "checkable",
        "verdict": "PASS" if ok else "FAIL",
        "failures": failures,
    }
    return report


__all__ = [
    "ContainmentCertificate", "certify_containment", "recheck_certificate",
    "TowerStep", "TowerData", "TowerConfig",
    "build_tower", "tower_report", "check_no_p_torsion", "covered_radius",
    "TOWER_EXAMPLES",
]
