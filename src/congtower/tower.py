"""Congruence tower construction with machine-checkable certificates.

A tower is a sequence of conjugates Delta_n = T_n Gamma T_n^-1 of a fixed
congruence subgroup Gamma = Gamma(p^j), indexed by the type-x0 vertices of
the relevant tree in BFS order, T_n the frame carrying the base vertex to
vertex n.  Each tree model has one fixed list of swap moves w = h * swap,
h in the base stabilizer, worked out once per tower as ``bttree.Move``
records that carry w and its canonical vertex w base, an int matrix that
compares and hashes as a tuple of int tuples.  One breadth-first
walk over the swap moves, ``_walk``, gives both the tower's steps and its
covered radius.  A step is a source frame and a move, T_n = T_i w, so its
relative element T_i^-1 T_n is the move w itself, and one certificate per
move serves every step that uses it.  The certificate shows

    w^-1 (Id + pi^(2j) X) w  ==  Id  mod p^j    (entrywise, X free),

which by the congruence p-group lemma (verified by enumeration elsewhere)
makes Delta_i / (Delta_i intersect Delta_n) an abelian p-group -- the tower
criterion's condition (2).  Condition (1), cofinality, is not machine
checkable for the infinite tower; the report states the exhaustion radius
actually covered as a proxy.

Certificates are complete basis checks: the conjugation is affine in X,
so it need only give Id at X = 0, which is w^-1 w == Id, one exact
product, and be = Id mod p^b at each of the n^2 elementary matrices E_ij.
There the conjugate minus Id is the rank-one pi^a (w^-1 e_i)(e_j^t w),
whose entry (k, l) has valuation a + v(w^-1_ki) + v(w_jl), so every E_ij
passes exactly when a + min v(w^-1) + min v(w) >= b: 2 n^2 valuations.
The conjugation displays of ``identities`` are proved at the same basis
points.  The recheck at random points takes an independent route, the
kernel ``_Conjugation``: with G = d_g w, H = d_h w^-1 integral, D = d_g
d_h and w^-1 w == Id checked on them,

    w^-1 (Id + pi^a X) w - Id  =  pi^a (H X G) / D,

so each entry is one lattice membership of an int numerator of H X G,
at the level b - a + v_p(D).  H X G is integral for every integral X, so
at a level <= 0 the denominators decide every point and none is drawn:
so it is for every move of the magic and o41 towers, while the pu21
moves are tested at level 6.  The report checks each move a tower uses
once (h fixes the base, w keeps the form, the certificate is about w and
re-verifies at fresh random points) and each step by one exact product,
T_source w == T_n, and its vertex; every step citing a move gets the
move's outcome, a failure included.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from .errors import BudgetExceeded, CheckFailed, InputError
from . import bttree, catalog, coset, homology, ringmat
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
    # a + min v(g^-1) + min v(g), a lower bound on every valuation of
    # conj - Id; finite, as g and g^-1 each have a nonzero entry
    min_valuation: int

    def summary(self):
        nvars = len(self.conjugator) ** 2
        return {
            "a": self.inner_level,
            "b": self.outer_level,
            "direction": "left",
            "nvars": nvars,
            "min_valuation": self.min_valuation,
            # basis points decided exactly: X = 0 by the product w^-1 w,
            # each E_ij by the valuations of its rank-one conjugate
            "basis_checks": nvars + 1,
            # certify_containment raises on failure
            "pass": True,
        }


class _Conjugation:
    """X -> g^-1 (Id + pi^a X) g - Id at integer matrices X, on int
    numerators.  ``ringmat.numerators`` reads g and g^-1 as int matrices
    over one common denominator each, G = d_g g and H = d_h g^-1, with
    D = d_g d_h.  Once g^-1 g == Id, checked here exactly (it is the point
    X = 0),

        g^-1 (Id + pi^a X) g - Id  =  pi^a (H X G) / D,

    so entry (k, l) has valuation a + v(N_kl) - e v_p(D), N = H X G, and
    it is >= b exactly when N_kl lies in p^(b - a + e v_p(D)).  Raises
    CheckFailed if g^-1 g is not Id."""

    def __init__(self, g, prime, a):
        ring = g[0][0].ring
        n = len(g)
        self.ring, self.prime = ring, prime
        gs, d_g = ringmat.numerators(g)
        self._h_rows, d_h = ringmat.numerators(ringmat.mat_inverse(g))
        self.den = d_g * d_h
        # for each column l of G and coordinate c, the c-th coordinates
        # of G's column l: X G is integer combinations of them
        self._g_cols = [[tuple(row[l][c] for row in gs)
                         for c in range(ring.degree)] for l in range(n)]
        # v(pi^a N / D) = v(N) - shift
        self.shift = prime.valuation(ring(self.den)) - a
        zero = (0,) * ring.degree
        scaled_id = [[(self.den,) + zero[1:] if k == l else zero
                      for l in range(n)] for k in range(n)]
        ident = [[int(k == l) for l in range(n)] for k in range(n)]
        if self.numerators(ident) != scaled_id:
            raise CheckFailed("conjugating the identity does not give the identity")

    def numerators(self, x):
        """N = H X G for an n x n matrix x of ints: X G row by row as
        integer combinations of G's rows, then each entry one
        ``NumberRing.dot_coords``."""
        dot = self.ring.dot_coords
        cols = [[tuple(sum(map(operator.mul, xi, gc)) for gc in g_col)
                 for xi in x] for g_col in self._g_cols]
        return [[dot(h, col) for col in cols] for h in self._h_rows]

    def at_least(self, num, b):
        """Is the valuation of the entry with numerator num >= b?  One
        lattice membership; a level <= 0 asks nothing of an integral num."""
        return self.prime.numerator_at_least(num, b + self.shift)


def certify_containment(g, prime, a, b):
    """Certificate that  g^-1 Gamma(p^a) g  lies in the level-p^b congruence
    condition.

    X -> g^-1 (Id + pi^a X) g is affine in X and p^b is an ideal, so the
    containment holds for every integral X exactly when it holds at X = 0,
    where g^-1 g must be Id exactly, and at each elementary matrix E_ij,
    where entry (k, l) of the conjugate minus Id is pi^a g^-1_ki g_jl: all
    pass exactly when the valuation bound a + min v(g^-1) + min v(g) >= b
    holds.  Raises CheckFailed if g^-1 g is not Id, or with the first E_ij
    and entry (k, l) below b.
    """
    n = len(g)
    g_inv = ringmat.mat_inverse(g)
    if ringmat.mat_mul(g_inv, g) != ringmat.identity(g[0][0].ring, n):
        raise CheckFailed("conjugating the identity does not give the identity")
    v_inv = [[prime.valuation(x) for x in row] for row in g_inv]
    v_g = [[prime.valuation(x) for x in row] for row in g]
    min_val = a + min(map(min, v_inv)) + min(map(min, v_g))
    if min_val < b:
        # name the first entry below b: E_ij, then (k, l), row-major
        i, j, k, l = next(
            (i, j, k, l) for i, j, k, l in itertools.product(range(n),
                                                             repeat=4)
            if a + v_inv[k][i] + v_g[j][l] < b)
        entry = int(k == l) + (prime.uniformizer_power(a)
                               * g_inv[k][i] * g[j][l])
        raise CheckFailed(
            "at E_(%d,%d), entry (%d,%d) of the conjugate is "
            "%r, valuation %s < %d from the identity"
            % (i, j, k, l, entry, a + v_inv[k][i] + v_g[j][l], b))
    return ContainmentCertificate(
        conjugator=g, inner_level=a, outer_level=b, min_valuation=min_val)


# Recheck points have integer entries in [-_RECHECK_SPAN, _RECHECK_SPAN].
_RECHECK_SPAN = 10


def recheck_certificate(cert, prime, rng=None, points=100):
    """Re-verification at fresh random integer points X, apart from the
    basis points the certificate decided, by a route independent of it.

    Each point is evaluated by the conjugation kernel, pi^a (H X G) / D,
    and the level-b congruence asked as one lattice membership per entry
    of H X G, at the level b - a + v_p(D).  The kernel first checks
    w^-1 w == Id.  Then the denominators bound every point at once: H X G
    is integral, so each entry of pi^a (H X G) / D has valuation at least
    a - v_p(D), and at a level <= 0 every integral X passes without a
    point being drawn.  Returns the number of points the recheck stands
    for; raises CheckFailed on any failure.
    """
    rng = rng or random.Random(0)
    n = len(cert.conjugator)
    b = cert.outer_level
    conj = _Conjugation(cert.conjugator, prime, cert.inner_level)
    if b + conj.shift <= 0:
        return points
    for _ in range(points):
        x = [[rng.randrange(-_RECHECK_SPAN, _RECHECK_SPAN + 1)
              for _ in range(n)] for _ in range(n)]
        if not all(conj.at_least(num, b)
                   for row in conj.numerators(x) for num in row):
            raise CheckFailed("certificate fails at a random point")
    return points


# ---------------------------------------------------------------------------
# tower configuration per example


@dataclass
class TowerConfig:
    model_factory: object
    level_j: int              # Gamma = Gamma(p^j)
    torsion_check: object     # () -> (AbelianInvariants, mode, note)


def _magic_torsion():
    _, prime = catalog.magic_ring_and_prime()
    _, sub, _ = homology.kernel_presentation(homology.psl2_realization(7),
                                             prime)
    return sub.abelianization(), "computed", \
        "kernel of PSL2(O_7) -> PSL2(F_2) abelianized via Reidemeister-Schreier"


def _o41_torsion():
    return AbelianInvariants(55, ()), "declared", \
        "abelianization of the level-4 congruence subgroup of the integral " \
        "(4,1) orthogonal group (Z^55); recomputable via the two-stage " \
        "reflection-group pipeline (acceptance criterion 8 runs it)"


def _pu21_torsion():
    return AbelianInvariants(60, ()), "declared", \
        "abelianization of the level-p5^2 congruence subgroup of the " \
        "cocompact unitary lattice (Z^60); source data, not recomputed here"


TOWER_EXAMPLES = {
    "magic": TowerConfig(bttree.pgl2_model, level_j=1,
                         torsion_check=_magic_torsion),
    "o41": TowerConfig(bttree.oq_model, level_j=2,
                       torsion_check=_o41_torsion),
    "pu21": TowerConfig(bttree.su_model, level_j=2,
                        torsion_check=_pu21_torsion),
}


# ---------------------------------------------------------------------------
# tower steps


@dataclass
class TowerStep:
    conjugator: tuple         # frame T_n = T_source * moves[move].transporter
    vertex: tuple             # canonical T_n(base), an int matrix
    source_i: int
    move: object              # index into TowerData.moves; None at step 0


@dataclass
class TowerData:
    example: str
    config: TowerConfig
    model: object
    moves: list               # the model's swap moves, see _swap_moves
    certificates: dict        # move index -> its containment certificate
    steps: list
    torsion: tuple            # (invariants, mode, note)


def build_tower(example, steps):
    """Construct `steps` certified tower steps for a built-in example.

    Vertices are the type-x0 vertices of the tree in BFS order (step 0 is
    the base vertex with the identity frame); each later step is the next
    vertex of ``_walk``: its source's frame times one of the model's swap
    moves, with its source index and that move.  Each move used is
    certified once, at levels (2j, j).  ``tower_report`` checks the result.
    """
    if example not in TOWER_EXAMPLES:
        raise InputError("unknown tower example %r (have %s)"
                         % (example, ", ".join(sorted(TOWER_EXAMPLES))))
    cfg = TOWER_EXAMPLES[example]
    model = cfg.model_factory()
    prime = model.prime
    base = model.bases[model.base_type]
    j = cfg.level_j
    moves = _swap_moves(model)
    certs = {}
    tower_steps = [TowerStep(ringmat.identity(prime.ring, len(base)), base,
                             0, None)]
    for vertex, source_i, k, _, frame in itertools.islice(
            _walk(model, moves), steps):
        if k not in certs:
            certs[k] = certify_containment(moves[k].transporter, prime,
                                           2 * j, j)
        tower_steps.append(TowerStep(ringmat.from_numerators(prime.ring,
                                                             *frame),
                                     vertex, source_i, k))
    if len(tower_steps) <= steps:
        raise BudgetExceeded("ran out of reachable vertices",
                             estimate=len(tower_steps), budget=steps)
    return TowerData(example, cfg, model, moves, certs, tower_steps,
                     cfg.torsion_check())


def _walk(model, moves):
    """The base-type vertices after the base, breadth-first by the swap
    moves: (vertex, source index, move index, source depth, frame) for
    each vertex when first reached, the base being index 0 and each later
    vertex the next index.  A frame T maps the class of w base to that of
    T w base, so the vertex is canonicalize(T_source * mv.vertex) and its
    frame T_source * mv.transporter; the base's frame is the identity, so
    from the base they are mv.vertex and mv.transporter themselves.  A
    frame is kept as ``ringmat.numerators`` gives it, int rows over a
    denominator, and both products are taken on int numerators, with each
    move's vertex columns and transporter numerators read once per walk;
    no ring element is built, and vertices hash as int tuples."""
    prime = model.prime
    ring = prime.ring
    vertex_columns = [list(zip(*mv.vertex)) for mv in moves]
    transporters = [ringmat.numerators(mv.transporter) for mv in moves]
    transporter_columns = [list(zip(*rows)) for rows, _ in transporters]
    queue = [(None, 0)]         # (frame, depth); the base's frame is None
    seen = {model.bases[model.base_type]}
    for i, (src, depth) in enumerate(queue):    # the queue grows as walked
        for k, mv in enumerate(moves):
            vertex = mv.vertex if src is None else bttree.canonicalize(
                ringmat.product_rows(ring, vertex_columns[k], src[0]), prime)
            if vertex not in seen:
                seen.add(vertex)
                frame = (transporters[k] if src is None
                         else ringmat.lowest_terms(
                             ringmat.product_rows(ring, src[0],
                                                  transporter_columns[k]),
                             src[1] * transporters[k][1]))
                queue.append((frame, depth + 1))
                yield vertex, i, k, depth, frame


def _swap_moves(model):
    """The model's swap moves w = h * swap, h(base) = base, in candidate
    order, each a ``bttree.Move`` to the base type with its canonical
    vertex w base.  From a vertex with frame t, the step to t w has
    relative element w, and t h carries the base and the swap base to the
    source and the target.

    When the base moves land on the base type they are themselves the
    swap moves, with w built as (stabilizer word) * swap.  Otherwise a
    step goes through a midpoint: w = f sigma swap for each base move f
    and each move b of the midpoint in order, sigma the word in stab_mid
    that the Schreier tree of ``coset.orbit`` of (base, swap base) under
    ``mid_action`` gives for (base, b base), the base being neighbour 0.
    Each tree node on a path to some (0, b) forms its tail sigma swap
    once, stab_mid[k] times its parent's tail; the seed's is the swap.
    f sigma fixes the base.  The move back to the base has no word:
    (0, 0) is not in the orbit.
    """
    base_type = model.base_type
    base_moves = model.moves(base_type)
    if base_moves[0].target_type == base_type:
        return list(base_moves)
    perms = model.mid_action
    pairs, _, parents = coset.orbit(
        (0, perms[0][0]), perms,
        lambda key, perm: (perm[key[0]], perm[key[1]]), len(perms[0]) ** 2)
    tails = {0: model.swap}     # Schreier-tree node -> sigma swap

    def tail(i):
        if i not in tails:
            j, k = parents[i]
            tails[i] = ringmat.mat_mul(model.stab_mid[k], tail(j))
        return tails[i]

    aligned = [tail(i) for _, i in sorted(
        (b, i) for i, (a, b) in enumerate(pairs) if a == 0)]
    base = model.bases[base_type]
    out = []
    for f in base_moves:
        for sigma_swap in aligned:
            w = ringmat.mat_mul(f.transporter, sigma_swap)
            out.append(bttree.Move(base_type, w, bttree.canonical_image(
                w, base, model.prime)))
    return out


def _check_swap(model):
    """The canonical swap base, once swap^2 base = base is checked: the
    fact about the swap that every move uses.  Raises CheckFailed."""
    prime = model.prime
    base = model.bases[model.base_type]
    swap_base = bttree.canonical_image(model.swap, base, prime)
    if bttree.canonical_image(model.swap, swap_base, prime) != base:
        raise CheckFailed("the swap does not exchange the base vertex and "
                          "its image")
    return swap_base


def _check_move(tower, k, swap_base, rng, points):
    """The facts of move k that every step citing it uses, given the
    canonical swap base from ``_check_swap``.  h = w swap^-1 fixes the
    base (w swap base = base and swap^2 base = base), so h_n swap h_n^-1,
    h_n = T_i h, exchanges the vertices of steps i and n; w preserves the
    form, so every frame does, by induction over exact products; the
    certificate is about w and rechecks at `points` fresh points.  Returns
    the number of points rechecked; raises CheckFailed."""
    model = tower.model
    prime = model.prime
    base = model.bases[model.base_type]
    w = tower.moves[k].transporter
    if bttree.canonical_image(w, swap_base, prime) != base:
        raise CheckFailed("move %d: w swap^-1 does not fix the base vertex" % k)
    if model.form is not None and not ringmat.preserves_form(
            w, model.form, model.form_kind):
        raise CheckFailed("move %d does not preserve the form" % k)
    cert = tower.certificates[k]
    if cert.conjugator != w:
        raise CheckFailed("move %d: certificate is not about this move" % k)
    return recheck_certificate(cert, prime, rng=rng, points=points)


def _check_step(tower, n, step):
    """Step 0 has the identity frame; step n > 0 has an earlier source and
    the frame T_source * w, exactly.  The frame carries the base vertex to
    the step's vertex.  Raises CheckFailed."""
    model = tower.model
    prime = model.prime
    base = model.bases[model.base_type]
    if step.move is None:
        frame = ringmat.identity(prime.ring, len(base))
        ok = n == 0
    else:
        frame = ringmat.mat_mul(tower.steps[step.source_i].conjugator,
                                tower.moves[step.move].transporter)
        ok = step.source_i < n
    if not (ok and frame == step.conjugator):
        raise CheckFailed("step %d: frame is not its source's frame times "
                          "its move" % n)
    if bttree.canonical_image(step.conjugator, base, prime) != step.vertex:
        raise CheckFailed("step %d: frame does not carry the base vertex"
                          % n)


# ---------------------------------------------------------------------------
# reports


def covered_radius(tower):
    """Largest r such that every type-x0 vertex within r swap-steps of the
    base is among the tower's vertices (the cofinality proxy): the source
    depth of the first vertex of ``_walk`` outside the tower, 0 if there
    are no moves."""
    visited = {s.vertex for s in tower.steps}
    return next((depth for vertex, _, _, depth, _ in _walk(tower.model,
                                                           tower.moves)
                 if vertex not in visited), 0)


def tower_report(tower, recheck_points=100, rng_seed=2024):
    """Verdict + evidence for a constructed tower.

    PASS requires: the no-p-torsion hypothesis holds for the base group's
    abelianization; the swap passes ``_check_swap`` (once per report) and
    every move a step cites passes ``_check_move`` (once per move, its
    outcome shared by the steps citing it); every step passes
    ``_check_step``.  The cofinality radius is a proxy (vertex exhaustion),
    reported as such.
    """
    cfg = tower.config
    p = tower.model.prime.p
    inv, mode, note = tower.torsion
    rng = random.Random(rng_seed)
    failures = []
    if inv.has_p_torsion(p):
        failures.append({"step": None, "reason": "base group has p-torsion"})
    # move index -> the points rechecked, or the CheckFailed
    outcome = {}
    swap_base = None
    if len(tower.steps) > 1:
        try:
            swap_base = _check_swap(tower.model)
        except CheckFailed as exc:
            # every move rests on the swap, so every move fails with it
            outcome = dict.fromkeys(range(len(tower.moves)), exc)
    steps_json = []
    for n, step in enumerate(tower.steps):
        entry = {
            "n": n,
            "source_i": step.source_i,
            "vertex": bttree.vertex_strings(tower.model.prime.ring,
                                            step.vertex),
            "g": [[str(x) for x in row] for row in step.conjugator],
        }
        if step.move is not None:
            entry["certificate"] = tower.certificates[step.move].summary()
            entry["reverified"] = False
        try:
            _check_step(tower, n, step)
            if step.move is not None:
                if step.move not in outcome:
                    try:
                        outcome[step.move] = _check_move(
                            tower, step.move, swap_base, rng, recheck_points)
                    except CheckFailed as exc:
                        outcome[step.move] = exc
                if isinstance(outcome[step.move], CheckFailed):
                    raise outcome[step.move]
                # with no points rechecked the verdict rests on the
                # complete certificate alone
                entry["reverified"] = outcome[step.move] > 0
        except CheckFailed as exc:
            failures.append({"step": n, "reason": str(exc)})
        steps_json.append(entry)
    ok = not failures
    radius = covered_radius(tower) if ok else 0
    report = {
        "example": tower.example,
        "p": p,
        "level_j": cfg.level_j,
        "certificate_levels": {"a": 2 * cfg.level_j, "b": cfg.level_j},
        "hypothesis": {
            "no_p_torsion": not inv.has_p_torsion(p),
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
    "build_tower", "tower_report", "covered_radius",
    "TOWER_EXAMPLES",
]
