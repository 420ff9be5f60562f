import pytest

from congtower import congsub, coset, homology
from congtower.errors import BudgetExceeded
from congtower.presentations import Presentation, parse_presentation
from congtower.rings import factor_rational_prime, make_ring


def test_cyclic_group():
    p = parse_presentation("gens a; rels a^3;")
    t = coset.coset_enumerate(p)
    assert t.index == 3
    assert t.validate()


def test_symmetric_group_coxeter():
    p = parse_presentation("gens a, b; rels a^2, b^2, (a*b)^3;")
    t = coset.coset_enumerate(p)
    assert t.index == 6
    sub = coset.coset_enumerate(p, [(1,)])
    assert sub.index == 3


def test_budget_exceeded_reports_limit():
    # Z has infinite index over the trivial subgroup; the cap must trip
    p = parse_presentation("gens a; rels;")
    with pytest.raises(BudgetExceeded):
        coset.coset_enumerate(p, max_cosets=50)


def test_enumeration_deterministic():
    p = parse_presentation(
        "gens a, b; rels a^4, b^2, (a*b)^2;")
    t1 = coset.coset_enumerate(p)
    t2 = coset.coset_enumerate(p)
    assert t1.rows == t2.rows


def test_table_invariants_traced():
    p = parse_presentation("gens a, b; rels a^2, b^3, (a*b)^5;")  # A5 x ...
    t = coset.coset_enumerate(p, [(1,), (2,)])
    for c in range(t.index):
        for rel in p.relators:
            assert t.trace(c, rel) == c
    for w in t.subgroup_words:
        assert t.trace(0, w) == 0


def test_schreier_generator_count():
    # index * (ngens - 1) + 1 before simplification
    p = parse_presentation("gens a, b; rels a^2, b^2, (a*b)^4;")
    t = coset.coset_enumerate(p, [(1,)])
    gens, _ = coset.schreier_generators(t)
    assert len(gens) == t.index * (p.ngens - 1) + 1


def test_rs_free_subgroup():
    # kernel of F2 -> Z/2 is free of rank 3 (Nielsen-Schreier)
    p = parse_presentation("gens a, b; rels;")
    t = coset.table_from_permutations(p, [(1, 0), (0, 1)])
    sub, gen_words = coset.reidemeister_schreier(p, t)
    assert sub.ngens == 3
    assert len(sub.relators) == 0
    # subgroup generator words stabilize coset 0
    for w in gen_words:
        assert t.trace(0, w) == 0


def test_rs_relator_count():
    p = parse_presentation("gens a; rels a^6;")
    t = coset.coset_enumerate(p, [(1, 1)])   # index 2, subgroup <a^2>
    assert t.index == 2
    sub, _ = coset.reidemeister_schreier(p, t)
    inv = sub.abelianization()
    assert inv.free_rank == 0 and inv.torsion == (3,)


def test_kernel_index_matches_image_order(gaussian_prime2, sl2_lift):
    pres, mats = sl2_lift(1)
    hom = congsub.ReductionHom(pres, mats, gaussian_prime2, 1)
    assert hom.order == 6
    table = coset.table_from_permutations(pres, hom.permutations())
    assert table.index == hom.order
    # independent Todd-Coxeter cross-check using kernel generator words
    sub, gen_words = coset.reidemeister_schreier(pres, table)
    t2 = coset.coset_enumerate(pres, gen_words, max_cosets=10_000)
    assert t2.index == 6


def test_kernel_index_120_todd_coxeter_cross_check(sl2_lift):
    # norm-5 congruence kernel: enumeration agrees with the image order
    pres, mats = sl2_lift(1)
    prime = factor_rational_prime(make_ring(1), 5)[0]
    hom = congsub.ReductionHom(pres, mats, prime, 1)
    assert hom.order == 120
    table = coset.table_from_permutations(pres, hom.permutations())
    _, gen_words = coset.reidemeister_schreier(pres, table)
    t2 = coset.coset_enumerate(pres, gen_words, max_cosets=100_000)
    assert t2.index == 120


def _reversed_generators(pres, table):
    """The presentation with its generators in reverse order, the letter
    map that carries its words back, and the table rebuilt from the
    generators' permutations, reordered to match."""
    n = pres.ngens

    def back(word):
        return tuple((n + 1 - abs(l)) * (1 if l > 0 else -1) for l in word)

    rev = Presentation(pres.generators[::-1],
                       tuple(back(r) for r in pres.relators))
    perms = [tuple(row[2 * g] for row in table.rows) for g in range(n)]
    return rev, back, coset.table_from_permutations(rev, perms[::-1])


def test_transversal_strategies_differ_but_agree(sl2_lift):
    # the shortlex tree of the same subgroup under the reversed generator
    # order is another spanning tree, with the same abelianization
    pres, mats = sl2_lift(1)
    ring = make_ring(1)
    subgroups = []
    for p in (2, 5):
        prime = factor_rational_prime(ring, p)[0]
        hom = congsub.ReductionHom(pres, mats, prime, 1)
        subgroups.append(coset.table_from_permutations(pres, hom.permutations()))
    # the cosets of <a> in D4 form a path of involutions, which has one
    # spanning tree under either order
    q = parse_presentation("gens a, b; rels a^2, b^2, (a*b)^4;")
    subgroups.append(coset.coset_enumerate(q, [(1,)]))
    tested = 0
    for table, differ in zip(subgroups, (True, True, False)):
        pres_here = table.pres
        rev, back, rev_table = _reversed_generators(pres_here, table)
        assert rev_table.index == table.index
        sub1, _ = coset.reidemeister_schreier(pres_here, table)
        sub2, _ = coset.reidemeister_schreier(rev, rev_table)
        t1, _tree1 = coset.schreier_transversal(table)
        t2, _tree2 = coset.schreier_transversal(rev_table)
        # a transversal is fixed by its set of words: each word names the
        # coset it traces to
        t2_back = {back(w) for w in t2}
        assert {table.trace(0, w) for w in t2_back} == set(range(table.index))
        assert (set(t1) != t2_back) == differ
        assert sub1.abelianization() == sub2.abelianization()
        tested += 1
    assert tested == 3


def test_standardized_tables_are_bfs_ordered():
    p = parse_presentation("gens a, b; rels a^3, b^3, (a*b)^2;")
    t = coset.coset_enumerate(p, [(1,)])
    seen = {0}
    hi = 0
    for c in range(t.index):
        for x in range(t.nletters):
            d = t.rows[c][x]
            assert d is not None
            if d not in seen:
                assert d == hi + 1  # new cosets appear in numeric order
                hi = d
                seen.add(d)
