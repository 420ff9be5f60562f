import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from congtower import catalog, congsub, homology
from congtower.errors import InputError
from congtower.presentations import (
    Presentation, cyclic_reduce, free_reduce, inverse_word,
    parse_presentation, tietze_simplify,
)
from congtower.rings import factor_rational_prime, make_ring


def test_free_and_cyclic_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert inverse_word((1, 2, -3)) == (3, -2, -1)


def test_parse_basic():
    p = parse_presentation("gens a, b; rels a^3, [a,b];")
    assert p.generators == ("a", "b")
    assert p.relators == ((1, 1, 1), (1, 2, -1, -2))


def test_parse_bianchi_style():
    text = """
    # a comment
    gens a, b, u, j;
    rels (a*b)^3*j^-1, b^2*j^-1, j^2, [a,u];
    """
    p = parse_presentation(text)
    assert p.ngens == 4
    assert p.relators[0] == (1, 2, 1, 2, 1, 2, -4)
    assert p.relators[1] == (2, 2, -4)


def test_parse_powers_and_nesting():
    p = parse_presentation("gens x, y; rels (x*y^-1)^2, ((x)^2*y)^-1;")
    assert p.relators[0] == (1, -2, 1, -2)
    assert p.relators[1] == (-2, -1, -1)


def test_parse_errors_have_location():
    with pytest.raises(InputError) as err:
        parse_presentation("gens a; rels (a;")
    assert "offset" in str(err.value)
    with pytest.raises(InputError):
        parse_presentation("gens a; rels b;")
    with pytest.raises(InputError):
        parse_presentation("gens a, a; rels;")
    with pytest.raises(InputError):
        parse_presentation("gens a; rels a^x;")


def test_provenance_collection():
    text = "# provenance: somewhere reliable\ngens a; rels a^2;"
    p = parse_presentation(text)
    assert p.provenance == "somewhere reliable"


def test_relator_validation():
    with pytest.raises(InputError):
        Presentation(("a",), ((2,),))
    with pytest.raises(InputError):
        Presentation(("a",), ((1, -1),))


def test_tietze_eliminates_trivial_generator():
    p = parse_presentation("gens a, b; rels a, a*b^3;")
    q = tietze_simplify(p)
    assert q.generators == ("b",)
    assert q.relators == ((2, 2, 2)[:0] + (1, 1, 1),)


def test_tietze_collapses_duplicates():
    p = parse_presentation("gens a, b; rels a*b, b^-1*a^-1, (a*b)^1;")
    q = tietze_simplify(p)
    # a*b and its inverse/rotations are one relator; then b = a^-1 eliminates
    assert q.ngens <= 1


def _total_length(pres):
    return sum(len(r) for r in pres.relators)


def test_tietze_preserves_abelianization_and_length():
    text = """gens a, b, u, j;
    rels (a*b)^3*j^-1, b^2*j^-1, j^2, [a,u], (b*u*b*u^-1)^3,
         (b*u^2*b*u^-1)^2*j^-1, (a*u*b*a*u^-1*b)^2*j^-1, [a,j], [u,j];"""
    p = parse_presentation(text)
    q = tietze_simplify(p)
    assert q.abelianization() == p.abelianization()
    assert _total_length(q) <= _total_length(p)


def test_tietze_preserves_abelianization_random(rng):
    for _ in range(25):
        ngens = rng.randint(2, 5)
        rels = []
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.choice([1, -1]) * rng.randint(1, ngens)
                      for _ in range(rng.randint(1, 8)))
            w = free_reduce(w)
            if w:
                rels.append(w)
        p = Presentation(tuple("g%d" % i for i in range(ngens)), tuple(rels))
        q = tietze_simplify(p)
        assert q.abelianization() == p.abelianization()
        assert _total_length(q) <= _total_length(p)


def test_abelianization_examples():
    p = parse_presentation("gens a, b; rels [a,b];")
    inv = p.abelianization()
    assert inv.free_rank == 2 and not inv.torsion
    p = parse_presentation("gens a; rels;")
    assert p.abelianization().free_rank == 1


def test_relation_matrix_sparse_rows():
    p = parse_presentation("gens a, b; rels [a,b], a^3*b^-1*a^-1, b^2;")
    assert p.relation_matrix() == [{}, {0: 2, 1: -1}, {1: 2}]
    assert str(p.abelianization()) == "Z/4"
    p = parse_presentation("gens a, b; rels [a,b];")
    assert p.relation_matrix() == [{}]
    assert str(p.abelianization()) == "Z^2"


def test_tietze_o41_gamma2_stage():
    # stage 1 of the two-stage pipeline: Gamma(2) of the o41 reflection
    # group, 481 Schreier generators, simplified to these 10
    prime = factor_rational_prime(make_ring("rational"), 2)[0]
    _, sub, _ = homology.kernel_presentation(
        congsub.Realization(homology.coxeter_presentation(),
                            catalog.o41_reflections()), prime)
    assert sub.ngens == 481
    q = tietze_simplify(sub)
    assert q.generators == ("s102", "s204", "s309", "s313", "s352", "s400",
                            "s427", "s455", "s469", "s479")
    assert len(q.relators) == 40 and _total_length(q) == 140
    digest = hashlib.sha256(repr((q.generators, q.relators)).encode())
    assert digest.hexdigest() == (
        "fba7f4b2f698f62a6d71d5cddd24ab3226fdfc2669a1cfb6a08342d48da938b3")


def _power(name, exp):
    return name if exp == 1 else "%s^%d" % (name, exp)


@st.composite
def presentation_texts(draw):
    """A presentation text, with the names, relators and provenance it
    must parse to."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}",
                                        fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    # a relator is a freely reduced list of powers of distinct neighbours
    powers = st.tuples(st.integers(0, len(names) - 1),
                       st.integers(-3, 3).filter(bool))
    relators, texts = [], []
    for syllables in draw(st.lists(st.lists(powers, min_size=1, max_size=4),
                                   max_size=5)):
        word = free_reduce(tuple(
            (k + 1 if e > 0 else -k - 1) for k, e in syllables
            for _ in range(abs(e))))
        if word:
            relators.append(word)
            texts.append("*".join(_power(names[k], e) for k, e in syllables))
    # provenance lines are compared after stripping their whitespace
    lines = draw(st.lists(st.text(alphabet="abc xyz:;.,()#-012", max_size=12)
                          .map(str.strip), max_size=3))
    text = "".join("# provenance: %s\n" % ln for ln in lines)
    text += "gens %s;\nrels %s;\n" % (", ".join(names), ", ".join(texts))
    return text, tuple(names), tuple(relators), "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentation_texts())
def test_parse_matches_drawn_text(drawn):
    text, names, relators, provenance = drawn
    pres = parse_presentation(text)
    assert pres.generators == names
    assert pres.relators == relators
    assert pres.provenance == provenance
