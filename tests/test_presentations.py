import pytest
from hypothesis import given, settings, strategies as st

from congtower.errors import InputError
from congtower.presentations import (
    Presentation, cyclic_reduce, free_reduce, inverse_word,
    parse_presentation, tietze_simplify, word_to_string,
)


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


def test_roundtrip_serialization():
    p = parse_presentation("gens a, b; rels a^3, [a,b], (a*b)^2;")
    q = parse_presentation(p.to_text())
    assert q.generators == p.generators
    assert q.relators == p.relators


def test_word_to_string():
    assert word_to_string((1, 1, -2), ("a", "b")) == "a^2*b^-1"
    assert word_to_string((), ("a",)) == "1"


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


def test_tietze_preserves_abelianization_and_length():
    text = """gens a, b, u, j;
    rels (a*b)^3*j^-1, b^2*j^-1, j^2, [a,u], (b*u*b*u^-1)^3,
         (b*u^2*b*u^-1)^2*j^-1, (a*u*b*a*u^-1*b)^2*j^-1, [a,j], [u,j];"""
    p = parse_presentation(text)
    q = tietze_simplify(p)
    assert q.abelianization() == p.abelianization()
    assert q.total_length() <= p.total_length()


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
        assert q.total_length() <= p.total_length()


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


@st.composite
def presentations(draw):
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}",
                                        fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    letters = st.integers(1, len(names)).flatmap(
        lambda k: st.sampled_from([k, -k]))
    relators = draw(st.lists(
        st.lists(letters, max_size=8).map(free_reduce).filter(bool),
        max_size=5))
    # provenance lines survive the round trip only without surrounding
    # whitespace
    lines = draw(st.lists(st.text(alphabet="abc xyz:;.,()#-012", max_size=12)
                          .map(str.strip), max_size=3))
    return Presentation(tuple(names), tuple(relators),
                        provenance="\n".join(lines))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations())
def test_to_text_round_trips(pres):
    assert parse_presentation(pres.to_text()) == pres
