"""Expression grammar: parsing, formatting, files, compact products."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from algforge.core import ArityError, Identity, Monomial, Polynomial, Variable, fold, format_monomial
from algforge.fixtures import BINARY, FIXTURES, TERNARY, data_text, _IDENTITY_FILES
from algforge.parsing import (
    ParseError,
    Signature,
    format_file,
    format_polynomial,
    parse,
    parse_file,
    parse_product,
)
from algforge.rightcomm import RCPolynomial, rc_expand, rc_straighten


SIG = Signature([TERNARY])


def test_parse_two_term_polynomial():
    p = parse("br(br(a,b,c),d,e) - br(a,b,br(c,d,e))", SIG)
    assert len(p.terms) == 2
    assert sorted(p.terms.values()) == [-1, 1]


def test_parse_coefficients_and_rationals():
    sig = Signature([BINARY])
    p = parse("2*mul(a,b) - 1/2*mul(b,a) + mul(a,b)", sig)
    vals = sorted(p.terms.values())
    assert vals == [-0.5, 3] or [str(v) for v in vals] == ["-1/2", "3"]


def test_parse_leading_sign_and_whitespace():
    sig = Signature([BINARY])
    assert parse(" - mul( a , b )", sig) == -parse("mul(a,b)", sig)
    assert parse("-1*y") == -parse("y")


def test_arity_error():
    with pytest.raises(ArityError):
        parse("br(a,b)", SIG)


def test_unknown_operation_and_syntax_errors_carry_position():
    with pytest.raises(ParseError):
        parse("qux(a,b)", SIG)
    with pytest.raises(ParseError) as err:
        parse("br(a,,b)", SIG)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("br(a,b,c) +", SIG)
    with pytest.raises(ParseError):
        parse("br(a,b,c) br(a,b,c)", SIG)


def test_variants_parse_and_format():
    sig = Signature()
    sig.declare_family("br", 3, 3)
    p = parse("br_1(a,b,c) + br_2(b,a,c)", sig)
    assert format_polynomial(p) == "br_1(a, b, c) + br_2(b, a, c)"


def test_format_parse_roundtrip_on_fixture_corpus():
    # format -> parse must reproduce every fixture polynomial exactly
    for rel in (*_IDENTITY_FILES, "identities/operators.txt"):
        sig, identities = parse_file(data_text(rel))
        for ident in identities:
            text = format_polynomial(ident.lhs)
            assert parse(text, sig) == ident.lhs, ident.name


def test_parse_format_canonicalizes():
    p1 = parse("br(a,b,c) - br(b,a,c) + br(a,b,c)", SIG)
    assert format_polynomial(p1) == "2*br(a, b, c) - br(b, a, c)"


def test_file_declarations_and_names():
    text = """# comment
op w/2 variants 2
op v/3
first: w_1(a,b) + w_2(b,a)
v(a,b,c) - v(b,a,c)
"""
    sig, idents = parse_file(text)
    assert [i.name for i in idents] == ["first", None]
    assert sig.lookup("w_1") is not None and sig.lookup("v") is not None
    from algforge.core import AlgebraError

    with pytest.raises(AlgebraError):
        parse_file("op bad/0\n")
    with pytest.raises(ParseError):
        parse_file("op bad\n")
    with pytest.raises(ParseError):
        parse_file("op w/2\nop w/3\n")  # conflicting redeclaration


def test_format_file_roundtrip():
    sig, idents = parse_file(data_text("identities/variant-triple.txt"))
    text = format_file(sig, idents)
    sig2, idents2 = parse_file(text)
    assert [i.lhs for i in idents] == [i.lhs for i in idents2]
    assert [i.name for i in idents] == [i.name for i in idents2]


def test_parse_product_juxtaposed_and_starred():
    m1 = parse_product("(((ab)c)d)e", BINARY)
    assert m1.leaf_names() == ("a", "b", "c", "d", "e")
    m2 = parse_product("(a*(b*c))*d", BINARY)
    assert m2.leaf_names() == ("a", "b", "c", "d")
    assert m2.children[1].is_leaf
    m3 = parse_product("x1*y2", BINARY)
    assert m3 == Monomial.apply(BINARY, [Monomial.leaf(Variable(n)) for n in ("x1", "y2")])
    m4 = parse_product("ab(cd)", BINARY)
    assert m4 == parse_product("((ab)(cd))", BINARY) == parse_product("(a*b)*(c*d)", BINARY)
    with pytest.raises(ParseError):
        parse_product("((ab)", BINARY)
    with pytest.raises(ParseError):
        parse_product("(a*(b*c))*d)", BINARY)


def test_parse_signed_products():
    p = parse("-(((ac)b)e)d + 2*(a(bc))e", product=BINARY)
    assert sorted(p.terms.values()) == [-1, 2]


@pytest.mark.parametrize("text", ["(ab)c - + (ba)c", "(ab)c -", "--(ab)c"])
def test_signed_products_reject_stray_signs(text):
    with pytest.raises(ParseError):
        parse(text, product=BINARY)


def test_signed_product_error_position_counts_from_the_whole_text():
    text = "(ab)c - (ba)c + (c1)a"
    with pytest.raises(ParseError) as err:
        parse(text, product=BINARY)
    assert err.value.pos == text.index("1")


def test_every_fixture_parses_and_is_canonical():
    assert len(FIXTURES) >= 50
    for name, ident in FIXTURES.items():
        assert isinstance(ident, Identity)
        assert not ident.lhs.is_zero, name


LEAF = st.sampled_from(["a", "b", "c", "x1", "y2"]).map(lambda n: Monomial.leaf(Variable(n)))
TREES = st.recursive(
    LEAF,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda args: Monomial.apply(BINARY, args)),
        st.tuples(sub, sub, sub).map(lambda args: Monomial.apply(TERNARY, args)),
    ),
    max_leaves=8,
)
COEFFS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(TREES, COEFFS, max_size=5))
@example(terms={})  # the zero polynomial prints as "0"
def test_format_then_parse_is_the_identity(terms):
    p = Polynomial(terms)
    assert parse(format_polynomial(p), [BINARY, TERNARY]) == p
    for m in p.terms:
        assert repr(m) == format_monomial(m).replace(", ", ",")


def _binary_trees(names, max_leaves):
    """Trees over ``mul`` whose leaves are drawn from ``names``."""
    return st.recursive(
        st.sampled_from(names).map(lambda n: Monomial.leaf(Variable(n))),
        lambda sub: st.tuples(sub, sub).map(lambda args: Monomial.apply(BINARY, args)),
        max_leaves=max_leaves,
    )


WORDS = _binary_trees("abcde", 5).map(rc_straighten)


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(WORDS, COEFFS, max_size=5))
@example(terms={})
def test_compact_print_then_parse_is_the_identity(terms):
    p = RCPolynomial(terms)
    assert rc_expand(parse(repr(p), product=BINARY)) == p


# a lone name has no '*' and reads as juxtaposed letters, so print products only
NAMED = _binary_trees(["x1", "y2", "ab", "foo"], 4)
NAMED_PRODUCTS = st.tuples(NAMED, NAMED).map(lambda args: Monomial.apply(BINARY, args))


@settings(max_examples=60, deadline=None)
@given(tree=NAMED_PRODUCTS)
def test_starred_print_then_parse_product_is_the_identity(tree):
    text = fold(tree, lambda v: v.name, lambda _, args: f"({args[0]}*{args[1]})")
    assert parse_product(text, BINARY) == tree
