"""Free Leibniz algebra: word products, tree expansions, identity checks."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge import core, leibniz
from algforge.consequence import enumerate_shapes
from algforge.core import (
    AlgebraError,
    Monomial,
    Polynomial,
    VariableClash,
    apply_op,
    form_tree,
    variables,
)
from algforge.fixtures import BINARY, TERNARY, fixture
from algforge.leibniz import (
    EXPANSION_LIMIT,
    ExpansionTooLarge,
    TensorPolynomial,
    expand_binary_tree,
    expand_ternary,
    free_product,
    holds_in_free,
)
from algforge.parsing import parse_product

from helpers import reference_expand, reference_free_product, typed_items

w = TensorPolynomial.word


def words(*texts):
    out = TensorPolynomial.zero()
    sign = 1
    for t in texts:
        if t == "-":
            sign = -1
            continue
        out = out + w(tuple(t)).scale(sign)
        sign = 1
    return out


def test_products_on_short_words():
    assert free_product(w("a"), w("b")) == w(("a", "b"))
    assert free_product(w(("a", "b")), w("c")) == w(("a", "b", "c"))
    assert free_product(w("a"), w(("b", "c"))) == w(("a", "b", "c")) - w(("a", "c", "b"))
    assert free_product(w(("a", "b")), w(("c", "d"))) == w(tuple("abcd")) - w(tuple("abdc"))


def test_quadruple_product_final_sign_positive():
    out = free_product(w("a"), w(("b", "c", "d")))
    expected = (
        w(tuple("abcd")) - w(tuple("acbd")) - w(tuple("adbc")) + w(tuple("adcb"))
    )
    assert out == expected


def test_quadruple_product_cross_check_through_low_degrees():
    # a.(bcd) computed only with degree <= 3 products: (a.bc).d - (a.d).bc
    direct = free_product(w("a"), w(("b", "c", "d")))
    indirect = free_product(free_product(w("a"), w(("b", "c"))), w("d")) - free_product(
        free_product(w("a"), w("d")), w(("b", "c")), check_disjoint=False
    )
    assert direct == indirect


def _rewrite_oracle(m: Monomial) -> TensorPolynomial:
    """Independent expander: rewrite x.(y.z) -> (x.y).z - (x.z).y to normal form."""
    if m.is_leaf:
        return w((m.var.name,))
    left, right = m.children
    if right.is_leaf:
        out = TensorPolynomial.zero()
        for word, c in _rewrite_oracle(left).terms.items():
            out = out + TensorPolynomial({word + (right.var.name,): c})
        return out
    y, z = right.children
    first = Monomial.apply(m.op, (Monomial.apply(m.op, (left, y)), z))
    second = Monomial.apply(m.op, (Monomial.apply(m.op, (left, z)), y))
    return _rewrite_oracle(first) - _rewrite_oracle(second)


def test_expand_binary_tree_against_rewrite_oracle():
    texts = [
        "(((ab)c)d)",
        "(ab)(cd)",
        "a(b(cd))",
        "(a(bc))d",
        "a((bc)d)",
        "((ab)(cd))e",
        "a((bc)(de))",
        "(ab)((cd)e)",
    ]
    for text in texts:
        m = parse_product(text, BINARY)
        assert expand_binary_tree(m) == _rewrite_oracle(m), text


def test_expand_binary_tree_examples():
    left_normalized = parse_product("(((ab)c)d)", BINARY)
    assert expand_binary_tree(left_normalized) == w(tuple("abcd"))
    pair = parse_product("(ab)(cd)", BINARY)
    assert expand_binary_tree(pair) == w(tuple("abcd")) - w(tuple("abdc"))
    nested = parse_product("a(b(cd))", BINARY)
    assert len(expand_binary_tree(nested).terms) == 4


def test_expand_ternary_proof_expansions():
    a, b, c, d, e = (
        Polynomial({Monomial.leaf(v): Fraction(1)}) for v in variables("abcde")
    )

    def br(x, y, z):
        return apply_op(TERNARY, [x, y, z])

    assert expand_ternary(br(br(a, b, c), d, e)) == w(tuple("abcde"))
    assert expand_ternary(br(a, b, br(c, d, e))) == words(
        "abcde", "-", "abdce", "-", "abecd", "abedc"
    )
    assert expand_ternary(br(a, br(b, c, d), e)) == words(
        "abcde", "-", "acbde", "-", "adbce", "adcbe"
    )


def test_holds_in_free():
    assert holds_in_free(fixture("lts-a"))
    assert holds_in_free(fixture("lts-b"))
    assert not holds_in_free(fixture("l1"))
    assert not holds_in_free(fixture("l2"))


def test_letter_clash_checked_in_multilinear_mode():
    with pytest.raises(VariableClash):
        free_product(w(("a", "b")), w(("b", "c")))
    # explicit opt-out allows repeated letters
    out = free_product(w(("a", "b")), w(("b", "c")), check_disjoint=False)
    assert not out.is_zero


def _random_word(rng, letters, length):
    picked = rng.sample(letters, length)
    return w(tuple(picked))


def test_leibniz_law_randomized():
    rng = random.Random(2024)
    letters = list("abcdefgh")
    for _ in range(200):
        nu = rng.randint(1, 3)
        nv = rng.randint(1, 2)
        nw = rng.randint(1, min(3, 6 - nu - nv))
        picked = rng.sample(letters, nu + nv + nw)
        u = w(tuple(picked[:nu]))
        v = w(tuple(picked[nu : nu + nv]))
        z = w(tuple(picked[nu + nv :]))
        lhs = free_product(u, free_product(v, z))
        rhs = free_product(free_product(u, v), z, check_disjoint=False) - free_product(
            free_product(u, z), v, check_disjoint=False
        )
        assert lhs == rhs


def test_right_anticommutativity():
    rng = random.Random(5)
    letters = list("abcdef")
    for _ in range(50):
        nu, nv, nw = 2, 1, 2
        picked = rng.sample(letters, nu + nv + nw)
        u = w(tuple(picked[:nu]))
        v = w(tuple(picked[nu : nu + nv]))
        z = w(tuple(picked[nu + nv :]))
        vw = free_product(v, z)
        wv = free_product(z, v)
        assert (
            free_product(u, vw) + free_product(u, wv)
        ).is_zero


def test_degree_additivity_and_word_count_bound():
    for nu, nv in [(1, 3), (2, 3), (3, 2), (1, 5)]:
        letters = "abcdefgh"
        u = w(tuple(letters[:nu]))
        v = w(tuple(letters[nu : nu + nv]))
        prod = free_product(u, v)
        assert {len(word) for word in prod.terms} == {nu + nv}
        assert len(prod.terms) <= 2 ** (nv - 1)


def test_expansion_linearity():
    m1 = parse_product("(ab)(cd)", BINARY)
    m2 = parse_product("(((ab)c)d)", BINARY)
    combo = Polynomial({m1: Fraction(2, 3), m2: Fraction(-1)})
    assert expand_binary_tree(combo) == expand_binary_tree(m1).scale(
        Fraction(2, 3)
    ) - expand_binary_tree(m2)


def test_expand_rejects_wrong_arity():
    with pytest.raises(AlgebraError):
        expand_binary_tree(next(iter(fixture("l1").lhs.terms)))
    with pytest.raises(AlgebraError):
        expand_ternary(next(iter(fixture("leibniz").lhs.terms)))


def test_word_requires_letters():
    with pytest.raises(AlgebraError):
        TensorPolynomial.word(())


@pytest.mark.parametrize("text", ["", " ", " , ", "\t"])
def test_a_blank_word_is_refused(text):
    with pytest.raises(AlgebraError, match="words must be nonempty"):
        TensorPolynomial.word(text)
    assert TensorPolynomial.word(f"{text}a b,c") == TensorPolynomial.word(("a", "b", "c"))


def test_a_string_word_reads_its_letters_as_variables_does():
    for text in ("abc", "a b c", "a,b,c", " a, b c "):
        word = TensorPolynomial.word(text)
        assert word == TensorPolynomial.word(v.name for v in variables(text)), text
        assert word == TensorPolynomial.word(("a", "b", "c")), text
    assert TensorPolynomial.word("x1 y2") == TensorPolynomial.word(("x1", "y2"))


def _right_comb(names):
    m = Monomial.leaf(names[-1])
    for v in reversed(names[:-1]):
        m = Monomial.apply(BINARY, (Monomial.leaf(v), m))
    return m


def test_a_40_letter_comb_is_counted_and_refused_without_expanding(monkeypatch):
    def no_product(*args, **kwargs):
        raise AssertionError("the expansion started")

    monkeypatch.setattr(leibniz, "_concat", no_product)
    message = r"^expansion too large: up to \d+ word terms, over 1000000$"
    # distinct letters, and one letter repeated: both fill the shape's table
    for names in ([f"x{i}" for i in range(40)], ["x"] * 40):
        comb = _right_comb(variables(names))
        assert comb.degree == 40
        with pytest.raises(ExpansionTooLarge, match=message):
            expand_binary_tree(comb)
        with pytest.raises(ExpansionTooLarge):
            expand_binary_tree(Polynomial({comb: 1}))


def test_the_largest_accepted_comb_has_20_letters():
    # one comb counts its bound on the words twice: once read, once filled
    def comb(n):
        return _right_comb(variables([f"x{i}" for i in range(n)]))

    assert leibniz._work(comb(20).shape_key()) == 2**18 and 2 * 2**18 <= EXPANSION_LIMIT
    assert leibniz._work(comb(21).shape_key()) == 2**19 and 2 * 2**19 > EXPANSION_LIMIT
    with pytest.raises(ExpansionTooLarge, match="up to 1048576 word terms"):
        expand_binary_tree(comb(21))


def test_two_combs_of_one_shape_are_counted_one_fill_and_expand_as_the_fold():
    # the two 12-letter right combs over the same letters in opposite orders
    # share a shape key, so one fill and two reads: 3 * 1,024
    names = variables([f"x{i}" for i in range(12)])
    p = Polynomial({_right_comb(names): 1, _right_comb(names[::-1]): 1})
    got = expand_binary_tree(p)
    assert got == reference_expand(p) and len(got.terms) == 2048
    mock_limit = mock.patch.object(leibniz, "EXPANSION_LIMIT", 3 * 1024 - 1)
    with mock_limit, pytest.raises(ExpansionTooLarge, match="up to 3072 word terms"):
        expand_binary_tree(p)


@pytest.mark.parametrize("op, degrees", [(BINARY, range(1, 7)), (TERNARY, (3, 5))])
def test_work_count_is_exact_on_multilinear_trees_and_bounds_the_rest(op, degrees, monkeypatch):
    # the terms each concatenation forms, one per pair of its factors' words.
    # The table cache is cleared before each tree, so every tree is counted
    # by the fill of its shape's table, which forms at most 2 (degree - 1)
    # times the bound; its words number the bound when its letters are
    # distinct, and merge below it when one repeats.
    counted = []
    concat = leibniz._concat

    def counting(out, x, y, scale=None):
        counted.append(len(x) * len(y))
        return concat(out, x, y, scale)

    monkeypatch.setattr(leibniz, "_concat", counting)
    for degree in degrees:
        for shape in enumerate_shapes([op], degree):
            for names, exact in (("abcdef", True), ("aabbab", False)):
                m = form_tree(shape, names[:degree])
                leibniz._table.cache_clear()
                counted.clear()
                words = leibniz._work(shape)
                got = leibniz._expand(m, op.arity)
                assert sum(counted) <= 2 * (degree - 1) * words, m
                if exact:
                    assert words == len(got.terms), m
                else:
                    assert words >= len(got.terms), m


def test_a_refused_or_mixed_arity_expansion_leaves_the_table_cache_as_it_was():
    expand_ternary(form_tree(enumerate_shapes([TERNARY], 5)[0], "abcde"))
    before = leibniz._table.cache_info()
    with pytest.raises(ExpansionTooLarge):
        expand_binary_tree(_right_comb(variables([f"x{i}" for i in range(40)])))
    assert leibniz._table.cache_info() == before
    a, b, c, d = map(Monomial.leaf, "abcd")
    mixed = Monomial.apply(TERNARY, (Monomial.apply(BINARY, (a, b)), c, d))
    for expand, message in ((expand_ternary, "mul is not ternary"),
                            (expand_binary_tree, "br is not binary")):
        with pytest.raises(AlgebraError, match=message):
            expand(mixed)
        assert leibniz._table.cache_info().currsize == before.currsize


def test_a_table_fill_builds_no_tree():
    m = form_tree(enumerate_shapes([TERNARY], 7)[5], "abcdefg")
    leibniz._table.cache_clear()
    before = core._tree.cache_info()
    assert expand_ternary(m) == reference_expand(m)
    assert leibniz._table.cache_info().currsize == 1
    assert core._tree.cache_info() == before


# distinct, repeated and multi-letter variable names: "ab" is one letter
NAMES = ("a", "b", "c", "d", "e", "f", "g", "x1", "y2", "ab")
EXPANSIONS = {BINARY: expand_binary_tree, TERNARY: expand_ternary}
COEFFICIENTS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@st.composite
def word_polynomials(draw):
    """A tensor polynomial of up to three words of length 1 to 4 over four
    letters, repeats allowed, with int or Fraction coefficients."""
    words = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
                          min_size=1, max_size=3))
    return TensorPolynomial({tuple(x): draw(COEFFICIENTS.filter(bool)) for x in words})


@settings(max_examples=150, deadline=None)
@given(u=word_polynomials(), v=word_polynomials())
def test_free_product_is_the_recursive_word_product(u, v):
    got = free_product(u, v, check_disjoint=False)
    assert set(typed_items(got.terms)) == set(typed_items(reference_free_product(u, v).terms))


@st.composite
def expansion_trees(draw, op):
    """A tree of one operation of degree at most 7 over ``NAMES``, its
    letters all distinct or drawn with repeats."""
    degree = draw(st.sampled_from(range(1, 8) if op.arity == 2 else (1, 3, 5, 7)))
    shape = draw(st.sampled_from(enumerate_shapes([op], degree)))
    unique = draw(st.booleans())
    return form_tree(shape, draw(st.lists(st.sampled_from(NAMES), min_size=degree,
                                          max_size=degree, unique=unique)))


@settings(max_examples=150, deadline=None)
@given(op=st.sampled_from([BINARY, TERNARY]), data=st.data())
def test_the_shape_table_expands_as_the_fold(op, data):
    expand = EXPANSIONS[op]
    trees = data.draw(st.lists(expansion_trees(op), min_size=1, max_size=4))
    # one tree: the same words with the same coefficient types, in any
    # order, which no output shows (repr sorts, kernels are reduced echelon)
    got, want = typed_items(expand(trees[0]).terms), typed_items(reference_expand(trees[0]).terms)
    assert set(got) == set(want)
    p = Polynomial({m: data.draw(COEFFICIENTS) for m in trees})
    assert set(typed_items(expand(p).terms)) == set(typed_items(reference_expand(p).terms))

    # once a shape's table is filled, every tree of it, with distinct or
    # repeated letters, is read from the table, with no concatenation
    key, degree = trees[0].shape_key(), trees[0].degree
    names = data.draw(st.permutations(NAMES))[:degree]
    expand(form_tree(key, names))
    again = form_tree(key, names[::-1])
    repeated = form_tree(key, data.draw(st.lists(st.sampled_from("ab"), min_size=degree,
                                                 max_size=degree)))
    with mock.patch.object(leibniz, "_concat", side_effect=AssertionError("filled")):
        got, merged = expand(again), expand(repeated)
    assert set(typed_items(got.terms)) == set(typed_items(reference_expand(again).terms))
    assert set(typed_items(merged.terms)) == set(typed_items(reference_expand(repeated).terms))


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from([BINARY, TERNARY]), data=st.data())
def test_the_budget_answers_alike_with_the_tables_cleared_and_warm(op, data):
    expand = EXPANSIONS[op]
    trees = data.draw(st.lists(expansion_trees(op), min_size=1, max_size=4))
    p = Polynomial({m: data.draw(COEFFICIENTS) for m in trees})
    # a limit near the count, so that both answers are drawn
    limit = data.draw(st.integers(0, 4 * sum(leibniz._work(m.shape_key()) for m in trees)))

    def answer():
        with mock.patch.object(leibniz, "EXPANSION_LIMIT", limit):
            try:
                return typed_items(expand(p).terms)
            except ExpansionTooLarge as err:
                return str(err)

    leibniz._table.cache_clear()
    cold = answer()
    for m in trees:
        expand(m)
    assert answer() == cold
