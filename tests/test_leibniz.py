"""Free Leibniz algebra: word products, tree expansions, identity checks."""

import random
from fractions import Fraction

import pytest

from algforge import leibniz
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

    monkeypatch.setattr(leibniz, "free_product", no_product)
    comb = _right_comb(variables([f"x{i}" for i in range(40)]))
    message = r"^expansion too large: up to \d+ word terms, over 1000000$"
    with pytest.raises(ExpansionTooLarge, match=message):
        expand_binary_tree(comb)
    with pytest.raises(ExpansionTooLarge):
        expand_binary_tree(Polynomial({comb: 1}))


def test_the_largest_accepted_comb_has_12_letters():
    assert leibniz._work(_right_comb(variables([f"x{i}" for i in range(12)]))) <= EXPANSION_LIMIT
    assert leibniz._work(_right_comb(variables([f"x{i}" for i in range(13)]))) > EXPANSION_LIMIT


@pytest.mark.parametrize("op, degrees", [(BINARY, range(1, 7)), (TERNARY, (3, 5))])
def test_work_count_is_exact_on_multilinear_trees_and_bounds_the_rest(op, degrees, monkeypatch):
    # the terms each free_product accumulates: a word of degree k times a
    # right factor's word gives 2 ** (k - 1) terms
    counted = []
    product = leibniz.free_product

    def counting(u, v, **kwargs):
        k = len(next(iter(v.terms), ()))
        counted.append(len(u.terms) * len(v.terms) << (k - 1) if k else 0)
        return product(u, v, **kwargs)

    monkeypatch.setattr(leibniz, "free_product", counting)
    for degree in degrees:
        for shape in enumerate_shapes([op], degree):
            for names, exact in (("abcdef", True), ("aabbab", False)):
                m = form_tree(shape, names[:degree])
                counted.clear()
                leibniz._expand(m, op.arity, "of this arity")
                if exact:
                    assert leibniz._work(m) == sum(counted), m
                else:
                    assert leibniz._work(m) >= sum(counted), m
