"""Straightening, association types, permuted-associator expansions."""

import itertools
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from algforge import rightcomm
from algforge.consequence import enumerate_shapes
from algforge.core import (
    AlgebraError,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    fold,
    form_tree,
    relabel,
    variables,
)
from algforge.fixtures import (
    BINARY,
    TERNARY,
    expansion_golden,
    fixture,
    stated_instances,
)
from algforge.parsing import parse, parse_product
from algforge.rightcomm import (
    DegreeTooLarge,
    RCBasis,
    build_jordan_checker,
    canonical_shapes,
    permuted_associator_expand,
    rc_expand,
    rc_straighten,
    symmetry_order,
)

from helpers import (
    iter_lifted,
    typed_items,
    rc_orbit as _orbit,
    rc_order,
    reference_lifted,
    reference_permuted_associator_expand,
    reference_rc_basis_words,
)

V5 = variables("abcde")


def reference_rj_ro_lifts() -> dict:
    """Tag -> tree polynomial of every lifted rj/ro instance, built by the
    ``reference_lifted`` oracle."""
    return {tag: p for name in ("rj", "ro") for tag, p in reference_lifted(fixture(name), 5, V5)}


def word_of(text):
    return rc_straighten(parse_product(text, BINARY))


def test_straighten_examples():
    # inner swap inside the second association type
    assert word_of("((a(cb))d)e") == word_of("((a(bc))d)e")
    assert word_of("((a(bc))d)e").letters == ("a", "b", "c", "d", "e")
    # the doubly symmetric last type
    assert word_of("a((de)(bc))") == word_of("a((bc)(de))")
    # the left-normalized type is its own representative
    t1 = word_of("(((ab)c)d)e")
    assert t1.type_index == 1 and t1.letters == ("a", "b", "c", "d", "e")


def test_nine_degree5_types_in_order():
    shapes = canonical_shapes(BINARY, 5)
    texts = [
        "(((ab)c)d)e", "((a(bc))d)e", "((ab)(cd))e", "(a((bc)d))e",
        "((ab)c)(de)", "(a(bc))(de)", "(ab)((cd)e)", "a(((bc)d)e)",
        "a((bc)(de))",
    ]
    assert len(shapes) == 9
    for idx, text in enumerate(texts, start=1):
        assert word_of(text).type_index == idx, text


def test_symmetry_orders_and_canonical_count():
    orders = [symmetry_order(BINARY, 5, t) for t in range(1, 10)]
    assert orders == [1, 2, 2, 2, 2, 4, 2, 2, 8]
    assert sum(120 // o for o in orders) == 525
    basis = RCBasis(BINARY, 5, V5)
    assert len(basis) == 525
    # direct orbit enumeration over all lettered trees agrees
    letters = [Variable(c) for c in "abcde"]
    seen = set()
    for shape in enumerate_shapes([BINARY], 5):
        for perm in itertools.permutations(letters):
            seen.add(rc_straighten(form_tree(shape, perm)))
    assert len(seen) == 525


def test_lower_degree_type_counts():
    assert len(canonical_shapes(BINARY, 2)) == 1
    assert len(canonical_shapes(BINARY, 3)) == 2
    assert len(canonical_shapes(BINARY, 4)) == 4
    basis4 = RCBasis(BINARY, 4, variables("abcd"))
    assert len(basis4) == 60
    basis3 = RCBasis(BINARY, 3, variables("abc"))
    assert len(basis3) == 9


def test_straighten_idempotent_and_orbit_constant():
    for text in ["((a(cb))d)e", "a((de)(bc))", "(a(b(cd)))e", "a(b(c(de)))"]:
        m = parse_product(text, BINARY)
        word = rc_straighten(m)
        for member in _orbit(m):
            assert rc_straighten(member) == word
        assert rc_straighten(word.monomial()) == word


def test_normal_form_is_the_least_orbit_member_in_degrees_1_to_5():
    for degree in range(1, 6):
        letters = variables("abcde"[:degree])
        for shape in enumerate_shapes([BINARY], degree):
            for perm in itertools.permutations(letters):
                m = form_tree(shape, perm)
                assert rc_straighten(m).monomial() == min(_orbit(m), key=rc_order), m


def test_symmetry_order_counts_the_same_shape_orbit_members():
    for degree in range(2, 6):
        letters = variables("abcde"[:degree])
        for t, shape in enumerate(canonical_shapes(BINARY, degree), start=1):
            orbit = _orbit(form_tree(shape, letters))
            same_shape = sum(1 for m in orbit if m.shape_key() == shape)
            assert symmetry_order(BINARY, degree, t) == same_shape, (degree, t)


@pytest.mark.parametrize("text", ["mul(a, add(b, c)) - mul(a, mul(b, c))", "mul(br(a, b, c), d)"])
def test_straightening_rejects_a_second_operation(text):
    p = parse(text, [BINARY, TERNARY, OpSymbol("add", 2)])
    with pytest.raises(AlgebraError):
        rc_expand(p)


def test_straightening_names_the_second_operation():
    p = parse("mul(a, add(b, c))", [BINARY, OpSymbol("add", 2)])
    message = r"^straightening needs one operation, found add in mul$"
    with pytest.raises(AlgebraError, match=message):
        rc_straighten(next(iter(p.terms)))
    with pytest.raises(AlgebraError, match=r"^straightening requires a binary operation$"):
        rc_straighten(next(iter(parse("br(a,b,c)", [TERNARY]).terms)))


def test_degree_cap():
    too_big = parse_product("((((ab)c)d)e)f", BINARY)
    with pytest.raises(DegreeTooLarge):
        rc_straighten(too_big)


def test_permuted_associator_expand_refuses_degree_7():
    p = parse("br(br(br(a,b,c),d,e),f,g)", [TERNARY])
    with pytest.raises(DegreeTooLarge, match=r"^degree 7 exceeds 5$"):
        permuted_associator_expand(p, BINARY)


def test_permuted_associator_expand_refuses_a_binary_operation_inside():
    p = parse("br(mul(a,b),c,d)", [TERNARY, BINARY])
    with pytest.raises(AlgebraError, match=r"^mul is not ternary$"):
        permuted_associator_expand(p, BINARY)


@pytest.mark.parametrize("text, second", [
    ("br(a,b,c) - tr(a,b,c)", "tr"),
    ("br(tr(a,b,c),d,e)", "tr"),
    ("tr(a,b,c) + br(tr(a,b,c),d,e)", "br"),
])
def test_permuted_associator_expand_refuses_a_second_ternary_operation(text, second):
    # read as one bracket, br(a,b,c) - tr(a,b,c) would expand to 0
    ops = [TERNARY, OpSymbol("tr", 3)]
    first = "tr" if second == "br" else "br"
    message = f"^the permuted associator needs one ternary operation, found {second} in {first}$"
    with pytest.raises(AlgebraError, match=message):
        permuted_associator_expand(parse(text, ops), BINARY)


@pytest.mark.parametrize("text, message", [
    ("br(br(br(a,b,c),d,e),f,g)", "degree 7 exceeds 5"),
    ("br(mul(a,b),c,d)", "mul is not ternary"),
    ("br(tr(a,b,c),d,e)", "the permuted associator needs one ternary operation, found tr in br"),
])
def test_a_refused_expansion_leaves_the_table_cache_as_it_was(text, message):
    permuted_associator_expand(fixture("lts-a"))
    before = rightcomm._associator_table.cache_info().currsize
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
        permuted_associator_expand(parse(text, [TERNARY, BINARY, OpSymbol("tr", 3)]), BINARY)
    assert rightcomm._associator_table.cache_info().currsize == before


def _nodes(m):
    stack = [m]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def test_an_expansion_caches_nothing_on_the_trees_it_reads():
    # a query target as the Jordan workload builds one: relabelings of lts-a
    # and lts-b, scaled and summed, every tree fresh from the renaming
    a, b = fixture("lts-a"), fixture("lts-b")
    target = (relabel(a.lhs, dict(zip(a.variables, variables("edcba")))).scale(2)
              - relabel(b.lhs, dict(zip(b.variables, variables("cabed")))))
    nodes = [n for m in target.terms for n in _nodes(m)]
    built = [[getattr(n, slot) for slot in Monomial.__slots__] for n in nodes]
    got = permuted_associator_expand(target, BINARY)
    # every node keeps the slots it was built with, and has no others
    assert built and [[getattr(n, slot) for slot in Monomial.__slots__] for n in nodes] == built
    assert not any(hasattr(n, "__dict__") for n in nodes)
    assert got == reference_permuted_associator_expand(target, BINARY)


# ternary terms of degree 1, 3 and 5 over a few letters, so letters repeat,
# some of them longer than one character
_LEAVES = st.sampled_from(["a", "b", "c", "x1", "foo"]).map(lambda n: Monomial.leaf(Variable(n)))
_DEG3 = st.tuples(_LEAVES, _LEAVES, _LEAVES).map(lambda kids: Monomial.apply(TERNARY, kids))
_DEG5 = st.integers(0, 2).flatmap(
    lambda i: st.tuples(*(_DEG3 if j == i else _LEAVES for j in range(3)))
).map(lambda kids: Monomial.apply(TERNARY, kids))
_COEFFS = st.one_of(
    st.sampled_from([1, -1, 2, -3]), st.builds(Fraction, st.integers(-3, 3), st.integers(2, 4))
)
_HALF = Fraction(1, 2)


def _br(*kids):
    return Monomial.apply(TERNARY, [Monomial.leaf(Variable(k)) if isinstance(k, str) else k
                                    for k in kids])


@settings(max_examples=150, deadline=None)
@given(terms=st.dictionaries(st.one_of(_LEAVES, _DEG3, _DEG5), _COEFFS, max_size=6),
       product=st.sampled_from([BINARY, OpSymbol("dot", 2)]))
# halves that cancel on a word, which an int term reaches afterwards (an
# inner skew pair, as in lts1), and halves cancelling over repeated letters
@example(terms={_br("a", _br("b", "c", "x1"), "foo"): _HALF,
                _br("a", _br("c", "b", "x1"), "foo"): _HALF,
                _br("a", _br("b", "x1", "c"), "foo"): -1}, product=BINARY)
@example(terms={_br("a", "a", "b"): _HALF, _br("a", "b", "a"): -_HALF, _br("b", "a", "a"): 3},
         product=BINARY)
def test_compiled_expansion_equals_the_tree_built_one(terms, product):
    p = Polynomial(terms)
    got = permuted_associator_expand(p, product)
    want = reference_permuted_associator_expand(p, product)
    assert [(w, c, type(c)) for w, c in got.sorted_terms()] == [
        (w, c, type(c)) for w, c in want.sorted_terms()
    ]


@settings(max_examples=150, deadline=None)
@given(tree=st.recursive(
    st.sampled_from("aab").map(lambda n: Monomial.leaf(Variable(n))),
    lambda sub: st.tuples(sub, sub).map(lambda kids: Monomial.apply(BINARY, kids)),
    max_leaves=5,
).filter(lambda m: m.degree <= 5))
def test_straightening_with_repeated_letters_is_the_least_orbit_member(tree):
    assert rc_straighten(tree).monomial() == min(_orbit(tree), key=rc_order)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_basis_words_are_the_straightened_instantiations(degree):
    for op, names in ((BINARY, "abcde"), (OpSymbol("dot", 2), ["x1", "foo", "b", "zz", "a"])):
        vs = variables(names[:degree])
        basis = RCBasis(op, degree, vs)
        assert basis.monomials == reference_rc_basis_words(op, degree, vs)
        assert basis.index == {w: i for i, w in enumerate(basis.monomials)}


def test_rj_ro_straighten_without_collapse():
    for name in ("rj", "ro"):
        p = fixture(name).lhs
        rc = rc_expand(p)
        assert len(rc.terms) == len(p.terms)
        assert sorted(rc.terms.values()) == sorted(p.terms.values())


def test_permuted_associator_kills_inner_skew_and_cyclic():
    assert permuted_associator_expand(fixture("lts1")).is_zero
    assert permuted_associator_expand(fixture("lts2")).is_zero


def test_permuted_associator_sixteen_term_expansions():
    eb = permuted_associator_expand(fixture("lts-b"))
    assert len(eb.terms) == 16
    assert eb == expansion_golden("lts-b")
    e3 = permuted_associator_expand(fixture("lts3"))
    assert len(e3.terms) == 16
    assert e3 == expansion_golden("lts3")


def test_expansion_term_order_matches_type_then_lex():
    terms = expansion_golden("lts-b").sorted_terms()
    keys = [(w.type_index, w.letters) for w, _ in terms]
    assert keys == sorted(keys)
    assert [w.render() for w, c in terms[:2]] == ["(((ac)b)e)d", "(((ad)b)e)c"]


def test_a_word_renders_as_its_tree_with_juxtaposed_products():
    # the oracle folds the word's tree, which ``render`` does not build
    for degree in range(1, 6):
        for w in RCBasis(BINARY, degree, V5[:degree]).monomials:
            body = fold(w.monomial(), lambda v: v.name, lambda _, args: f"({args[0]}{args[1]})")
            assert repr(w) == (body[1:-1] if degree > 1 else body), w.sort_key()


def test_stated_combinations_straighten_to_expansions():
    lifted = reference_rj_ro_lifts()
    for which in ("lts-b", "lts3"):
        combination = Polynomial.linear_image(stated_instances(which), lifted.__getitem__)
        assert rc_expand(combination) == expansion_golden(which)


def test_stated_instances_are_the_lifted_instances_of_their_tags():
    lifted = {}
    for name in ("rj", "ro"):
        lifted.update(iter_lifted(fixture(name), 5, V5))
    reference = reference_rj_ro_lifts()
    for which in ("lts-b", "lts3"):
        stated = stated_instances(which)
        assert len(stated) == 8 and set(stated.values()) == {1, -1}
        for tag in stated:
            assert lifted[tag] == reference[tag], tag
    with pytest.raises(KeyError, match="no stated instances"):
        stated_instances("lts1")


def test_jordan_reduction_certificates():
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    for name in ("lts-b", "lts3"):
        cert = checker.check(expansion_golden(name))
        assert cert.ok and cert.verify()
    for name in ("lts-a", "lts-b"):
        cert = checker.check(permuted_associator_expand(fixture(name)))
        assert cert.ok and cert.verify()


def test_jordan_checker_reads_its_variables_once():
    from_tuple = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    from_generator = build_jordan_checker(fixture("rj"), fixture("ro"), (v for v in V5), BINARY)
    assert from_generator.generators == from_tuple.generators
    assert from_generator.table.pivots == from_tuple.table.pivots


def test_straightened_checker_normalizes_a_tree_target():
    # the basis straightens a tree target, so its certificate is the one for
    # the straightened target, and it re-expands to that target
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    tree = reference_rj_ro_lifts()["rj(ce,b,d,a)"]
    cert, straight = checker.check(tree), checker.check(rc_expand(tree))
    assert cert.ok and cert.verify()
    assert cert.coefficients == straight.coefficients
    assert cert.generators == straight.generators
    assert cert.target == straight.target == rc_expand(tree)


def test_jordan_zero_target_gives_empty_certificate():
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    cert = checker.check(rc_expand(Polynomial.zero()))
    assert cert.ok and cert.coefficients == {}


@settings(max_examples=100, deadline=None)
@given(tree=st.one_of(_LEAVES, _DEG3, _DEG5), product=st.sampled_from([BINARY, OpSymbol("dot", 2)]),
       data=st.data())
def test_a_second_tree_of_a_filled_shape_is_read_from_its_table(tree, product, data):
    permuted_associator_expand(Polynomial({tree: 1}), product)
    names = data.draw(st.lists(st.sampled_from(["a", "b", "c", "x1", "foo"]),
                               min_size=tree.degree, max_size=tree.degree))
    again = Polynomial({form_tree(tree.shape_key(), names): 1})
    with mock.patch.object(rightcomm, "_associator_node", side_effect=AssertionError("folded")):
        got = permuted_associator_expand(again, product)
    want = reference_permuted_associator_expand(again, product)
    assert typed_items(dict(got.sorted_terms())) == typed_items(dict(want.sorted_terms()))
