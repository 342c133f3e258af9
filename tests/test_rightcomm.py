"""Straightening, association types, permuted-associator expansions."""

import itertools

import pytest

from algforge.consequence import enumerate_shapes, instantiate_shape, iter_lifted, shape_of
from algforge.core import AlgebraError, OpSymbol, Polynomial, Variable, variables
from algforge.fixtures import (
    BINARY,
    TERNARY,
    expansion_golden,
    fixture,
    lifted_instance,
    reducing_combination,
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

from helpers import rc_orbit as _orbit, rc_order

V5 = variables("abcde")


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
    from algforge.consequence import instantiate_shape as _assign

    seen = set()
    for shape in enumerate_shapes([BINARY], 5):
        for perm in itertools.permutations(letters):
            seen.add(rc_straighten(_assign(shape, perm)))
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
                m = instantiate_shape(shape, perm)
                assert rc_straighten(m).monomial() == min(_orbit(m), key=rc_order), m


def test_symmetry_order_counts_the_same_shape_orbit_members():
    for degree in range(2, 6):
        letters = variables("abcde"[:degree])
        for t, shape in enumerate(canonical_shapes(BINARY, degree), start=1):
            orbit = _orbit(instantiate_shape(shape, letters))
            same_shape = sum(1 for m in orbit if shape_of(m) == shape)
            assert symmetry_order(BINARY, degree, t) == same_shape, (degree, t)


@pytest.mark.parametrize("text", ["mul(a, add(b, c)) - mul(a, mul(b, c))", "mul(br(a, b, c), d)"])
def test_straightening_rejects_a_second_operation(text):
    p = parse(text, [BINARY, TERNARY, OpSymbol("add", 2)])
    with pytest.raises(AlgebraError):
        rc_expand(p)


def test_degree_cap():
    too_big = parse_product("((((ab)c)d)e)f", BINARY)
    with pytest.raises(DegreeTooLarge):
        rc_straighten(too_big)


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


def test_stated_combinations_straighten_to_expansions():
    assert rc_expand(reducing_combination("lts-b")) == expansion_golden("lts-b")
    assert rc_expand(reducing_combination("lts3")) == expansion_golden("lts3")


def test_stated_instances_are_the_lifted_instances_of_their_tags():
    lifted = {}
    for name in ("rj", "ro"):
        lifted.update(iter_lifted(fixture(name), 5, V5))
    for which in ("lts-b", "lts3"):
        stated = stated_instances(which)
        assert len(stated) == 8 and set(stated.values()) == {1, -1}
        for tag in stated:
            assert lifted_instance(tag) == lifted[tag], tag
    with pytest.raises(KeyError):
        lifted_instance("rj(a,b")
    with pytest.raises(KeyError):
        stated_instances("lts1")


def test_jordan_reduction_certificates():
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    for name in ("lts-b", "lts3"):
        cert = checker.check(expansion_golden(name))
        assert cert.ok and cert.verify()
    for name in ("lts-a", "lts-b"):
        cert = checker.check(permuted_associator_expand(fixture(name)))
        assert cert.ok and cert.verify()


def test_straightened_checker_normalizes_a_tree_target():
    # the basis straightens a tree target, so its certificate is the one for
    # the straightened target, and it re-expands to that target
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    tree = lifted_instance("rj(ce,b,d,a)")
    cert, straight = checker.check(tree), checker.check(rc_expand(tree))
    assert cert.ok and cert.verify()
    assert cert.coefficients == straight.coefficients
    assert cert.generators == straight.generators
    assert cert.target == straight.target == rc_expand(tree)


def test_jordan_zero_target_gives_empty_certificate():
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    cert = checker.check(rc_expand(Polynomial.zero()))
    assert cert.ok and cert.coefficients == {}
