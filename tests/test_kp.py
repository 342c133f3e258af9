"""The variant-operation transform: position rule, interchange identities."""

import random

import pytest
from hypothesis import given, settings

from algforge.core import (
    AlgebraError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    apply_op,
    rename_ops,
    variables,
)
from algforge.consequence import sets_equivalent
from algforge.fixtures import BINARY, TERNARY, fixture
from algforge.kp import (
    KPOutput,
    _retag_monomial,
    VarietyPresentation,
    kp_apply,
    kp_part1,
    kp_part2,
)

from helpers import kp_part2_full, mixed_trees, reference_retag_monomial

A, B, C, D, E = variables("abcde")


def leaf(v):
    return Polynomial({Monomial.leaf(v): 1})


def test_part1_associativity():
    out = kp_part1(fixture("assoc"))
    assert len(out) == 3
    m1, m2 = BINARY.with_variant(1), BINARY.with_variant(2)

    def p(op_outer, op_inner, assoc_left):
        if assoc_left:
            return apply_op(op_outer, [apply_op(op_inner, [leaf(A), leaf(B)]), leaf(C)])
        return apply_op(op_outer, [leaf(A), apply_op(op_inner, [leaf(B), leaf(C)])])

    # central a: all first variants; central b: mixed; central c: all second
    assert out[0].lhs == p(m1, m1, True) - p(m1, m1, False)
    assert out[1].lhs == p(m1, m2, True) - p(m2, m1, False)
    assert out[2].lhs == p(m2, m2, True) - p(m2, m2, False)


def test_part1_jacobi_matches_transcription():
    out = kp_part1(fixture("jacobi"))
    expected = [fixture(n).lhs for n in ("jacobi-var-a", "jacobi-var-b", "jacobi-var-c")]
    assert [i.lhs for i in out] == expected


def test_part1_ternary_skew():
    out = kp_part1(fixture("l1"))
    assert [i.lhs for i in out] == [fixture(n).lhs for n in ("skew1", "skew2", "skew3")]


def test_part1_requires_multilinear():
    with pytest.raises(AlgebraError):
        kp_part1(fixture("jordan-right"))


def test_part2_binary():
    out = kp_part2(BINARY)
    assert [i.lhs for i in out] == [fixture("bar-inner").lhs, fixture("bar-outer").lhs]


def test_part2_ternary_count_and_content():
    out = kp_part2(TERNARY)
    assert len(out) == 12
    names = [
        f"interchange-br-{j}.{i}.{l}"
        for j in (1, 2, 3)
        for i in (1, 2, 3)
        if i != j
        for l in (2, 3)
    ]
    assert [i.lhs for i in out] == [fixture(n).lhs for n in names]
    assert all(i.degree == 5 for i in out)


def test_part2_unary_empty():
    assert kp_part2(OpSymbol("u", 1)) == []


def test_part2_full_count():
    # n(n-1) positions, unordered variant pairs
    assert len(kp_part2_full(TERNARY)) == 3 * 2 * 3
    assert len(kp_part2_full(BINARY)) == 2 * 1 * 1


def test_part2_subset_spans_full_set_binary():
    res = sets_equivalent(kp_part2(BINARY), kp_part2_full(BINARY), 3, variables("abc"))
    assert res.equivalent


def test_part2_subset_spans_full_set_ternary():
    res = sets_equivalent(kp_part2(TERNARY), kp_part2_full(TERNARY), 5, variables("abcde"))
    assert res.equivalent


def test_apply_associativity_gives_two_product_axioms():
    out = kp_apply(VarietyPresentation([BINARY], [fixture("assoc")]))
    assert len(out.part1) == 3 and len(out.part2) == 2
    ren = {
        BINARY.with_variant(1): OpSymbol("lprod", 2),
        BINARY.with_variant(2): OpSymbol("rprod", 2),
    }
    produced = {
        frozenset(rename_ops(i.lhs, ren).terms.items()) for i in out.all_identities()
    }
    expected = {
        frozenset(fixture(n).lhs.terms.items())
        for n in ("bar-left", "bar-right", "assoc-left", "assoc-right", "assoc-inner")
    }
    assert produced == expected


def test_apply_lie_gives_five_plus_two():
    out = kp_apply(
        VarietyPresentation([BINARY], [fixture("anticomm"), fixture("jacobi")])
    )
    expected = [
        fixture(n).lhs
        for n in (
            "anticomm-var-a",
            "anticomm-var-b",
            "jacobi-var-a",
            "jacobi-var-b",
            "jacobi-var-c",
            "bar-inner",
            "bar-outer",
        )
    ]
    assert [i.lhs for i in out.all_identities()] == expected


def test_apply_ternary_matches_all_fixtures():
    out = kp_apply(
        VarietyPresentation([TERNARY], [fixture("l1"), fixture("l2"), fixture("l3")])
    )
    part1_names = (
        "skew1", "skew2", "skew3",
        "cyclic1", "cyclic2", "cyclic3",
        "derivation1", "derivation2", "derivation3", "derivation4", "derivation5",
    )
    assert [i.lhs for i in out.part1] == [fixture(n).lhs for n in part1_names]
    assert len(out.part2) == 12
    assert out.families["br"] == [TERNARY.with_variant(v) for v in (1, 2, 3)]


def _random_ternary_monomial(rng, names):
    pool = [Monomial.leaf(v) for v in variables(names)]
    rng.shuffle(pool)
    while len(pool) > 1:
        args = [pool.pop() for _ in range(3)]
        pool.append(Monomial.apply(TERNARY, args))
        rng.shuffle(pool)
    return pool[0]


def test_position_rule_on_random_trees():
    # every operation occurrence on the path to the central leaf gets the
    # subscript of the argument containing it; occurrences off the path get
    # 1 or the arity according to the side the central leaf lies on
    rng = random.Random(11)
    for _ in range(40):
        m = _random_ternary_monomial(rng, "abcde")
        ident = Identity(Polynomial({m: 1}))
        central = rng.choice(ident.variables)
        out = kp_part1(ident)[ident.variables.index(central)]
        (tagged,) = list(out.lhs.terms)

        def check(node, tagged_node):
            if node.is_leaf:
                return
            leaves = node.leaf_names()
            pos_in = [
                idx
                for idx, child in enumerate(node.children, start=1)
                if central.name in child.leaf_names()
            ]
            if central.name in leaves:
                assert tagged_node.op.variant == pos_in[0]
            else:
                whole = m.leaf_names()
                if whole.index(central.name) < whole.index(leaves[0]):
                    assert tagged_node.op.variant == 1
                else:
                    assert tagged_node.op.variant == node.op.arity
            for child, tchild in zip(node.children, tagged_node.children):
                check(child, tchild)

        check(m, tagged)


def test_part1_preserves_degree_and_leaf_sequences():
    for name in ("l3", "jacobi"):
        ident = fixture(name)
        for out in kp_part1(ident):
            assert out.degree == ident.degree
            assert sorted(m.leaf_names() for m in out.lhs.terms) == sorted(
                m.leaf_names() for m in ident.lhs.terms
            )


def test_part1_deterministic():
    a = kp_part1(fixture("l3"))
    b = kp_part1(fixture("l3"))
    assert [i.lhs for i in a] == [i.lhs for i in b]


def test_variety_rejects_subscripted_signature():
    with pytest.raises(AlgebraError):
        VarietyPresentation([TERNARY.with_variant(1)], [])


def test_kp_output_groups():
    out = kp_apply(
        VarietyPresentation([TERNARY], [fixture("l1"), fixture("l2"), fixture("l3")])
    )
    assert isinstance(out, KPOutput)
    assert [len(g) for g in out.part1_groups] == [3, 3, 5]


def _outcome(retag, m, central):
    try:
        return retag(m, central)
    except AlgebraError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(mixed_trees())
def test_the_retagging_fold_equals_the_offset_walk(m):
    # every letter of the tree, repeated ones included, and one it lacks
    for central in sorted(set(m.leaf_names())) + ["z"]:
        got = _outcome(_retag_monomial, m, central)
        assert got == _outcome(reference_retag_monomial, m, central), central
        if m.leaf_names().count(central) != 1:
            assert got == f"central variable {central} must occur exactly once"
