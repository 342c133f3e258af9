"""Core polynomial algebra: substitution, polarization, rewriting."""

import copy
import itertools
import operator
import pickle
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from algforge import core
from algforge.core import (
    AlgebraError,
    ArityError,
    CyclicRules,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    RewriteRule,
    Variable,
    apply_op,
    apply_rules,
    form_tree,
    items_at,
    normalize_scalar,
    polarize,
    read_tree,
    relabel,
    rule_from_identity,
    substitute,
    variables,
)
from algforge.fixtures import BINARY, TERNARY, fixture
from algforge.rightcomm import rc_expand

from helpers import mixed_trees, reference_operator_identities, reference_relabel, typed_items


A, B, C, D, E = variables("abcde")


def leaf(v):
    return Polynomial({Monomial.leaf(v): Fraction(1)})


def br(x, y, z):
    return apply_op(TERNARY, [x, y, z])


def mul(x, y):
    return apply_op(BINARY, [x, y])


def test_variable_ordering_and_equality():
    assert Variable("a") == Variable("a")
    assert Variable("a") < Variable("b")
    with pytest.raises(AlgebraError):
        Variable("")


def test_variables_reads_a_separator_free_string_letter_by_letter():
    assert variables("abc") == variables("a b c") == variables(["a", "b", "c"])
    assert variables("x1, y2") == (Variable("x1"), Variable("y2"))
    # the grammar reads a juxtaposed name as letters only, and so does variables
    for text, ch in (("a1c", "1"), ("x1", "1"), ("7", "7"), ("ab_", "_")):
        with pytest.raises(AlgebraError, match=f"expected letter, found '{ch}' in '{text}'"):
            variables(text)


def test_monomial_arity_checked():
    with pytest.raises(AlgebraError):
        Monomial.apply(TERNARY, (Monomial.leaf(A), Monomial.leaf(B)))


def test_polynomial_canonical_no_zero_terms():
    p = br(leaf(A), leaf(B), leaf(C))
    assert (p - p).is_zero
    assert (p + p.scale(-1)).terms == {}
    q = p + p
    assert list(q.terms.values()) == [Fraction(2)]


def test_polynomial_canonicality_random():
    rng = random.Random(7)
    mono_pool = [
        next(iter(br(leaf(x), leaf(y), leaf(z)).terms))
        for x, y, z in [(A, B, C), (B, A, C), (C, B, A), (A, C, B)]
    ]
    for _ in range(50):
        terms = {m: Fraction(rng.randint(-5, 5)) for m in mono_pool}
        p = Polynomial(terms)
        assert all(c != 0 for c in p.terms.values())
        assert (p + (-1) * p).is_zero


def test_substitute_identity_assignment():
    p = br(leaf(A), leaf(B), leaf(C))
    out = substitute(p, {A: leaf(A), B: leaf(B), C: leaf(C)})
    assert out == p


def test_substitute_structural_plug_in():
    p = mul(leaf(A), leaf(B))
    out = substitute(p, {A: leaf(A), B: mul(leaf(C), leaf(D))})
    assert out == mul(leaf(A), mul(leaf(C), leaf(D)))


def test_substitute_expands_the_lifted_instance():
    # plugging a product and a relabeling into the four-variable identity
    # gives the six-term expansion used by the lifted-instance machinery
    rj = fixture("rj")
    a, b, c, d = rj.variables
    out = substitute(
        rj.lhs,
        {a: mul(leaf(C), leaf(E)), b: leaf(B), c: leaf(D), d: leaf(A)},
    )
    assert out.degree() == 5
    assert len(out.terms) == 6
    assert out.is_multilinear()


def test_substitute_passes_unassigned_and_shared_variables_through():
    p = br(leaf(A), leaf(B), leaf(C))
    assert substitute(p, {A: leaf(A), B: leaf(B)}) == p
    assert substitute(p, {A: leaf(D), B: leaf(D)}) == br(leaf(D), leaf(D), leaf(C))
    square = substitute(p, {A: mul(leaf(D), leaf(D))})
    assert square == br(mul(leaf(D), leaf(D)), leaf(B), leaf(C))
    assert not square.is_multilinear()


def test_substitution_composition():
    p = mul(leaf(A), leaf(B))
    f = {A: mul(leaf(C), leaf(D)), B: leaf(E)}
    x, y = variables(["u", "v"])
    g = {C: leaf(x), D: leaf(y), E: leaf(A)}
    lhs = substitute(substitute(p, f), {**g, A: leaf(A)})
    composed = {A: substitute(mul(leaf(C), leaf(D)), g), B: leaf(A)}
    rhs = substitute(p, composed)
    assert lhs == rhs


def test_relabel_is_structural():
    p = br(leaf(A), leaf(B), leaf(C)) - br(leaf(B), leaf(A), leaf(C))
    q = relabel(p, {A: B, B: A})
    assert q == -p


_LETTERS = st.sampled_from("abcdef")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(mixed_trees(), st.integers(-3, 3)), min_size=1, max_size=4),
       st.dictionaries(_LETTERS, _LETTERS),
       st.none() | st.tuples(_LETTERS, mixed_trees()))
@example([(Monomial.apply(BINARY, (Monomial.leaf(A), Monomial.leaf(B))), 1),
          (Monomial.apply(BINARY, (Monomial.leaf(B), Monomial.leaf(A))), -1)], {"b": "a"}, None)
@example([(Monomial.apply(BINARY, (Monomial.leaf(A), Monomial.leaf(B))), 2)], {"b": "e"},
         ("a", Monomial.apply(BINARY, (Monomial.leaf(C), Monomial.leaf(D)))))
def test_relabel_equals_substitute_on_variable_maps(terms, names, tree):
    # a map may merge two names, as squaring a variable of the one-product
    # law does, and the merged terms may then cancel; a tree in one slot is
    # what a one-step lift puts in
    p = Polynomial._from_terms(core.accumulate({}, terms))
    mapping = {Variable(x): Variable(y) for x, y in names.items()}
    if tree is not None:
        mapping[Variable(tree[0])] = tree[1]
    got = substitute(p, mapping)
    assert typed_items(got.terms) == typed_items(reference_relabel(p, mapping).terms)


def test_normalize_scalar():
    p = br(leaf(A), leaf(B), leaf(C)).scale(Fraction(-2, 3))
    n = normalize_scalar(p)
    assert list(n.terms.values()) == [Fraction(1)]
    assert normalize_scalar(Polynomial.zero()).is_zero


def test_polarize_right_jordan_gives_rj_up_to_scalar():
    pol = polarize(fixture("jordan-right"))
    assert [v.name for v in pol.variables] == ["a1", "a2", "a3", "b"]
    rel = relabel(
        pol.lhs,
        {Variable("a1"): A, Variable("a2"): B, Variable("a3"): C, Variable("b"): D},
    )
    left = rc_expand(rel)
    right = rc_expand(fixture("rj").lhs)
    word = next(iter(right.terms))
    k = Fraction(left.terms[word]) / right.terms[word]
    assert k != 0
    assert left == right.scale(k)


def test_polarize_right_osborn_gives_ro_up_to_scalar():
    pol = polarize(fixture("osborn-right"))
    rel = relabel(pol.lhs, {Variable("c1"): C, Variable("c2"): D})
    left = rc_expand(rel)
    right = rc_expand(fixture("ro").lhs)
    word = next(iter(right.terms))
    k = Fraction(left.terms[word]) / right.terms[word]
    assert k != 0
    assert left == right.scale(k)


def test_polarize_multilinear_is_scalar_normalization():
    for name in ("lts-a", "lts-b", "leibniz"):
        ident = fixture(name)
        assert polarize(ident).lhs == normalize_scalar(ident.lhs)


def test_polarize_idempotent_up_to_scalar():
    once = polarize(fixture("osborn-right"))
    twice = polarize(once)
    assert twice.lhs == once.lhs


def test_polarize_output_multilinear():
    for name in ("jordan-right", "osborn-right"):
        out = polarize(fixture(name))
        assert out.is_multilinear()


def test_rewrite_rules_reduce_cyclic_to_third_relation():
    from algforge.fixtures import elimination_rules

    rule2 = elimination_rules()[0]
    reduced = apply_rules(fixture("cyclic2").lhs, [rule2])
    br1 = TERNARY.with_variant(1)
    br3 = TERNARY.with_variant(3)

    def v(op, x, y, z):
        return apply_op(op, [leaf(x), leaf(y), leaf(z)])

    expected = v(br3, C, A, B) - v(br1, B, A, C) + v(br1, B, C, A)
    assert reduced == expected
    # relabeled, this is exactly the defining relation of the third variant
    rel = relabel(reduced, {C: A, A: B, B: C})
    assert rel == v(br3, A, B, C) - v(br1, C, B, A) + v(br1, C, A, B)


def test_rewrite_rules_reproduce_the_reduced_identities():
    from algforge.core import rename_ops
    from algforge.fixtures import elimination_rules

    rules = elimination_rules()
    m1 = TERNARY.with_variant(1)
    for source, target in (
        ("derivation1", "lts-b"),
        ("derivation3", "lts3"),
        ("derivation5", "derivation5-reduced"),
    ):
        reduced = rename_ops(apply_rules(fixture(source).lhs, rules), {m1: TERNARY})
        assert reduced == fixture(target).lhs, source


def test_rewrite_rules_reach_fixed_point_and_preserve_degree():
    from algforge.fixtures import elimination_rules

    rules = elimination_rules()
    src = fixture("derivation4").lhs
    out = apply_rules(src, rules)
    assert all(op.variant == 1 for m in out.terms for op in m.ops())
    assert out.degree() == src.degree()


def test_empty_rule_list_is_identity():
    p = fixture("derivation1").lhs
    assert apply_rules(p, []) == p


def test_cyclic_rules_detected():
    x, y = variables(["x", "y"])
    f = OpSymbol("f", 2)
    g = OpSymbol("g", 2)
    to_g = RewriteRule(f, (x, y), apply_op(g, [leaf(x), leaf(y)]))
    to_f = RewriteRule(g, (x, y), apply_op(f, [leaf(x), leaf(y)]))
    p = apply_op(f, [leaf(A), leaf(B)])
    with pytest.raises(CyclicRules):
        apply_rules(p, [to_g, to_f])


def test_rule_from_identity_matches_hand_built():
    from algforge.fixtures import elimination_rules

    br1, br2 = TERNARY.with_variant(1), TERNARY.with_variant(2)
    x, y, z = variables("xyz")
    hand = RewriteRule(br2, (x, y, z), -apply_op(br1, [leaf(y), leaf(x), leaf(z)]))
    auto = rule_from_identity(fixture("reduce2"), br2)
    probe = apply_op(br2, [br(leaf(A), leaf(B), leaf(C)), leaf(D), leaf(E)])
    expected = apply_rules(probe, [hand])
    assert expected == -apply_op(br1, [leaf(D), br(leaf(A), leaf(B), leaf(C)), leaf(E)])
    assert apply_rules(probe, [auto]) == expected
    assert apply_rules(probe, [elimination_rules()[0]]) == expected


def test_operator_fixtures_equal_the_python_construction():
    # printed output follows insertion order, so the terms must agree in order
    for name, ident in reference_operator_identities().items():
        got = fixture(name)
        assert got.name == name
        assert typed_items(got.lhs.terms) == typed_items(ident.lhs.terms), name
        assert got.variables == ident.variables and got.signature == ident.signature


def test_multilinearity_preserved_by_operations():
    rng = random.Random(3)
    ident = fixture("lts-b")
    perm = list("abcde")
    rng.shuffle(perm)
    out = substitute(
        ident.lhs, dict(zip(ident.variables, variables(perm)))
    )
    assert out.is_multilinear()
    assert out.degree() == 5


@settings(max_examples=200, deadline=None)
@given(mixed_trees())
def test_form_tree_reads_back_the_shape_key_it_is_given(m):
    tree = form_tree(m.shape_key(), m.leaf_names())
    assert tree == m
    assert tree.shape_key() == m.shape_key() and tree.leaf_names() == m.leaf_names()
    assert form_tree(m.shape_key(), [Variable(x) for x in m.leaf_names()]) is tree


@settings(max_examples=100, deadline=None)
@given(mixed_trees())
def test_a_cached_tree_is_made_of_the_cached_subtrees(m):
    core._tree.cache_clear()
    tree = form_tree(m.shape_key(), m.leaf_names())
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in node.children:
            assert child is form_tree(child.shape_key(), child.leaf_names())
            stack.append(child)


@st.composite
def sequences_and_positions(draw):
    """A nonempty tuple and a nonempty list of positions in it: any positions,
    repeats allowed, or a consecutive run."""
    seq = tuple(draw(st.lists(st.text("abc", max_size=2), min_size=1, max_size=8)))
    index = st.integers(0, len(seq) - 1)
    run = st.builds(lambda start, width: list(range(start, min(start + width, len(seq)))),
                    index, st.integers(1, 8))
    return seq, draw(st.one_of(st.lists(index, min_size=1, max_size=8), run))


@settings(max_examples=300, deadline=None)
@given(sequences_and_positions())
# one position, a consecutive run and a repeated position (a non-multilinear
# identity repeats a slot): each a case one of the readers it replaced special-cased
@example((("a",), [0]))
@example((("a", "b", "c", "d"), [2]))
@example((("a", "b", "c", "d"), [1, 2, 3]))
@example((("a", "b", "c"), [0, 0, 2]))
def test_items_at_reads_the_tuple_of_the_items_at_its_positions(case):
    seq, positions = case
    assert items_at(positions)(seq) == tuple(seq[i] for i in positions)


@settings(max_examples=200, deadline=None)
@given(mixed_trees())
def test_read_tree_reads_the_shape_key_and_leaves_and_caches_nothing(m):
    # a node has no slot to keep a key or leaves in
    assert Monomial.__slots__ == ("var", "op", "children", "_hash")
    key = core.fold(m, lambda v: core.LEAF_KEY, core.node_key)
    leaves = core.fold(m, lambda v: (v.name,), lambda _, kids: sum(kids, ()))
    assert read_tree(m) == (key, leaves)
    assert (m.shape_key(), m.leaf_names(), m.sort_key(), m.degree) == (
        key, leaves, (key, leaves), len(leaves))


_COEFFICIENTS = st.one_of(st.sampled_from([1, -1, 2, -3]),
                          st.fractions(-2, 2, max_denominator=3).filter(bool))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(mixed_trees(), _COEFFICIENTS), min_size=1, max_size=4),
       st.permutations("abcdef"), st.none() | st.tuples(_LETTERS, mixed_trees()))
def test_relabel_keeps_the_terms_order_and_coefficient_types_of_the_structural_fold(
    terms, perm, tree
):
    # every node of a renaming has one-term arguments, the path apply_op
    # takes without building combinations
    p = Polynomial._from_terms(core.accumulate({}, terms))
    mapping = {Variable(x): Variable(y) for x, y in zip("abcdef", perm)}
    if tree is not None:
        mapping[Variable(tree[0])] = tree[1]
    assert typed_items(relabel(p, mapping).terms) == typed_items(reference_relabel(p, mapping).terms)


def test_every_relabeling_of_lts_a_is_the_structural_fold():
    f = fixture("lts-a")
    for perm in itertools.permutations(variables("abcde")):
        mapping = dict(zip(f.variables, perm))
        want = reference_relabel(f.lhs, mapping)
        assert typed_items(relabel(f.lhs, mapping).terms) == typed_items(want.terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([OpSymbol("neg", 1), BINARY, TERNARY]).flatmap(
    lambda op: st.tuples(st.just(op), st.lists(st.tuples(mixed_trees(), _COEFFICIENTS),
                                               min_size=op.arity, max_size=op.arity))))
@example((BINARY, [(Monomial.leaf(A), Fraction(1, 2)), (Monomial.leaf(B), 2)]))
def test_apply_op_on_one_term_arguments_is_one_term_with_the_product_coefficient(case):
    # Fraction(1, 2) * 2 stays the Fraction 1, as the combination loop keeps it
    op, args = case
    got = apply_op(op, [Polynomial._from_terms({m: c}) for m, c in args])
    want = {Monomial.apply(op, [m for m, _ in args]): reduce(operator.mul, [c for _, c in args], 1)}
    assert typed_items(got.terms) == typed_items(want)


_NAMES = st.sampled_from(["mul", "br", "dot", "x", "tr"])
_TRIPLES = st.tuples(_NAMES, st.integers(1, 4), st.none() | st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_TRIPLES, _TRIPLES)
def test_an_operation_symbol_is_interned_per_name_arity_and_variant(t, u):
    a, b = OpSymbol(*t), OpSymbol(*u)
    assert a is OpSymbol(*t) and (a.name, a.arity, a.variant) == t
    assert (a == b) == (a is b) == (t == u)
    assert (hash(a) == hash(b)) if t == u else a != b
    assert a.with_variant(b.variant) is OpSymbol(t[0], t[1], u[2])
    assert a.with_variant(a.variant) is a
    assert pickle.loads(pickle.dumps(a)) is a and copy.deepcopy(a) is a


@settings(max_examples=100, deadline=None)
@given(st.lists(_TRIPLES, max_size=8))
def test_operation_symbols_sort_by_name_arity_then_variant(triples):
    ops = [OpSymbol(*t) for t in triples]
    # the order of the key tuples, with no variant before variant 1
    assert sorted(ops) == sorted(ops, key=lambda o: (o.name, o.arity, o.variant or 0))
    assert [o.key() for o in sorted(ops)] == sorted((n, a, v or 0) for n, a, v in triples)


@settings(max_examples=100, deadline=None)
@given(_NAMES, st.integers(-2, 0), st.integers(-2, 0))
def test_a_refused_operation_symbol_leaves_no_registry_entry(name, arity, variant):
    before = dict(OpSymbol._interned)
    with pytest.raises(ArityError, match=f"^arity must be positive, got {arity}$"):
        OpSymbol(name, arity)
    with pytest.raises(AlgebraError, match=f"^variant must be positive, got {variant}$"):
        OpSymbol(name, 2, variant)
    with pytest.raises(AlgebraError, match=f"^variant must be positive, got {variant}$"):
        BINARY.with_variant(variant)
    assert OpSymbol._interned == before


def test_an_identity_reads_its_variables_once_and_keeps_its_degree(monkeypatch):
    lhs = fixture("lts-a").lhs
    reads = []
    real_variables, real_degree = Polynomial.variables, Polynomial.degree
    monkeypatch.setattr(Polynomial, "variables", lambda p: reads.append("v") or real_variables(p))
    monkeypatch.setattr(Polynomial, "degree", lambda p: reads.append("d") or real_degree(p))
    ident = Identity(lhs)
    assert reads == ["v"] and ident.variables == real_variables(lhs)
    assert ident.degree == ident.degree == 5 and reads == ["v", "d"]
    assert Identity(lhs, variables("edcba")).variables == variables("edcba")
    assert pickle.loads(pickle.dumps(ident)).degree == 5


def test_a_non_homogeneous_identity_raises_only_when_its_degree_is_read():
    a, b = (Monomial.leaf(v) for v in variables("ab"))
    ident = Identity(Polynomial({a: 1, Monomial.apply(BINARY, [a, b]): 1}))
    assert ident.variables == variables("ab")
    for _ in range(2):
        with pytest.raises(AlgebraError, match="not homogeneous: degrees \\[1, 2\\]"):
            ident.degree
