"""Basis enumeration, instance spans, certificates, kernels."""

import gc
import itertools
import weakref
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from algforge.core import (
    AlgebraError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    apply_op,
    form_tree,
    substitute,
    variables,
)
from algforge import consequence, core, rightcomm
from algforge.consequence import (
    BasisTooLarge,
    DegreeNotExpressible,
    DimensionMismatch,
    MonomialBasis,
    NotInSpan,
    SpanChecker,
    UnsupportedLift,
    compiled_instances,
    kernel_of_expansion,
    iter_relabelings,
    sets_equivalent,
)
from algforge.fixtures import BINARY, TERNARY, fixture
from algforge.leibniz import expand_ternary
from algforge.parsing import parse_file, parse_product
from algforge.rightcomm import RCBasis, build_jordan_checker

from helpers import (
    iter_lifted,
    reference_instances,
    reference_lifted,
    reference_relabelings,
    typed_items,
)

V5 = variables("abcde")
V3 = variables("abc")


def count_ternary_shapes(degree):
    """Brute-force oracle: planar trees over one ternary operation."""
    if degree == 1:
        return 1
    total = 0
    for d1 in range(1, degree + 1):
        for d2 in range(1, degree - d1 + 1):
            d3 = degree - d1 - d2
            if d3 >= 1:
                total += (
                    count_ternary_shapes(d1)
                    * count_ternary_shapes(d2)
                    * count_ternary_shapes(d3)
                )
    return total


def test_basis_ternary_degree5():
    basis = MonomialBasis([TERNARY], 5, V5)
    import math

    assert len(basis) == count_ternary_shapes(5) * math.factorial(5) == 360
    assert len(set(basis.monomials)) == 360
    assert basis.monomials == sorted(basis.monomials, key=lambda m: m.sort_key())


def test_basis_binary_degree3():
    basis = MonomialBasis([BINARY], 3, V3)
    assert len(basis) == 12  # two shapes times 3!


def test_basis_ternary_degree3():
    basis = MonomialBasis([TERNARY], 3, V3)
    assert len(basis) == 6  # one shape


def test_basis_size_is_counted_before_any_tree_is_built(monkeypatch):
    # 14 shapes x 5! = 1,680 binary monomials at degree 5
    monkeypatch.setattr(consequence, "BASIS_LIMIT", 1680)
    assert len(MonomialBasis([BINARY], 5, V5)) == 1680
    monkeypatch.setattr(consequence, "BASIS_LIMIT", 1679)
    with pytest.raises(BasisTooLarge, match="14 shapes x 5! = 1680 monomials"):
        MonomialBasis([BINARY], 5, V5)
    # both operations: 654 shapes at degree 7, counted, never built
    monkeypatch.undo()
    with pytest.raises(BasisTooLarge, match="654 shapes x 7! = 3296160 monomials"):
        MonomialBasis([BINARY, TERNARY], 7, variables("abcdefg"))


@pytest.mark.parametrize("make", [
    lambda vs: MonomialBasis([BINARY], 3, vs),
    lambda vs: RCBasis(BINARY, 3, vs),
], ids=["planar", "rc"])
def test_both_bases_refuse_a_repeated_variable(make):
    # over a, a, c the permutations repeat, so the element list would list
    # equal monomials that the index counts once
    with pytest.raises(DimensionMismatch, match=r"^variable 'a' is repeated$"):
        make(variables("aac"))
    with pytest.raises(DimensionMismatch, match=r"^need 3 variables for degree 3, got 2$"):
        make(variables("ab"))
    basis = make(V3)
    assert len(basis) == len(basis.index)


@pytest.mark.parametrize("kind", ["planar", "rc"])
def test_a_dropped_basis_and_its_checker_are_freed_without_the_cyclic_collector(kind):
    # the column memo must not refer back to its basis, or only the cyclic
    # collector could free a basis once dropped
    gc.disable()
    try:
        if kind == "planar":
            basis = MonomialBasis([BINARY], 3, V3)
            checker = SpanChecker(compiled_instances([fixture("leibniz")], V3), basis)
            target = next(p for _, p in iter_relabelings(fixture("leibniz"), V3))
        else:
            checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
            target = next(p for _, p in iter_lifted(fixture("rj"), 5, V5))
        assert checker.check(target).ok and checker.basis._slots
        refs = [weakref.ref(checker), weakref.ref(checker.basis)]
        basis = checker = None
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_basis_degree_not_expressible():
    with pytest.raises(DegreeNotExpressible):
        MonomialBasis([TERNARY], 4, variables("abcd"))


def test_basis_rejects_foreign_monomial():
    basis = MonomialBasis([TERNARY], 3, V3)
    foreign = apply_op(TERNARY, [Monomial.leaf(v) for v in variables("abd")])
    with pytest.raises(DimensionMismatch):
        basis.vector(foreign)


def test_same_degree_instances_counts():
    assert len(list(iter_relabelings(fixture("lts1"), V5))) == 120
    assert len(list(iter_relabelings(fixture("leibniz"), V3))) == 6
    inst = [p for _, p in iter_relabelings(fixture("lts1"), V5)]
    assert fixture("lts1").lhs in inst  # identity permutation present


def test_lifted_instances_contains_stated_tags():
    tags = [t for t, _ in iter_lifted(fixture("rj"), 5, V5)]
    assert "rj(ce,b,d,a)" in tags
    assert "rj(b,c,e,a)*d" in tags
    ro_tags = [t for t, _ in iter_lifted(fixture("ro"), 5, V5)]
    assert "ro(a,b,c,e)*d" in ro_tags
    assert "c*ro(a,d,e,b)" in ro_tags


def test_lifted_instances_are_multilinear_degree5():
    out = [p for _, p in iter_lifted(fixture("rj"), 5, V5)]
    assert out and all(p.is_multilinear() and p.degree() == 5 for p in out)


def _lifted_by_substitution(identity, variables):
    """The reference for ``iter_lifted``: each product is put in by an
    expanding ``substitute`` and each factor by ``apply_op``, in the same
    order and with the same tags."""
    (op,) = identity.signature
    src = identity.variables
    for v_idx, v in enumerate(src):
        others = src[:v_idx] + src[v_idx + 1:]
        for x, y, *rest in itertools.permutations(variables):
            mapping = {v: apply_op(op, [x, y]), **dict(zip(others, rest))}
            args = [w.name for w in rest]
            args.insert(v_idx, x.name + y.name)
            yield f"{identity.name}({','.join(args)})", substitute(identity.lhs, mapping)
    for f, *rest in itertools.permutations(variables):
        inst = substitute(identity.lhs, dict(zip(src, rest)))
        args = ",".join(w.name for w in rest)
        yield f"{identity.name}({args})*{f.name}", apply_op(op, [inst, f])
        yield f"{f.name}*{identity.name}({args})", apply_op(op, [f, inst])


@pytest.mark.parametrize("name, letters", [("rj", "abcde"), ("ro", "abcde"), ("leibniz", "abcd")])
def test_lifts_by_relabeling_equal_lifts_by_substitution(name, letters):
    def listing(pairs):
        return [(tag, list(p.terms.items())) for tag, p in pairs]

    ident, vs = fixture(name), variables(letters)
    got = listing(iter_lifted(ident, len(vs), vs))
    assert got == listing(_lifted_by_substitution(ident, vs))
    assert len(got) == (len(ident.variables) + 2) * len(list(itertools.permutations(vs)))


def test_a_lift_reads_each_term_of_its_identity_once(monkeypatch):
    # one family per variable and two of products by a letter, all compiled
    # from one read of the identity's terms
    reads, read_tree = [], consequence.read_tree
    monkeypatch.setattr(consequence, "read_tree", lambda m: reads.append(m) or read_tree(m))
    rj = fixture("rj")
    assert len(list(compiled_instances([rj], V5))) == (len(rj.variables) + 2) * 120
    assert sorted(reads) == sorted(rj.lhs.terms)


def test_lifting_nothing_gives_nothing():
    gens = []
    for ident in []:
        gens.extend(p for _, p in iter_lifted(ident, 5, V5))
    assert gens == []


def test_instances_relabel_at_the_degree_and_lift_one_below_in_order():
    idents = [fixture("rj"), fixture("lts-a"), fixture("ro"), fixture("lts-b")]
    expected = [
        *iter_lifted(fixture("rj"), 5, V5),
        *iter_relabelings(fixture("lts-a"), V5),
        *iter_lifted(fixture("ro"), 5, V5),
        *iter_relabelings(fixture("lts-b"), V5),
    ]
    assert list(compiled_instances(idents, V5)) == _compiled_listing(expected)


def test_instances_name_unnamed_identities_by_position():
    lts_a, rj = Identity(fixture("lts-a").lhs), Identity(fixture("rj").lhs)
    out = list(compiled_instances([lts_a, rj], V5))
    assert out == _compiled_listing([
        *iter_relabelings(lts_a.renamed("g0"), V5),
        *iter_lifted(rj.renamed("g1"), 5, V5),
    ])
    assert out[0][0] == "g0(a,b,c,d,e)" and out[120][0].startswith("g1(")
    tags = [t for t, _ in compiled_instances([fixture("lts-b"), rj], V5)]
    assert tags[0] == "lts-b(a,b,c,d,e)" and tags[120].startswith("g1(")


def test_instances_reject_a_two_degree_gap():
    with pytest.raises(AlgebraError):
        list(compiled_instances([fixture("leibniz")], V5))
    with pytest.raises(AlgebraError):
        list(compiled_instances([fixture("lts1")], V3))


def test_reduced_interchange_family_equivalent_to_inner_identities():
    # the interchange identities whose outer variant is the second one,
    # reduced to the single operation, are equivalent to the inner
    # skew/cyclic identities at degree 5
    from algforge.core import apply_rules, rename_ops
    from algforge.fixtures import elimination_rules

    m1 = TERNARY.with_variant(1)
    reduced = []
    for n in (
        "interchange-br-2.1.2",
        "interchange-br-2.1.3",
        "interchange-br-2.3.2",
        "interchange-br-2.3.3",
    ):
        red = rename_ops(apply_rules(fixture(n).lhs, elimination_rules()), {m1: TERNARY})
        reduced.append(Identity(red, name=f"{n}-reduced"))
    inner = [
        fixture(n)
        for n in ("inner2-skew", "inner2-cyclic", "inner3-skew", "inner3-cyclic")
    ]
    assert sets_equivalent(reduced, inner, 5, V5).equivalent


def test_lifted_rejects_larger_gap_and_nonbinary():
    with pytest.raises(UnsupportedLift):
        list(iter_lifted(fixture("leibniz"), 5, V5))
    with pytest.raises(UnsupportedLift):
        list(iter_lifted(fixture("lts1"), 6, variables("abcdef")))


def test_lifted_rejects_an_identity_with_more_variables_than_its_degree():
    # each term has degree 2, but the terms use three letters between them
    lhs = apply_op(BINARY, [*variables("ab")]) + apply_op(BINARY, [*variables(["bb", "a"])])
    ident = Identity(lhs, name="split")
    message = r"^identity of degree 2 has 3 variables$"
    with pytest.raises(DimensionMismatch, match=message):
        list(compiled_instances([ident], V3))
    with pytest.raises(DimensionMismatch, match=message):
        list(iter_lifted(ident, 3, V3))


def test_in_span_certificate_for_first_equivalence_equation():
    from algforge.consequence import iter_relabelings

    basis = MonomialBasis([TERNARY], 5, V5)
    checker = SpanChecker(list(iter_relabelings(fixture("lts-a"), V5)), basis)
    cert = checker.check(fixture("lts1").lhs)
    assert cert.ok and cert.verify()


def test_zero_in_empty_span():
    basis = MonomialBasis([TERNARY], 3, V3)
    cert = SpanChecker([], basis).check(Polynomial.zero())
    assert cert.ok and cert.coefficients == {} and cert.verify()


def test_not_in_span_gives_first_unmatched_witness():
    basis = MonomialBasis([TERNARY], 3, V3)
    target = apply_op(TERNARY, [Monomial.leaf(v) for v in V3])
    res = SpanChecker([], basis).check(target)
    assert isinstance(res, NotInSpan)
    assert res.witness == basis.monomials[0] or res.witness in basis.monomials
    # the witness is the least monomial of the residual in canonical order
    assert res.witness == min(target.terms, key=lambda m: m.sort_key())


def test_span_monotonicity():
    from algforge.consequence import iter_relabelings

    basis = MonomialBasis([TERNARY], 5, V5)
    small = list(iter_relabelings(fixture("lts-a"), V5))
    big = small + list(iter_relabelings(fixture("lts-b"), V5))
    target = fixture("lts1").lhs
    assert SpanChecker(small, basis).check(target).ok
    assert SpanChecker(big, basis).check(target).ok


def test_sets_equivalent_is_an_equivalence_relation():
    sets = {
        "pair": [fixture("lts-a"), fixture("lts-b")],
        "quad": [fixture(n) for n in ("lts1", "lts2", "lts-b", "lts3")],
        "inner": [
            fixture(n)
            for n in ("inner2-skew", "inner2-cyclic", "lts-a", "lts-b")
        ],
    }
    # reflexive
    assert sets_equivalent(sets["pair"], sets["pair"], 5, V5).equivalent
    # symmetric
    ab = sets_equivalent(sets["pair"], sets["quad"], 5, V5).equivalent
    ba = sets_equivalent(sets["quad"], sets["pair"], 5, V5).equivalent
    assert ab and ba
    # transitive across the fixture triple
    bc = sets_equivalent(sets["quad"], sets["inner"], 5, V5).equivalent
    ac = sets_equivalent(sets["pair"], sets["inner"], 5, V5).equivalent
    assert bc and ac


def test_sets_not_equivalent_when_strictly_smaller():
    res = sets_equivalent([fixture("lts1")], [fixture("lts-a"), fixture("lts-b")], 5, V5)
    assert not res.equivalent
    assert all(c.ok for c in res.forward.values())
    assert not all(c.ok for c in res.backward.values())


def test_kernel_identity_map_is_zero():
    basis = MonomialBasis([TERNARY], 3, V3)
    kernel = kernel_of_expansion(basis, lambda m: Polynomial({m: Fraction(1)}))
    assert kernel == []


def test_kernel_degree3_expansion_is_zero():
    basis = MonomialBasis([TERNARY], 3, V3)
    assert kernel_of_expansion(basis, expand_ternary) == []


def test_kernel_vectors_expand_to_zero():
    basis = MonomialBasis([TERNARY], 5, V5)
    kernel = kernel_of_expansion(basis, expand_ternary)
    assert len(kernel) == 240
    probe = kernel[0] + kernel[-1].scale(Fraction(3, 2))
    assert expand_ternary(probe).is_zero


def test_certificate_soundness_random_targets():
    from algforge.consequence import iter_relabelings

    basis = MonomialBasis([TERNARY], 5, V5)
    gens = list(iter_relabelings(fixture("lts-a"), V5))
    gens += list(iter_relabelings(fixture("lts-b"), V5))
    checker = SpanChecker(gens, basis)
    # combinations of generators always certify and re-expand exactly
    target = (
        gens[0][1].scale(Fraction(2, 3))
        - gens[17][1]
        + gens[200][1].scale(Fraction(-5, 7))
    )
    cert = checker.check(target)
    assert cert.ok
    assert cert.combination() == target


@cache
def _instance_span(kind):
    """Instances as tree polynomials, and the checker over their compiled
    stream: relabelings of lts-a and lts-b over the tree basis, or the raw
    rj/ro lifts over the straightened-word basis."""
    if kind == "relabelings":
        idents, basis = [fixture("lts-a"), fixture("lts-b")], MonomialBasis([TERNARY], 5, V5)
    else:
        idents, basis = [fixture("rj"), fixture("ro")], RCBasis(BINARY, 5, V5)
    return list(reference_instances(idents, V5)), SpanChecker(compiled_instances(idents, V5), basis)


NONZERO = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 6))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["relabelings", "lifts"]), data=st.data())
def test_random_combinations_of_instances_certify(kind, data):
    gens, checker = _instance_span(kind)
    picks = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=6, unique=True))
    weights = {i: data.draw(NONZERO) for i in picks}
    target = Polynomial.linear_image(weights, lambda i: gens[i][1])
    cert = checker.check(target)
    assert cert.ok and cert.verify()
    assert cert.combination() == checker.basis.normal(target)
    assert set(cert.generators) == set(cert.coefficients) <= set(checker.generators)


def _listing(pairs):
    """Tags, terms in insertion order, and the type of every coefficient."""
    return [(tag, [(m, c, type(c)) for m, c in p.terms.items()]) for tag, p in pairs]


def _compiled_listing(pairs):
    """The compiled form a tree-polynomial stream stands for."""
    return [(tag, [(m.shape_key(), m.leaf_names(), c) for m, c in p.terms.items()])
            for tag, p in pairs]


_MUL, _DOT = OpSymbol("mul", 2), OpSymbol("dot", 2)
_BR, _TR_2, _NEG = OpSymbol("br", 3), OpSymbol("tr", 3, 2), OpSymbol("neg", 1)
_SCALARS = st.integers(-3, 3).filter(bool) | st.builds(
    Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(2, 6))


def _tree(data, ops, leaves):
    """A random tree over ``ops`` whose leaves, left to right, are ``leaves``:
    products of neighbouring items, with at most two unary nodes, until one
    item is left."""
    items, unary = [Monomial.leaf(v) for v in leaves], 2 * any(op.arity == 1 for op in ops)
    while len(items) > 1 or unary and data.draw(st.booleans()):
        fits = [op for op in ops if op.arity <= len(items) and (op.arity > 1 or unary)]
        op = data.draw(st.sampled_from(fits))
        unary -= op.arity == 1
        at = data.draw(st.integers(0, len(items) - op.arity))
        items[at:at + op.arity] = [Monomial.apply(op, items[at:at + op.arity])]
    return items[0]


def _identity(data, ops, degree, name):
    """A random multilinear identity of one degree over ``ops``."""
    vs = variables("pqrstu"[:degree])
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        terms[_tree(data, ops, data.draw(st.permutations(vs)))] = data.draw(_SCALARS)
    lhs = Polynomial(terms)
    if lhs.is_zero:
        lhs = Polynomial({_tree(data, ops, vs): 1})
    return Identity(lhs, vs, signature=ops if len(ops) == 1 else None, name=name)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compiled_stream_equals_the_tree_built_oracle(data):
    names = st.sampled_from(["rj", "x-1", None])
    # relabelings over ternary and mixed signatures; a ternary tree has odd degree
    ops = data.draw(st.sampled_from([[_BR], [_BR, _TR_2], [_MUL, _BR], [_MUL, _BR, _NEG]]))
    degree = data.draw(st.sampled_from([3, 5] if _MUL not in ops else [2, 3, 4]))
    # one-letter variables, or beside a and b the variable ab, which a lift's
    # product of a and b in one slot must not be tagged as
    letters = data.draw(st.sampled_from(["abcde", ["a", "b", "ab", "c", "d"]]))
    vs = variables(data.draw(st.permutations(letters))[:degree])
    same = _identity(data, ops, degree, data.draw(names))
    # lifts of a tree over one binary operation, one degree up
    lifted = _identity(data, [data.draw(st.sampled_from([_MUL, _DOT]))], degree - 1,
                       data.draw(names))

    ident = lifted.renamed(lifted.name or "g0")
    assert _listing(iter_lifted(ident, degree, vs)) == _listing(
        reference_lifted(ident, degree, vs))
    assert _listing(iter_relabelings(same, vs)) == _listing(reference_relabelings(same, vs))

    idents = data.draw(st.permutations([same, lifted]))
    oracle = list(reference_instances(idents, vs))
    compiled = list(compiled_instances(idents, vs))
    assert compiled == _compiled_listing(oracle)
    assert [[type(c) for _, _, c in terms] for _, terms in compiled] == [
        [type(c) for c in p.terms.values()] for _, p in oracle]


def _typed(stream):
    return [(tag, [(key, letters, c, type(c)) for key, letters, c in g]) for tag, g in stream]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_per_family_yields_the_first_instance_of_each_family(data):
    names = st.sampled_from(["rj", "x-1", None])
    ops = data.draw(st.sampled_from([[_BR], [_BR, _TR_2], [_MUL, _BR], [_MUL, _BR, _NEG]]))
    degree = data.draw(st.sampled_from([3, 5] if _MUL not in ops else [2, 3, 4]))
    letters = data.draw(st.sampled_from(["abcde", ["a", "b", "ab", "c", "d"]]))
    vs = variables(data.draw(st.permutations(letters))[:degree])
    same = _identity(data, ops, degree, data.draw(names))
    lifted = _identity(data, [data.draw(st.sampled_from([_MUL, _DOT]))], degree - 1,
                       data.draw(names))
    idents = data.draw(st.permutations([same, lifted]))
    full = list(compiled_instances(idents, vs))
    # each family is read at every permutation, the letters in order first:
    # the relabelings, each slot of a lift, and its factor on the right and
    # on the left, read in step
    orders, want = len(list(itertools.permutations(vs))), []
    for ident in idents:
        for width in [1] if ident is same else [1] * (degree - 1) + [2]:
            want += full[:width]
            full = full[width * orders:]
    assert full == []
    assert _typed(compiled_instances(idents, vs, one_per_family=True)) == _typed(want)


def test_iter_relabelings_refuses_an_identity_of_another_degree_rather_than_lift_it():
    # compiled_instances lifts rj over five letters; iter_relabelings only relabels
    assert len(list(compiled_instances([fixture("rj")], V5))) == 720
    for ident, vs in [(fixture("rj"), V5), (fixture("lts1"), V3)]:
        with pytest.raises(DimensionMismatch) as err:
            next(iter_relabelings(ident, vs))
        assert str(err.value) == f"identity has {len(ident.variables)} variables, got {len(vs)}"


def _same_checker(got, want):
    assert [(t, list(g.terms.items())) for t, g in got.generators.items()] == [
        (t, list(g.terms.items())) for t, g in want.generators.items()]
    assert list(got.table.pivots.items()) == list(want.table.pivots.items())


def test_jordan_checker_equals_a_checker_over_the_tree_built_instances():
    rj, ro = fixture("rj"), fixture("ro")
    checker = build_jordan_checker(rj, ro, V5, BINARY)
    oracle = SpanChecker(reference_instances([rj, ro], V5), RCBasis(BINARY, 5, V5))
    assert len(checker.generators) == 1440 and checker.rank == oracle.rank
    _same_checker(checker, oracle)


def test_compiled_relabelings_build_the_tree_built_checker():
    idents = [fixture("lts-a"), fixture("lts-b")]
    basis = MonomialBasis([TERNARY], 5, V5)
    checker = SpanChecker(compiled_instances(idents, V5), basis)
    _same_checker(checker, SpanChecker(reference_instances(idents, V5), basis))
    # each generator is made of the basis's own trees
    assert all(m is basis.monomials[basis.index[m]]
               for g in checker.generators.values() for m in g.terms)


def _inside(basis_kind):
    a, b, c = (Monomial.leaf(v) for v in V3)
    if basis_kind.startswith("planar"):
        return apply_op(TERNARY, [a, b, c])
    return apply_op(BINARY, [apply_op(BINARY, [a, b]), c])


def _outside(basis_kind):
    a, b, c = (Monomial.leaf(v) for v in V3)
    if basis_kind == "planar":
        return MonomialBasis([TERNARY], 3, V3), apply_op(TERNARY, [a, a, b])
    if basis_kind == "planar-other-op":
        return MonomialBasis([TERNARY], 3, V3), apply_op(BINARY, [apply_op(BINARY, [a, b]), c])
    if basis_kind == "other-product":
        return RCBasis(BINARY, 3, V3), apply_op(_DOT, [apply_op(_DOT, [a, b]), c])
    return RCBasis(BINARY, 3, V3), apply_op(TERNARY, [a, b, c])


@pytest.mark.parametrize("basis_kind, message", [
    ("planar", "monomial br(a,a,b) is outside this basis"),
    ("planar-other-op", "monomial mul(mul(a,b),c) is outside this basis"),
    ("other-product", "monomial (ab)c is outside this basis"),
    ("ternary", "straightening requires a binary operation"),
])
def test_a_compiled_instance_is_refused_as_its_tree_would_be(basis_kind, message):
    # the term before the outside one is inside, so a basis that keeps the
    # columns it reads keeps its; the refusal is not kept, and comes again
    basis, outside = _outside(basis_kind)
    ident = Identity(_inside(basis_kind) + outside, V3, name="x")
    refusals = []
    for stream in (reference_instances, compiled_instances, compiled_instances):
        with pytest.raises(AlgebraError) as err:
            SpanChecker(stream([ident], V3), basis)
        refusals.append((type(err.value), str(err.value)))
    kind = AlgebraError if basis_kind == "ternary" else DimensionMismatch
    assert refusals == [(kind, message)] * 3


@pytest.mark.parametrize("kind", ["lifted", "relabelings"])
def test_a_compiled_instance_reads_as_the_vector_of_its_normal_form(kind):
    if kind == "lifted":
        basis, idents = RCBasis(BINARY, 5, V5), [fixture("rj"), fixture("ro")]
    else:
        basis = MonomialBasis([TERNARY], 5, V5)
        idents = [fixture(n) for n in ("lts-a", "lts-b", "inner3-skew")]
    compiled = list(compiled_instances(idents, V5))
    assert len(compiled) == (1440 if kind == "lifted" else 360)
    # each is read three ways: its columns, its normal form, and its
    # tree-built polynomial, which the basis reads term by term
    for (tag, g), (tree_tag, tree) in zip(compiled, reference_instances(idents, V5)):
        assert tag == tree_tag
        want = typed_items(basis.vector(tree))
        assert typed_items(basis.vector(g)) == want
        assert typed_items(basis.vector(basis.normal(g))) == want
        assert typed_items(basis.normal(g).terms) == typed_items(basis.normal(tree).terms)
        assert typed_items(basis.normal(tree, basis.vector(tree)).terms) == (
            typed_items(basis.normal(tree).terms))


def test_an_unnamed_identity_is_tagged_alike_by_both_streams():
    ident = Identity(fixture("lts-a").lhs)
    rendered = list(iter_relabelings(ident, V5))
    compiled = list(compiled_instances([ident], V5))
    assert [tag for tag, _ in rendered] == [tag for tag, _ in compiled]
    assert rendered[0][0] == "g0(a,b,c,d,e)"
    for (_, p), (_, terms) in zip(rendered, compiled):
        assert repr(p) == repr(Polynomial({form_tree(key, letters): c
                                           for key, letters, c in terms}))


@pytest.mark.parametrize("kind", ["planar", "rc"])
def test_a_bare_tree_target_is_read_as_its_one_term_polynomial(kind):
    rj, ro = fixture("rj"), fixture("ro")
    if kind == "planar":
        checker = SpanChecker(compiled_instances([rj, ro], V5), MonomialBasis([BINARY], 5, V5))
    else:
        checker = build_jordan_checker(rj, ro, V5, BINARY)
    basis, tree = checker.basis, parse_product("(ab)(c(de))", BINARY)
    poly = Polynomial({tree: 1})
    assert typed_items(basis.vector(tree)) == typed_items(basis.vector(poly))
    assert typed_items(basis.normal(tree).terms) == typed_items(basis.normal(poly).terms)
    got, want = checker.check(tree), checker.check(poly)
    assert not got.ok and repr(got.witness) == repr(want.witness)
    # a tree the basis does not hold is refused as its polynomial is
    outside = parse_product("(ab)(c(da))", BINARY)
    refusals = {_refusal(lambda: checker.check(t)) for t in (outside, Polynomial({outside: 1}))}
    assert len(refusals) == 1


@pytest.mark.parametrize("kind", ["compiled", "tree"])
def test_check_reads_a_target_once(kind, monkeypatch):
    checker = build_jordan_checker(fixture("rj"), fixture("ro"), V5, BINARY)
    assert checker.rank  # every generator read, so only the target is read below
    basis = checker.basis
    target = next(compiled_instances([fixture("rj")], V5))[1]
    if kind == "tree":
        target = next(iter_lifted(fixture("rj"), 5, V5))[1]
    vectors, straightened = [], []
    vector, expand = basis.vector, rightcomm.rc_expand
    monkeypatch.setattr(basis, "vector", lambda p: vectors.append(p) or vector(p))
    monkeypatch.setattr(rightcomm, "rc_expand", lambda p: straightened.append(p) or expand(p))
    cert = checker.check(target)
    # a tree target is read by its (shape key, letters) pairs, as a compiled one
    assert len(vectors) == 1 and not straightened
    assert cert.ok and cert.verify() and cert.target == basis.normal(target)


@pytest.mark.parametrize("kind", ["rc", "planar"])
def test_a_repeated_tag_on_compiled_input(kind):
    if kind == "rc":
        basis, ident = RCBasis(BINARY, 5, V5), fixture("rj")
    else:
        basis, ident = MonomialBasis([TERNARY], 5, V5), fixture("lts-a")
    (tag, g), (_, h) = itertools.islice(compiled_instances([ident], V5), 2)
    assert basis.normal(g) != basis.normal(h)
    twice = [(key, letters, 2 * c) for key, letters, c in g]
    # an equal generator under a kept tag is skipped, whether the kept one
    # became a pivot (g) or not (twice, which depends on g)
    checker = SpanChecker([(tag, g), (tag, list(g)), ("2g", twice), ("2g", list(twice))], basis)
    assert list(checker.generators) == [tag, "2g"] and checker.rank == 1
    assert checker.generators["2g"] == basis.normal(twice)
    # an unequal one is refused in either case
    for gens in ([(tag, g), (tag, h)], [("g", g), ("2g", twice), ("2g", h)]):
        with pytest.raises(AlgebraError) as err:
            SpanChecker(gens, basis)
        assert str(err.value) == f"duplicate generator tag {gens[-1][0]!r}"


@pytest.mark.parametrize("kind", ["relabelings", "lifted"])
def test_rendered_instances_are_made_of_the_basis_trees(kind):
    if kind == "relabelings":
        basis = MonomialBasis([TERNARY], 5, V5)
        rendered = [p for name in ("lts-a", "lts-b") for _, p in iter_relabelings(fixture(name), V5)]
    else:
        basis = MonomialBasis([BINARY], 5, V5)
        rendered = [p for name in ("rj", "ro") for _, p in iter_lifted(fixture(name), 5, V5)]
    assert rendered
    assert all(m is basis.monomials[basis.index[m]] for p in rendered for m in p.terms)


def _certificates(checker, targets):
    out = []
    for target in targets:
        cert = checker.check(target)
        out.append((cert.ok, cert.lines() if cert.ok else repr(cert.witness)))
    return out


@pytest.mark.parametrize("kind", ["relabelings", "lifted"])
def test_an_emptied_tree_cache_leaves_pivots_and_certificates_unchanged(kind):
    if kind == "relabelings":
        op, idents = TERNARY, [fixture("lts-a"), fixture("lts-b")]
        targets = [fixture(n).lhs for n in ("lts1", "lts2", "lts3", "inner2-skew")]
    else:
        op, idents = BINARY, [fixture("rj")]
        left_normed = Monomial.leaf(V5[0])
        for v in V5[1:]:
            left_normed = Monomial.apply(BINARY, [left_normed, Monomial.leaf(v)])
        targets = [p for _, p in itertools.islice(iter_lifted(fixture("rj"), 5, V5), 0, None, 97)]
        targets.append(Polynomial({left_normed: 1}))

    def rendered():
        for ident in idents:
            if ident.degree == 5:
                yield from iter_relabelings(ident, V5)
            else:
                yield from iter_lifted(ident, 5, V5)

    def build(clear: bool):
        basis = MonomialBasis([op], 5, V5)
        if clear:
            core._tree.cache_clear()
        checker = SpanChecker(rendered(), basis)
        return checker, _certificates(checker, targets)

    shared, shared_certs = build(clear=False)
    apart, apart_certs = build(clear=True)
    assert not all(m is apart.basis.monomials[apart.basis.index[m]]
                   for g in apart.generators.values() for m in g.terms)
    _same_checker(apart, shared)
    assert apart_certs == shared_certs
    assert any(ok for ok, _ in shared_certs)


def _refusal(build) -> tuple:
    with pytest.raises(AlgebraError) as err:
        build()
    return type(err.value), str(err.value)


_NM = "op br/3\nnm: br(a,b,br(c,d,e)) - br(a,a,br(c,d,e))\n"


@pytest.mark.parametrize("case", ["late", "outside", "clash"])
def test_on_demand_refuses_what_the_constructor_refuses(case):
    lts_a, lts_b = fixture("lts-a"), fixture("lts-b")
    basis, vs = MonomialBasis([TERNARY], 5, V5), V5
    if case == "late":  # a third identity named lts-a, with lts-b's body
        idents = [lts_a, lts_b, Identity(lts_b.lhs, name="lts-a")]
        want = (AlgebraError, "duplicate generator tag 'lts-a(a,b,c,d,e)'")
    elif case == "outside":  # behind lts-a, whose first instance is the target
        idents = [lts_a, parse_file(_NM)[1][0]]
        want = (DimensionMismatch, "monomial br(a,a,br(c,d,e)) is outside this basis")
    else:  # the unnamed second identity is g1 as well
        idents = [Identity(lts_a.lhs, name="g1"), Identity(lts_b.lhs)]
        want = (AlgebraError, "duplicate generator tag 'g1(a,b,c,d,e)'")
    assert _refusal(lambda: SpanChecker(compiled_instances(idents, vs), basis)) == want
    assert _refusal(lambda: SpanChecker.on_demand(idents, vs, basis).check(lts_a.lhs)) == want
    assert _refusal(lambda: sets_equivalent(idents, [lts_a, lts_b], 5, vs)) == want


def test_multi_letter_variables_lift_with_distinct_tags_and_read_on_demand():
    # beside the variable ab, the product of a and b in one slot is tagged a*b
    vs, rj = variables(["a", "b", "ab", "c", "d"]), [fixture("rj")]
    tags = [tag for tag, _ in compiled_instances(rj, vs)]
    assert len(set(tags)) == len(tags) == 720
    assert tags[0] == "rj(a*b,ab,c,d)" and "rj(ab,a*b,c,d)" in tags
    # single-letter tags are spelled as before
    assert next(compiled_instances(rj, V5))[0] == "rj(ab,c,d,e)"
    basis, read = RCBasis(BINARY, 5, vs), []

    def counted():
        for tag, g in compiled_instances(rj, vs):
            read.append(tag)
            yield tag, g

    eager = SpanChecker(compiled_instances(rj, vs), basis)
    lazy = SpanChecker.on_demand(rj, vs, basis, counted())
    assert read == []
    left_normed = Monomial.leaf(vs[0])
    for v in vs[1:]:
        left_normed = Monomial.apply(BINARY, [left_normed, Monomial.leaf(v)])
    targets = [g for _, g in itertools.islice(compiled_instances(rj, vs), 0, None, 97)]
    targets.append(Polynomial({left_normed: 1}))
    want = _certificates(eager, targets)
    assert _certificates(lazy, targets) == want and any(ok for ok, _ in want)
    assert lazy.rank == eager.rank
    # sets_equivalent checks the first lift of each family, each against a
    # checker that answers as the constructor's does
    res = sets_equivalent(rj, rj, 5, vs)
    planar = SpanChecker(compiled_instances(rj, vs), MonomialBasis([BINARY], 5, vs))
    firsts = list(compiled_instances(rj, vs, one_per_family=True))
    assert list(res.forward) == list(res.backward) == [tag for tag, _ in firsts]
    for tag, target in firsts:
        want = planar.check(target)
        assert want.ok and res.forward[tag].lines() == res.backward[tag].lines() == want.lines()


def test_on_demand_reads_generators_only_as_far_as_an_answer_needs():
    idents = [fixture("lts-a"), fixture("lts-b")]
    read = []

    def counted():
        for tag, g in compiled_instances(idents, V5):
            read.append(tag)
            yield tag, g

    checker = SpanChecker.on_demand(idents, V5, MonomialBasis([TERNARY], 5, V5), counted())
    assert read == []
    # lts-a over a..e is the first instance
    assert checker.check(fixture("lts-a").lhs).lines() == ["1 * lts-a(a,b,c,d,e)"]
    assert read == ["lts-a(a,b,c,d,e)"]
    # a "no" reads every generator, as do rank and generators
    a, b, c, d, e = (Monomial.leaf(v) for v in V5)
    off = fixture("lts1").lhs + apply_op(TERNARY, [a, b, apply_op(TERNARY, [c, d, e])])
    assert not checker.check(off).ok
    assert len(read) == 240 and checker.rank == 240 and len(checker.generators) == 240


@cache
def _streams(kind):
    """Identities, their basis, their instances as tree polynomials and as
    the compiled stream: lts-a/lts-b/lts3 relabelings over the tree basis,
    or the rj/ro lifts over the straightened-word basis."""
    if kind == "relabelings":
        idents = [fixture("lts-a"), fixture("lts-b"), fixture("lts3")]
        basis = MonomialBasis([TERNARY], 5, V5)
    else:
        idents, basis = [fixture("rj"), fixture("ro")], RCBasis(BINARY, 5, V5)
    trees = [p for _, p in reference_instances(idents, V5)]
    return idents, basis, trees, list(compiled_instances(idents, V5))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["relabelings", "lifts"]), data=st.data())
def test_an_on_demand_checker_answers_as_the_eager_one(kind, data):
    idents, basis, trees, compiled = _streams(kind)
    rng = data.draw(st.randoms(use_true_random=False))
    order = rng.sample(range(len(compiled)), rng.randint(1, len(compiled)))
    stream = [compiled[i] for i in order]
    eager = SpanChecker(stream, basis)
    lazy = SpanChecker.on_demand(idents, V5, basis, stream)
    element = type(basis.normal(trees[0]))
    for _ in range(data.draw(st.integers(1, 6))):
        step = data.draw(st.sampled_from(["in", "any", "off", "rank", "generators"]))
        if step == "rank":
            assert lazy.rank == eager.rank
            continue
        if step == "generators":
            _same_checker(lazy, eager)
            continue
        # a combination of streamed instances, of any instances, or of
        # streamed ones plus one basis element
        pool = range(len(trees)) if step == "any" else order
        picks = data.draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        target = basis.normal(Polynomial.linear_image(
            {i: data.draw(NONZERO) for i in picks}, trees.__getitem__))
        if step == "off":
            target = target + element({data.draw(st.sampled_from(basis.monomials)): 1})
        got, want = lazy.check(target), eager.check(target)
        assert got.ok == want.ok
        if want.ok:
            assert typed_items(got.coefficients) == typed_items(want.coefficients)
            assert got.lines() == want.lines() and got.verify()
        else:
            assert got.witness == want.witness
    assert lazy.rank == eager.rank
    _same_checker(lazy, eager)
