"""Invariants shared by every sparse linear combination, the reduced
echelon form of expansion kernels, and the exact-scalar invariant: every
stored coefficient is an ``int`` or a ``Fraction``, never a ``float``."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers

from algforge.consequence import MonomialBasis, SpanChecker, kernel_of_expansion
from algforge.core import AlgebraError, LinComb, Monomial, Polynomial, Variable, variables
from algforge.fixtures import BINARY, TERNARY, fixture
from algforge.leibniz import TensorPolynomial, expand_ternary
from algforge.parsing import Signature, parse
from algforge.rightcomm import RCPolynomial, rc_straighten
from algforge.systems import BinaryAlgebra, SymPoly, TernaryTable, build_envelope

LEAVES = [Monomial.leaf(v) for v in variables("abcd")]


def _rc_words():
    words = set()
    for x, y, z in itertools.permutations(LEAVES[:3]):
        words.add(rc_straighten(Monomial.apply(BINARY, (Monomial.apply(BINARY, (x, y)), z))))
        words.add(rc_straighten(Monomial.apply(BINARY, (x, Monomial.apply(BINARY, (y, z))))))
    return sorted(words)


# a few keys per class; the SymPoly keys include unsorted spellings of the
# same monomial, which the constructor must merge
KEYS = {
    Polynomial: LEAVES + [Monomial.apply(TERNARY, p) for p in itertools.permutations(LEAVES[:3])],
    TensorPolynomial: list(itertools.permutations("abcd", 3)),
    RCPolynomial: _rc_words(),
    SymPoly: [(), ("x",), ("y",), ("x", "y"), ("y", "x"), ("x", "x")],
}
CLASSES = pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
# the key pools are small, so fewer examples than the default cover them
examples = settings(max_examples=40, deadline=None)


def combos(cls):
    return st.dictionaries(st.sampled_from(KEYS[cls]), COEFFS, max_size=6).map(cls)


@CLASSES
def test_arithmetic_comes_from_the_one_base(cls):
    assert issubclass(cls, LinComb)
    assert cls.__slots__ == ()
    for name in ("__add__", "__sub__", "scale", "__eq__", "__hash__", "normalized"):
        assert name not in vars(cls)


@CLASSES
@examples
@given(data=st.data())
def test_no_stored_zero_coefficient(cls, data):
    p, q, c = data.draw(combos(cls)), data.draw(combos(cls)), data.draw(COEFFS)
    for r in (p, q, p + q, p - q, -p, p.scale(c), p.normalized()):
        assert all(r.terms.values())


@CLASSES
@examples
@given(data=st.data())
def test_negation_cancels_and_subtraction_undoes_addition(cls, data):
    p, q = data.draw(combos(cls)), data.draw(combos(cls))
    assert (p + (-p)).is_zero
    assert (p + q) - q == p


@CLASSES
@examples
@given(data=st.data())
def test_scaling_distributes_over_addition(cls, data):
    p, q, c = data.draw(combos(cls)), data.draw(combos(cls)), data.draw(COEFFS)
    assert (p + q).scale(c) == p.scale(c) + q.scale(c)


@CLASSES
@examples
@given(data=st.data())
def test_equal_values_have_equal_hashes(cls, data):
    p, q = data.draw(combos(cls)), data.draw(combos(cls))
    reordered = cls(dict(reversed(list(p.terms.items()))))
    for r in (reordered, (p + q) - q):
        assert r == p and hash(r) == hash(p)


@CLASSES
@examples
@given(data=st.data())
def test_normalized_is_idempotent(cls, data):
    n = data.draw(combos(cls)).normalized()
    assert n.normalized() == n
    assert all(c.denominator == 1 for c in n.terms.values())


def _assert_reduced_echelon(basis, kernel, image):
    """Each kernel vector has 1 at its own free column (its last column) and
    0 at every other free column, and its image vanishes."""
    free = [max(basis.index[m] for m in p.terms) for p in kernel]
    assert len(set(free)) == len(kernel)
    for p, own in zip(kernel, free):
        vec = basis.vector(p)
        assert vec[own] == 1
        assert not any(f in vec for f in free if f != own)
        assert TensorPolynomial.linear_image(p.terms, image).is_zero


def test_ternary_expansion_kernel_is_in_reduced_echelon_form():
    basis = MonomialBasis([TERNARY], 5, variables("abcde"))
    kernel = kernel_of_expansion(basis, expand_ternary)
    assert len(kernel) == 240
    _assert_reduced_echelon(basis, kernel, expand_ternary)


@examples
@given(data=st.data())
def test_kernel_of_any_linear_map_is_in_reduced_echelon_form(data):
    basis = MonomialBasis([TERNARY], 3, variables("abc"))
    images = {m: data.draw(combos(TensorPolynomial)) for m in basis.monomials}
    kernel = kernel_of_expansion(basis, images.__getitem__)
    _assert_reduced_echelon(basis, kernel, images.__getitem__)


def exact(values) -> bool:
    """The coefficient invariant: every value is an ``int`` or a ``Fraction``
    (a ``bool`` or a ``float`` is neither)."""
    return all(type(c) in (int, Fraction) for c in values)


@CLASSES
def test_float_coefficients_are_rejected(cls):
    key = KEYS[cls][0]
    for c in (0.5, 0.0, 2.0):
        with pytest.raises(AlgebraError):
            cls({key: c})
        with pytest.raises(AlgebraError):
            cls({key: 1}).scale(c)


@CLASSES
@examples
@given(data=st.data())
def test_coefficients_stay_exact_and_integral_ones_are_ints(cls, data):
    p, q, c = data.draw(combos(cls)), data.draw(combos(cls)), data.draw(COEFFS)
    for r in (p, q, p + q, p - q, -p, p.scale(c)):
        assert exact(r.terms.values())
    # an integral Fraction (or a bool) is stored as the int it stands for
    ints = data.draw(st.dictionaries(st.sampled_from(KEYS[cls]), st.integers(-4, 4), max_size=6))
    given_as = {k: data.draw(st.sampled_from([n, Fraction(2 * n, 2)])) for k, n in ints.items()}
    as_ints = (cls(given_as), cls(given_as).scale(Fraction(3, 3)), cls({KEYS[cls][0]: True}))
    for r in as_ints + (p.normalized(),):
        assert all(type(x) is int for x in r.terms.values())


def test_keys_merged_by_the_constructor_store_an_integral_sum_as_int():
    p = SymPoly({("x", "y"): Fraction(1, 2), ("y", "x"): Fraction(1, 2)})
    assert p.terms == {("x", "y"): 1} and type(p.terms[("x", "y")]) is int
    assert type(p.normalized().terms[("x", "y")]) is int


def test_degree5_kernel_coefficients_are_exact():
    basis = MonomialBasis([TERNARY], 5, variables("abcde"))
    kernel = kernel_of_expansion(basis, expand_ternary)
    assert all(exact(p.terms.values()) for p in kernel)


def _polynomials(monomials):
    return st.dictionaries(st.sampled_from(monomials), COEFFS, max_size=5).map(Polynomial)


@examples
@given(data=st.data())
def test_span_certificates_and_pivot_rows_are_exact(data):
    basis = MonomialBasis([BINARY], 3, variables("abc"))
    gens = data.draw(st.lists(_polynomials(basis.monomials), min_size=1, max_size=8))
    weights = data.draw(st.lists(COEFFS, min_size=len(gens), max_size=len(gens)))
    target = Polynomial.linear_image(dict(enumerate(weights)), gens.__getitem__)
    checker = SpanChecker(list(enumerate(gens)), basis)
    for vec, combo in checker.table.pivots.values():
        assert exact(vec.values()) and exact(combo.values())
    cert = checker.check(target)
    assert cert.ok and cert.verify()
    assert exact(cert.coefficients.values())
    assert exact(cert.combination().terms.values())


@examples
@given(st.lists(
    st.tuples(st.integers(-6, 6), st.integers(1, 4), st.sampled_from("abcd")), min_size=1
))
def test_parsed_rational_coefficients_are_exact(terms):
    text = " ".join(f"{'-' if n < 0 else '+'} {abs(n)}/{d}*{v}" for n, d, v in terms)
    p = parse(text, Signature())
    expected = {}
    for n, d, v in terms:
        key = Monomial.leaf(Variable(v))
        expected[key] = expected.get(key, 0) + Fraction(n, d)
    assert exact(p.terms.values())
    assert p.terms == {k: c for k, c in expected.items() if c}
    (two,) = parse("4/2*a", Signature()).terms.values()
    assert type(two) is int


@st.composite
def fractional_tables(draw):
    """A random table of arity 2 or 3 and dimension 1-3 with Fraction
    constants, and one sparse vector per factor."""
    cls = draw(st.sampled_from([BinaryAlgebra, TernaryTable]))
    dim = draw(st.integers(1, 3))
    cols = st.integers(0, dim - 1)
    constants = draw(st.dictionaries(
        st.tuples(*[cols] * cls.arity), st.dictionaries(cols, COEFFS), max_size=10
    ))
    factors = [draw(st.dictionaries(cols, COEFFS)) for _ in range(cls.arity)]
    return cls(dim, [f"e{i + 1}" for i in range(dim)], constants), factors


@examples
@given(fractional_tables(), st.data())
def test_structure_table_products_are_exact(case, data):
    table, factors = case
    assert all(exact(vec.values()) for vec in table.c.values())
    assert exact(table.multiply_into(factors).values())
    identity = fixture("lts-a" if table.arity == 3 else "leibniz")
    cols = st.integers(0, table.dim - 1)
    assignment = {v.name: {data.draw(cols): 1} for v in identity.variables}
    assert exact(helpers.reference_evaluate(table, identity, assignment).values())
    if table.arity == 3:
        envelope = build_envelope(table)
        assert all(exact(vec.values()) for vec in envelope.c.values())
