"""Invariants shared by every sparse linear combination, and the reduced
echelon form of expansion kernels."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algforge.consequence import MonomialBasis, kernel_of_expansion
from algforge.core import LinComb, Monomial, Polynomial, variables
from algforge.fixtures import BINARY, TERNARY
from algforge.leibniz import TensorPolynomial, expand_ternary
from algforge.rightcomm import RCPolynomial, rc_straighten
from algforge.systems import SymPoly

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
