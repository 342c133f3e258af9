"""The free Leibniz algebra on a variable set, in tensor-word normal form.

Basis monomials are plain words v1 v2 ... vm (tensor symbols omitted): the
word of length m stands for the left-normalized product
((...((v1.v2).v3)...).vm), and one association type per degree suffices.
The product is bilinear and defined on words by recursion on the length of
the right factor:

    w . (single letter z)  =  w z                      (append)
    w . (Y z)              =  (w . Y) z  -  (w z) . Y  (split off last letter)

which is the unique bilinear product satisfying the append rule and the
law x.(y.z) = (x.y).z - (x.z).y.  Expanding an arbitrary bracketing of a
binary tree therefore lands back in word form, and a ternary bracket is
expanded through the iterated product <x,y,z> -> (x.y).z.

Right multiplication by a bracketing of k letters is an iterated commutator
of k right multiplications, so it turns one word into at most 2 ** (k - 1)
words.  That bounds, with one fold and nothing expanded, the terms an
expansion accumulates, and ``EXPANSION_LIMIT`` caps them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Union

from .core import (
    AlgebraError,
    Identity,
    LinComb,
    Monomial,
    OpSymbol,
    Polynomial,
    VariableClash,
    accumulate,
    fold,
    variables,
)

Word = tuple[str, ...]

# The most word terms one expansion may accumulate: at about 5 us a term (a
# right-nested comb of 12 letters accumulates 699,051 in 3.1 s on a 2-core
# x86 box under CPython 3.11, of 13 letters 2.8 million), 10**6 take about 5 s.
EXPANSION_LIMIT = 10**6


class ExpansionTooLarge(AlgebraError):
    """An expansion would accumulate more than ``EXPANSION_LIMIT`` word terms."""


class TensorPolynomial(LinComb):
    """Canonical combination of tensor words with nonzero ``int`` or
    ``Fraction`` coefficients."""

    __slots__ = ()

    _key = staticmethod(tuple)
    _render_key = staticmethod("".join)

    @staticmethod
    def _order(w: Word) -> tuple:
        return (len(w), w)

    @staticmethod
    def word(letters: Union[str, Iterable[str]]) -> "TensorPolynomial":
        """One word; a string is read as ``core.variables`` reads it, so
        "a b c", "a,b,c" and "abc" are all the word abc."""
        if isinstance(letters, str):
            letters = [v.name for v in variables(letters)]
        w = tuple(letters)
        if not w:
            raise AlgebraError("words must be nonempty")
        return TensorPolynomial({w: 1})

    def letters(self) -> set[str]:
        return {x for w in self.terms for x in w}


def _word_product(w: Word, v: Word) -> dict[Word, Fraction]:
    if len(v) == 1:
        return {w + v: 1}
    head, last = v[:-1], v[-1:]
    # appending a letter is injective, so the first part needs no merging
    out = {u + last: c for u, c in _word_product(w, head).items()}
    return accumulate(out, _word_product(w + last, head).items(), -1)


def free_product(
    u: TensorPolynomial, v: TensorPolynomial, *, check_disjoint: bool = True
) -> TensorPolynomial:
    """Bilinear Leibniz product of tensor polynomials."""
    if check_disjoint:
        shared = u.letters() & v.letters()
        if shared:
            raise VariableClash(
                f"factors share letters {sorted(shared)} in multilinear mode"
            )
    terms: dict[Word, Fraction] = {}
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            accumulate(terms, _word_product(wu, wv).items(), cu * cv)
    return TensorPolynomial._from_terms(terms)


def _work(m: Monomial) -> int:
    """An upper bound on the word terms that expanding ``m`` accumulates,
    counted by one fold over (degree, bound on its words, terms so far): a
    product of u and v words, v of degree k, accumulates u * v * 2 ** (k - 1)
    terms into at most u * 2 ** (k - 1) words."""

    def product(left: tuple, right: tuple) -> tuple:
        (dl, wl, tl), (dr, wr, tr) = left, right
        return dl + dr, wl << (dr - 1), tl + tr + (wl * wr << (dr - 1))

    return fold(m, lambda _: (1, 1, 0), lambda _, args: reduce(product, args))[2]


def _expand(p: Union[Monomial, Polynomial], arity: int, kind: str) -> TensorPolynomial:
    """Read brackets of one arity into word form, each bracket the
    left-normalized product of its arguments."""
    terms = p.terms if isinstance(p, Polynomial) else {p: 1}
    work = sum(map(_work, terms))
    if work > EXPANSION_LIMIT:
        raise ExpansionTooLarge(
            f"expansion too large: up to {work} word terms, over {EXPANSION_LIMIT}"
        )

    def node(op: OpSymbol, args: list) -> TensorPolynomial:
        if op.arity != arity:
            raise AlgebraError(f"{op.display()} is not {kind}")
        return reduce(lambda u, v: free_product(u, v, check_disjoint=False), args)

    return TensorPolynomial.linear_image(
        terms, lambda m: fold(m, lambda v: TensorPolynomial.word((v.name,)), node)
    )


def expand_binary_tree(m: Union[Monomial, Polynomial]) -> TensorPolynomial:
    """Expand a bracketing over one binary operation into word form."""
    return _expand(m, 2, "binary")


def expand_ternary(m: Union[Monomial, Polynomial]) -> TensorPolynomial:
    """Expand a ternary bracketing via the iterated product <x,y,z> = (x.y).z."""
    return _expand(m, 3, "ternary")


def holds_in_free(identity: Identity) -> bool:
    """True iff the ternary identity vanishes under the iterated product."""
    if not identity.is_multilinear():
        raise AlgebraError("free-algebra check requires a multilinear identity")
    return expand_ternary(identity.lhs).is_zero
