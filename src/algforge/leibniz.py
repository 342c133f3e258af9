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

Every word of a tree's expansion is a permutation of its leaves, so the
expansion depends only on the tree's shape.  A shape is expanded once, by
the fold of ``free_product`` over its leaf slots, into a table of (letter
getter, coefficient) pairs, and every tree of that shape is read from the
table, one letter map per word; with a repeated letter, equal words merge
as they are summed.

Right multiplication by a bracketing of k letters is an iterated commutator
of k right multiplications, so it turns one word into at most 2 ** (k - 1)
words.  That bounds, with one fold over each shape and nothing expanded,
the terms a shape's fill accumulates and the words a tree reads, and
``EXPANSION_LIMIT`` caps their sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Union

from .core import (
    AlgebraError,
    Identity,
    LinComb,
    Monomial,
    OpSymbol,
    Polynomial,
    VariableClash,
    accumulate,
    fold_shape,
    items_at,
    read_tree,
    variables,
)

Word = tuple[str, ...]

# The most word terms one expansion may accumulate before any shape table is
# filled: one fill per distinct shape key, cached or not, plus each term's
# bound on its words.  At about 5 us a term (a right-nested comb of 12
# letters accumulates 699,051 in 3.1 s on a 2-core x86 box under CPython
# 3.11, of 13 letters 2.8 million), 10**6 take about 5 s.
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


@lru_cache(maxsize=512)
def _work(key: tuple) -> tuple[int, int]:
    """(a bound on the words, the word terms the fill accumulates) of a tree
    of this shape key, counted by one fold over (degree, bound on its words,
    terms so far): a product of u and v words, v of degree k, accumulates
    u * v * 2 ** (k - 1) terms into at most u * 2 ** (k - 1) words.  It
    reads the shape alone, so it is cached like ``_table``."""

    def product(left: tuple, right: tuple) -> tuple:
        (dl, wl, tl), (dr, wr, tr) = left, right
        return dl + dr, wl << (dr - 1), tl + tr + (wl * wr << (dr - 1))

    return fold_shape(key, lambda _: (1, 1, 0), lambda _, args: reduce(product, args))[1:]


_KINDS = {2: "binary", 3: "ternary"}


def _node(arity: int) -> Callable:
    """The fold's image of a bracket: the left-normalized product of its
    arguments, for brackets of ``arity`` only."""

    def node(op: OpSymbol, args: list) -> TensorPolynomial:
        if op.arity != arity:
            raise AlgebraError(f"{op.display()} is not {_KINDS[arity]}")
        return reduce(lambda u, v: free_product(u, v, check_disjoint=False), args)

    return node


@lru_cache(maxsize=512)
def _table(key: tuple, arity: int) -> tuple:
    """The expansion of a shape key's trees, one (``items_at`` getter,
    coefficient) pair per word in the order the fold lists them over
    distinct letters: a tree's word is the getter applied to its leaf names.

    Filled by the fold over the shape's leaf slots, so it builds no tree.
    The cache holds the tables of the 512 shapes expanded last: every
    binary shape to degree 7 (197) and every ternary one to degree 9 (72)
    fit together.  A fill that raises leaves no entry."""
    words = fold_shape(key, lambda i: TensorPolynomial.word((i,)), _node(arity))
    return tuple((items_at(w), c) for w, c in words.terms.items())


def _expand(p: Union[Monomial, Polynomial], arity: int) -> TensorPolynomial:
    """Read brackets of one arity into word form, each bracket the
    left-normalized product of its arguments, every tree from its shape's
    table."""
    terms = p.terms if isinstance(p, Polynomial) else {p: 1}
    read = [(*read_tree(m), c) for m, c in terms.items()]
    # each term reads its words, and each distinct shape is filled once
    work, fills = 0, {}
    for key, _, _ in read:
        words, fills[key] = _work(key)
        work += words
    work += sum(fills.values())
    if work > EXPANSION_LIMIT:
        raise ExpansionTooLarge(
            f"expansion too large: up to {work} word terms, over {EXPANSION_LIMIT}"
        )
    out: dict[Word, Fraction] = {}
    for key, names, c in read:
        accumulate(out, [(get(names), s) for get, s in _table(key, arity)], c)
    return TensorPolynomial._from_terms(out)


def expand_binary_tree(m: Union[Monomial, Polynomial]) -> TensorPolynomial:
    """Expand a bracketing over one binary operation into word form."""
    return _expand(m, 2)


def expand_ternary(m: Union[Monomial, Polynomial]) -> TensorPolynomial:
    """Expand a ternary bracketing via the iterated product <x,y,z> = (x.y).z."""
    return _expand(m, 3)


def holds_in_free(identity: Identity) -> bool:
    """True iff the ternary identity vanishes under the iterated product."""
    if not identity.is_multilinear():
        raise AlgebraError("free-algebra check requires a multilinear identity")
    return expand_ternary(identity.lhs).is_zero
