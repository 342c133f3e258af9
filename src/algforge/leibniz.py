"""The free Leibniz algebra on a variable set, in tensor-word normal form.

Basis monomials are plain words v1 v2 ... vm (tensor symbols omitted): the
word of length m stands for the left-normalized product
((...((v1.v2).v3)...).vm), and one association type per degree suffices.
The product is bilinear, and the law x.(y.z) = (x.y).z - (x.z).y says that
right multiplications satisfy R(y.z) = R(y) R(z) - R(z) R(y), acting on the
right (Loday, Enseign. Math. 39 (1993)).  So right multiplication by any
bracketing is an iterated commutator of one-letter operators, and applying
an operator word to a word appends it: concatenation is the module's one
product.  The words of node(a1, ..., ak) are those of a1 followed by
R(a2) ... R(ak), with

    R(leaf z)               =  z
    R(node(a1, ..., ak))    =  [[R(a1), R(a2)], ..., R(ak)],

and ``free_product`` applies to each word of its right factor the iterated
commutator of that word's letters.  An arbitrary bracketing of a binary
tree thus lands back in word form, and a ternary bracket is expanded
through the iterated product <x,y,z> -> (x.y).z.

Every word of a tree's expansion is a permutation of its leaves, so the
expansion depends only on the tree's shape.  A shape is expanded once, by
that rule folded over its leaf slots, into a table of (letter getter,
coefficient) pairs, and every tree of that shape is read from the table,
one letter map per word; with a repeated letter, equal words merge as they
are summed.

R of a bracketing of k letters has at most 2 ** (k - 1) words, so one fold
over each shape, with nothing expanded, bounds the words a tree of it
reads; a fill forms at most 2 (k - 1) times its shape's bound, and
``EXPANSION_LIMIT`` caps each term's bound plus one bound per distinct
shape.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
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
    fold_shape,
    items_at,
    read_tree,
    variables,
)

Word = tuple[str, ...]

# The most words one expansion may count before any shape table is filled:
# each term's bound on its words, plus one bound per distinct shape for its
# fill, cached or not.  At 2 to 4 us a counted word (a right-nested comb of
# 20 letters counts 524,288 and expands in 2.0 s on a 2-core x86 box under
# CPython 3.11, a balanced tree of 23 letters as many in 1.2 s), 10**6 take
# about 4 s; a comb of 21 letters counts 1,048,576 and is refused.
EXPANSION_LIMIT = 10**6


class ExpansionTooLarge(AlgebraError):
    """An expansion would count more than ``EXPANSION_LIMIT`` words."""


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


def _concat(out: dict, x: dict, y: dict, scale=None) -> dict:
    """Add ``scale`` times the concatenation product of the word dicts ``x``
    and ``y`` into ``out``, and return ``out``: applying an operator word to
    a word appends it, and this is the one product the module forms."""
    return accumulate(out, ((u + v, a * b) for u, a in x.items() for v, b in y.items()), scale)


def _commutator(x: dict, y: dict) -> dict:
    """The operator x y - y x, both by ``_concat``."""
    return _concat(_concat({}, x, y), y, x, -1)


def free_product(
    u: TensorPolynomial, v: TensorPolynomial, *, check_disjoint: bool = True
) -> TensorPolynomial:
    """Bilinear Leibniz product of tensor polynomials: each word of ``v``
    multiplies on the right as the iterated commutator of its letters."""
    if check_disjoint:
        shared = u.letters() & v.letters()
        if shared:
            raise VariableClash(
                f"factors share letters {sorted(shared)} in multilinear mode"
            )
    terms: dict[Word, Fraction] = {}
    for wv, cv in v.terms.items():
        _concat(terms, u.terms, reduce(_commutator, ({(x,): 1} for x in wv)), cv)
    return TensorPolynomial._from_terms(terms)


@lru_cache(maxsize=512)
def _work(key: tuple) -> int:
    """A bound on the words of a tree of this shape key, exact when its
    letters are distinct: node(a1, ..., ak) has at most words(a1) times
    2 ** (d_i - 1) words for each later argument a_i of degree d_i.  One
    fold over (degree, bound) reads the shape alone, so it is cached like
    ``_table``."""

    def product(left: tuple, right: tuple) -> tuple:
        (dl, wl), (dr, _) = left, right
        return dl + dr, wl << (dr - 1)

    return fold_shape(key, lambda _: (1, 1), lambda _, args: reduce(product, args))[1]


_KINDS = {2: "binary", 3: "ternary"}


@lru_cache(maxsize=512)
def _table(key: tuple, arity: int) -> tuple:
    """The expansion of a shape key's trees, one (``items_at`` getter,
    coefficient) pair per word: a tree's word is the getter applied to its
    leaf names.

    Filled by the module's rule folded over the shape's leaf slots, so it
    builds no tree: each bracket, of ``arity`` only, gives its words and a
    thunk for its R, the one-letter word i at leaf i.  Each thunk runs at
    most once, and the root's never.  The cache holds the tables of the
    512 shapes expanded last: every binary shape to degree 7 (197) and
    every ternary one to degree 9 (72) fit together.  A fill that raises
    leaves no entry."""

    def node(op: OpSymbol, args: list) -> tuple:
        if op.arity != arity:
            raise AlgebraError(f"{op.display()} is not {_KINDS[arity]}")
        (words, first), rest = args[0], [r() for _, r in args[1:]]
        for r in rest:
            words = _concat({}, words, r)
        return words, lambda: reduce(_commutator, rest, first())

    words, _ = fold_shape(key, lambda i: ({(i,): 1}, lambda: {(i,): 1}), node)
    return tuple((items_at(w), c) for w, c in words.items())


def _expand(p: Union[Monomial, Polynomial], arity: int) -> TensorPolynomial:
    """Read brackets of one arity into word form, each bracket the
    left-normalized product of its arguments, every tree from its shape's
    table."""
    terms = p.terms if isinstance(p, Polynomial) else {p: 1}
    read = [(*read_tree(m), c) for m, c in terms.items()]
    # each term reads its words, and each distinct shape is filled once
    keys = [key for key, _, _ in read]
    work = sum(map(_work, keys)) + sum(map(_work, set(keys)))
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
