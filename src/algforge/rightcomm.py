"""The free right-commutative algebra in multilinear degrees up to 5.

Right commutativity x(uv) = x(vu) lets the right factor of any product be
reordered.  On planar binary trees it swaps the children of any node that
is itself the right child of a product.  Every product inside a right
factor can swap too: swap its parent, then it, then the parent back.  Only
the left spine (the root, its left child, that child's left child, ...)
never changes.  So the orbit of a monomial, its set of equal monomials, is
every independent choice of order at the products off the left spine.
Each orbit keeps one canonical member, its least: least association type
first, then lexicographically least letter sequence.  A shape is its key,
``Monomial.shape_key``.  One table per (operation, degree), ``by_shape``,
maps each shape key to its orbit's type and the letter orders of its orbit
members of that type.  It is built from each shape's orbit, listed by
``core.fold_shape`` over the key's leaf positions and ordered by a compact
(right degree, left, right) key, so no tree is built; a tree straightens by
one ``core.read_tree`` of its shape key and leaf names and one lookup.  The
types are listed as keys (``canonical_shapes``); a word's tree is its
type's key filled with its letters by ``form_tree``, and a word renders by
folding that key over its letters.

The permuted-associator expansion of a ternary tree depends only on its
shape, as the free expansion of ``leibniz`` does.  One table per (ternary
shape key, bracket, product) is filled once by folding the shape's leaf
positions into the shape keys of its binary words, with no binary tree
built; each entry is one output word: its sign, its (operation, degree,
type) head, and its ``by_shape`` getters read at its leaf positions.  A
tree is read once by ``core.read_tree``, so the expansion of a term is one
read, one table lookup and one ``min`` of getter reads per word.

Association types per degree are derived, not hard-coded: a binary shape
is a type when it is its own least form, and the types are numbered in
shape order.  In degree 5 this yields the familiar nine types, ordered

    1 (((ab)c)d)e   2 ((a(bc))d)e   3 ((ab)(cd))e   4 (a((bc)d))e
    5 ((ab)c)(de)   6 (a(bc))(de)   7 (ab)((cd)e)   8 a(((bc)d)e)
    9 a((bc)(de))

where the shape order compares, recursively, the degree of the right factor
and then the two factors' keys.  A type's symmetry count, the number of
equal forms of its shape in one orbit, doubles at each product off the
spine whose two factors have the same shape (type 6 has 4 equal forms,
type 9 has 8); the tests check the least forms and the counts against a
brute-force orbit closure.

``RCBasis`` is the ``consequence.MonomialBasis`` of the canonical words, so
the straightening of span generators and targets happens here and nowhere
else.  A basis reads a compiled instance, (shape key, letters, coefficient)
triples, and a tree polynomial, by the (shape key, letters) pair of each
term, and straightens with no tree or word built: the column tables of
``MonomialBasis`` are filled here, a shape key's in one go the first time
it is read, by one orbit ``min`` per letter order looked up in a per-type
dict from canonical letters to column.  A pair that misses the tables is
named by its word, and a key outside the ``by_shape`` table (another
operation or degree) is straightened as its tree, which keeps the tree's
error.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache, partial
from typing import NamedTuple, Sequence, Union

from .core import (
    BINARY,
    LEAF_KEY,
    AlgebraError,
    Identity,
    LinComb,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    accumulate,
    fold,
    fold_shape,
    form_tree,
    items_at,
    node_key,
    read_tree,
)
from .consequence import (
    MonomialBasis,
    SpanChecker,
    _basis_variables,
    enumerate_shapes,
    instance_vectors,
)

MAX_DEGREE = 5
_LEAF = OpSymbol("_leaf", 2)  # the operation of every word of degree 1


class DegreeTooLarge(AlgebraError):
    """Straightening is only defined through degree 5."""


def _join(left: tuple, right: tuple) -> tuple:
    """The (compact key, letters) form of the product of two such forms: the
    compact key of a product is (right degree, left key, right key), of a
    leaf ``()``."""
    (kl, ll), (kr, lr) = left, right
    return (len(lr), kl, kr), ll + lr


def _orbit(key: tuple) -> list[tuple]:
    """(compact key, leaf positions) of each orbit member of a shape key's
    trees, itself first."""

    def leaf(i: int) -> tuple:
        forms = [((), (i,))]
        return forms, forms

    def node(_, kids: list) -> tuple:
        # (forms with this product on the spine; off it, in both orders)
        (l_spine, l_off), (_, r_off) = kids
        pairs = list(itertools.product(l_off, r_off))
        return ([_join(l, r) for l in l_spine for r in r_off],
                [_join(l, r) for l, r in pairs] + [_join(r, l) for l, r in pairs])

    return fold_shape(key, leaf, node)[0]


class _Types(NamedTuple):
    shapes: list[tuple]  # the types' shape keys
    perms: list[tuple]  # per type, letter getters of its orbit members of its shape
    by_shape: dict[tuple, tuple[int, tuple]]  # shape key -> (orbit's type, getters for it)


@cache
def _types(op: OpSymbol, degree: int) -> _Types:
    """The association types of one operation and degree, in shape order,
    and the orbit table of every shape; built once per (operation, degree)."""
    if op.arity != 2:
        raise AlgebraError("right commutativity concerns binary operations")
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {degree} exceeds {MAX_DEGREE}")
    orbits, types = {}, {}
    for shape in enumerate_shapes([op], degree):
        forms = _orbit(shape)
        own, least = forms[0][0], min(key for key, _ in forms)
        orbits[shape] = least, tuple(items_at(p) for key, p in forms if key == least)
        if own == least:
            types[own] = shape
    index = {key: i for i, key in enumerate(sorted(types), start=1)}
    by_shape = {shape: (index[least], perms) for shape, (least, perms) in orbits.items()}
    shapes = [types[key] for key in index]
    return _Types(shapes, [by_shape[shape][1] for shape in shapes], by_shape)


def canonical_shapes(op: OpSymbol, degree: int) -> list[tuple]:
    """Association types of the degree: the shape keys of the shapes that are
    their own least form, in shape order."""
    return _types(op, degree).shapes


class RCWord(NamedTuple):
    """A canonical monomial: association type index plus letter sequence."""

    op: OpSymbol
    degree: int
    type_index: int
    letters: tuple[str, ...]

    def sort_key(self) -> tuple:
        return (self.degree, self.type_index, self.letters)

    def monomial(self) -> Monomial:
        return form_tree(canonical_shapes(self.op, self.degree)[self.type_index - 1],
                         self.letters)

    def render(self) -> str:
        key = canonical_shapes(self.op, self.degree)[self.type_index - 1]
        body = fold_shape(key, self.letters.__getitem__, lambda _, args: f"({args[0]}{args[1]})")
        return body[1:-1] if self.degree > 1 else body

    def __repr__(self) -> str:
        return self.render()


class RCPolynomial(LinComb):
    """Canonical combination of straightened words with nonzero ``int`` or
    ``Fraction`` coefficients."""

    __slots__ = ()

    _order = staticmethod(RCWord.sort_key)
    _render_key = staticmethod(RCWord.render)


def _word(op: OpSymbol, entry: tuple, letters: tuple) -> RCWord:
    """The word of the tree with these letters whose shape has this orbit
    table entry (its orbit's type, and getters for the letters of each
    orbit member of that type)."""
    type_index, perms = entry
    word = min([letters_of(letters) for letters_of in perms])
    return RCWord(op if len(letters) > 1 else _LEAF, len(letters), type_index, word)


def _one_operation(op: OpSymbol, o: OpSymbol, _) -> None:
    """A fold node that refuses every operation but ``op``."""
    if o is not op:
        raise AlgebraError(
            f"straightening needs one operation, found {o.display()} in {op.display()}"
        )


def rc_straighten(m: Monomial) -> RCWord:
    """The least member of the orbit of a monomial of degree at most 5."""
    op = _LEAF if m.is_leaf else m.op
    if op.arity != 2:
        raise AlgebraError("straightening requires a binary operation")
    key, letters = read_tree(m)
    try:
        entry = _types(op, len(letters)).by_shape[key]
    except (KeyError, DegreeTooLarge):
        # a second operation is named before the degree
        fold(m, lambda v: None, partial(_one_operation, op))
        raise
    return _word(op, entry, letters)


def rc_expand(p: Union[Polynomial, Monomial]) -> RCPolynomial:
    """Straighten every term, aggregating and cancelling coefficients."""
    if isinstance(p, Monomial):
        p = Polynomial({p: 1})
    return RCPolynomial._from_terms(
        accumulate({}, ((rc_straighten(m), c) for m, c in p.terms.items()))
    )


def _associator_node(ternary: OpSymbol, product: OpSymbol, op: OpSymbol,
                     args: list) -> list[tuple]:
    """<x,y,z> -> (x,z,y) = (xz)y - x(zy) on (sign, shape key, letters)
    terms, listed in the order that multiplying out the trees lists them;
    ``ternary`` is the one operation it reads as the bracket."""
    if op.arity != 3:
        raise AlgebraError(f"{op.display()} is not ternary")
    if op is not ternary:
        raise AlgebraError(
            f"the permuted associator needs one ternary operation,"
            f" found {op.display()} in {ternary.display()}"
        )
    x, y, z = args
    plus, minus = [], []
    for sx, kx, lx in x:
        for sz, kz, lz in z:
            for sy, ky, ly in y:
                sign, letters = sx * sz * sy, lx + lz + ly
                plus.append((sign, node_key(product, (node_key(product, (kx, kz)), ky)), letters))
                minus.append((-sign, node_key(product, (kx, node_key(product, (kz, ky)))), letters))
    return plus + minus


@lru_cache(maxsize=512)
def _associator_table(key: tuple, ternary: OpSymbol, product: OpSymbol) -> tuple:
    """The permuted-associator expansion of a ternary shape key's trees, one
    (sign, word head, letter getters) entry per word in the order the fold
    lists them: a tree's word is its head (operation, degree, type index)
    and the least of the getters applied to its leaf names.

    Filled by the fold of ``_associator_node`` over the shape's leaf
    positions, so it builds no tree; a word's getters are the ``by_shape``
    getters for its shape key, composed with its leaf positions.  The
    cache holds the tables of the 512 shapes expanded last, like
    ``leibniz._table``; a fill that raises leaves no entry."""
    image = fold_shape(key, lambda i: [(1, LEAF_KEY, (i,))],
                       partial(_associator_node, ternary, product))
    degree = len(image[0][2])  # every word has the shape's degree
    by_shape = _types(product, degree).by_shape
    op = product if degree > 1 else _LEAF
    out = []
    for sign, shape, positions in image:
        type_index, perms = by_shape[shape]
        out.append((sign, (op, degree, type_index),
                    tuple(items_at(letters_of(positions)) for letters_of in perms)))
    return tuple(out)


def permuted_associator_expand(
    identity: Union[Identity, Polynomial], product: OpSymbol = BINARY
) -> RCPolynomial:
    """Expand a ternary identity through the permuted associator and straighten,
    every tree read once by ``read_tree`` and expanded from its shape's table."""
    p = identity.lhs if isinstance(identity, Identity) else identity
    ternary = next((op for m in p.terms for op in m.ops()), None)
    out: dict = {}
    for m, c in p.terms.items():
        key, names = read_tree(m)
        accumulate(out, ((RCWord(*head, min([get(names) for get in gets])), sign)
                         for sign, head, gets in _associator_table(key, ternary, product)), c)
    return RCPolynomial._from_terms(out)


class RCBasis(MonomialBasis):
    """All canonical words of one degree over fixed variables, sorted.  The
    element of a (shape key, letters) pair, a compiled term's or a tree's,
    is its straightened word, so a ``SpanChecker`` over it takes raw
    instances and targets.  A shape key's column table maps each letter
    order to the column of its orbit's least letters in ``_words``, one
    dict per type from a canonical letter sequence to its column."""

    _normal_type = RCPolynomial

    def __init__(self, op: OpSymbol, degree: int, variables: Sequence[Variable]):
        # not MonomialBasis.__init__: the planar basis it builds has 1.6 times
        # as many trees, all held at once, only to be straightened
        variables = _basis_variables(degree, variables)
        self.op = op
        self.degree = degree
        self.variables = variables
        self._orders = list(itertools.permutations(sorted(v.name for v in variables)))
        types = _types(op, degree)
        self.monomials: list[RCWord] = []
        self._words: list[dict[tuple, int]] = []
        for t, perms in enumerate(types.perms, start=1):
            # a type's words: the letter sequences least among their orbit's
            words = [w for w in self._orders if all(w <= letters_of(w) for letters_of in perms)]
            self._words.append(dict(zip(words, itertools.count(len(self.monomials)))))
            self.monomials += [RCWord(op if degree > 1 else _LEAF, degree, t, w) for w in words]
        self.index = {w: i for i, w in enumerate(self.monomials)}
        self._tables = {}

    def _fill(self, key: tuple) -> dict[tuple, int]:
        """The column table of a shape key: each letter order's orbit least
        letters looked up in its type's ``_words``; empty for a key outside
        the ``by_shape`` table."""
        entry = _types(self.op, self.degree).by_shape.get(key)
        if entry is None:
            return {}
        type_index, perms = entry
        words = self._words[type_index - 1]
        return {w: words[min([letters_of(w) for letters_of in perms])] for w in self._orders}

    # a refused pair names its word, or fails as its tree does
    _element = staticmethod(rc_straighten)


def symmetry_order(op: OpSymbol, degree: int, type_index: int) -> int:
    """Number of same-shape members in a generic orbit of this type: 2 to
    the number of products off the left spine whose factors share a shape."""
    return len(_types(op, degree).perms[type_index - 1])


def build_jordan_checker(
    rj: Identity, ro: Identity, variables: Sequence[Variable], product: OpSymbol
) -> SpanChecker:
    """Elimination table over the one-step liftings of RJ and RO, which its
    basis straightens."""
    variables = tuple(variables)
    basis = RCBasis(product, len(variables), variables)
    return SpanChecker(instance_vectors([rj, ro], variables, basis), basis)
