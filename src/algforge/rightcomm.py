"""The free right-commutative algebra in multilinear degrees up to 5.

Right commutativity x(uv) = x(vu) lets the right factor of any product be
reordered.  On planar binary trees it swaps the children of any node that
is itself the right child of a product.  Every product inside a right
factor can swap too: swap its parent, then it, then the parent back.  Only
the left spine (the root, its left child, that child's left child, ...)
never changes.  So the orbit of a monomial, its set of equal monomials, is
every independent choice of order at the products off the left spine.
Each orbit keeps one canonical member, its least: least association type
first, then lexicographically least letter sequence.  It is built bottom
up, keeping at each product off the spine the smaller of its two orders.

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

``RCBasis`` is the ``consequence.MonomialBasis`` of the canonical words: its
normal form is ``rc_expand``, so the straightening of span generators and
targets happens here and nowhere else.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Sequence, Union

from .core import (
    AlgebraError,
    Identity,
    LinComb,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    accumulate,
    apply_op,
    fold,
)
from .consequence import MonomialBasis, SpanChecker, enumerate_shapes, instances, instantiate_shape

MAX_DEGREE = 5


class DegreeTooLarge(AlgebraError):
    """Straightening is only defined through degree 5."""


def _join(left: tuple, right: tuple) -> tuple:
    """The (shape key, letters) form of the product of two such forms."""
    (kl, ll), (kr, lr) = left, right
    return (len(lr), kl, kr), ll + lr


def _least_form(m: Monomial) -> tuple:
    """(shape key, letters) of the least member of the orbit of ``m``.

    The left spine stays as it stands; each right factor on it is folded to
    its least form, keeping at every product the smaller of its two orders.
    Any operation other than the root's raises ``AlgebraError``.
    """
    op = m.op

    def leaf(v: Variable) -> tuple:
        return (), (v.name,)

    def node(o: OpSymbol, kids: list) -> tuple:
        if o != op:
            raise AlgebraError(
                f"straightening needs one operation, found {o.display()} in {op.display()}"
            )
        left, right = kids
        return min(_join(left, right), _join(right, left))

    rights = []
    while not m.is_leaf and m.op == op:
        m, right = m.children
        rights.append(right)
    form = fold(m, leaf, node)  # a leaf, or another operation, which raises
    for right in reversed(rights):
        form = _join(form, fold(right, leaf, node))
    return form


@cache
def _types(op: OpSymbol, degree: int) -> tuple[list[Monomial], dict[tuple, int]]:
    """The association types of one operation and degree, and the type index
    of each type's shape key; built once per (operation, degree)."""
    if op.arity != 2:
        raise AlgebraError("right commutativity concerns binary operations")
    least = {}
    for shape in enumerate_shapes([op], degree):
        key, letters = _least_form(shape)
        # every swap moves a letter, so a type is a shape that keeps its letters
        if letters == shape.leaf_names():
            least[key] = shape
    keys = sorted(least)
    return [least[k] for k in keys], {k: i for i, k in enumerate(keys, start=1)}


def canonical_shapes(op: OpSymbol, degree: int) -> list[Monomial]:
    """Association types of the degree: the shapes that are their own least
    form, in shape order."""
    return _types(op, degree)[0]


class RCWord(NamedTuple):
    """A canonical monomial: association type index plus letter sequence."""

    op: OpSymbol
    degree: int
    type_index: int
    letters: tuple[str, ...]

    def sort_key(self) -> tuple:
        return (self.degree, self.type_index, self.letters)

    def monomial(self) -> Monomial:
        shape = canonical_shapes(self.op, self.degree)[self.type_index - 1]
        return instantiate_shape(shape, [Variable(x) for x in self.letters])

    def render(self) -> str:
        body = fold(self.monomial(), lambda v: v.name, lambda _, args: f"({args[0]}{args[1]})")
        return body[1:-1] if self.degree > 1 else body

    def __repr__(self) -> str:
        return self.render()


class RCPolynomial(LinComb):
    """Canonical combination of straightened words with nonzero ``int`` or
    ``Fraction`` coefficients."""

    __slots__ = ()

    _order = staticmethod(RCWord.sort_key)
    _render_key = staticmethod(RCWord.render)


def rc_straighten(m: Monomial) -> RCWord:
    """The least member of the orbit of a monomial of degree at most 5."""
    if m.degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {m.degree} exceeds {MAX_DEGREE}")
    op = OpSymbol("_leaf", 2) if m.is_leaf else m.op
    if op.arity != 2:
        raise AlgebraError("straightening requires a binary operation")
    key, letters = _least_form(m)
    return RCWord(op, m.degree, _types(op, m.degree)[1][key], letters)


def rc_expand(p: Union[Polynomial, Monomial]) -> RCPolynomial:
    """Straighten every term, aggregating and cancelling coefficients."""
    if isinstance(p, Monomial):
        p = Polynomial({p: 1})
    return RCPolynomial._from_terms(
        accumulate({}, ((rc_straighten(m), c) for m, c in p.terms.items()))
    )


def permuted_associator_image(m: Monomial, product: OpSymbol) -> Polynomial:
    """Rewrite a ternary tree through <x,y,z> -> (x,z,y) = (xz)y - x(zy)."""

    def node(op: OpSymbol, args: list) -> Polynomial:
        if op.arity != 3:
            raise AlgebraError(f"{op.display()} is not ternary")
        x, y, z = args
        xz = apply_op(product, [x, z])
        zy = apply_op(product, [z, y])
        return apply_op(product, [xz, y]) - apply_op(product, [x, zy])

    return fold(m, Polynomial._coerce, node)


def permuted_associator_expand(
    identity: Union[Identity, Polynomial], product: OpSymbol | None = None
) -> RCPolynomial:
    """Expand a ternary identity through the permuted associator and straighten."""
    if product is None:
        product = OpSymbol("mul", 2)
    p = identity.lhs if isinstance(identity, Identity) else identity
    return rc_expand(
        Polynomial.linear_image(p.terms, lambda m: permuted_associator_image(m, product))
    )


class RCBasis(MonomialBasis):
    """All canonical words of one degree over fixed variables, sorted.  Its
    normal form straightens a tree polynomial, so a ``SpanChecker`` over it
    takes raw instances and targets."""

    def __init__(self, op: OpSymbol, degree: int, variables: Sequence[Variable]):
        # not MonomialBasis.__init__: the planar basis it builds has 1.6 times
        # as many trees, all held at once, only to be straightened
        variables = tuple(variables)
        if len(variables) != degree:
            raise AlgebraError("need exactly one variable per leaf")
        self.op = op
        self.degree = degree
        self.variables = variables
        seen: set[RCWord] = set()
        for shape in canonical_shapes(op, degree):
            for perm in itertools.permutations(sorted(variables)):
                seen.add(rc_straighten(instantiate_shape(shape, perm)))
        self.monomials: list[RCWord] = sorted(seen, key=lambda w: w.sort_key())
        self.index = {w: i for i, w in enumerate(self.monomials)}

    def normal(self, p: Union[Polynomial, RCPolynomial]) -> RCPolynomial:
        return p if isinstance(p, RCPolynomial) else rc_expand(p)


def symmetry_order(op: OpSymbol, degree: int, type_index: int) -> int:
    """Number of same-shape members in a generic orbit of this type: 2 to
    the number of products off the left spine whose factors share a shape."""

    def node(op: OpSymbol, kids: list) -> tuple:
        # (shape, count as it stands on the spine, count off the spine)
        (kl, l_spine, l_off), (kr, _, r_off) = kids
        return (kl, kr), l_spine + r_off, l_off + r_off + (kl == kr)

    shape = canonical_shapes(op, degree)[type_index - 1]
    return 2 ** fold(shape, lambda _: ((), 0, 0), node)[1]


def build_jordan_checker(
    rj: Identity, ro: Identity, variables: Sequence[Variable], product: OpSymbol
) -> SpanChecker:
    """Elimination table over the one-step liftings of RJ and RO, which its
    basis straightens."""
    basis = RCBasis(product, len(tuple(variables)), variables)
    return SpanChecker(instances([rj, ro], variables), basis)
