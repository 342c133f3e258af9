"""The free right-commutative algebra in multilinear degrees up to 5.

Right commutativity x(uv) = x(vu) lets the right factor of any product be
reordered.  On planar binary trees it acts by swapping the children of any
node that is itself the right child of a product; closing a monomial under
all such swaps gives a finite orbit of equal monomials, generally spanning
several association shapes.  Each orbit keeps one canonical member: least
association type first, then lexicographically least letter sequence.

Association types per degree are derived, not hard-coded: all binary shapes
are closed under the swap moves, each orbit class keeps its least shape, and
the surviving shapes are numbered in shape order.  In degree 5 this yields
the familiar nine types, ordered

    1 (((ab)c)d)e   2 ((a(bc))d)e   3 ((ab)(cd))e   4 (a((bc)d))e
    5 ((ab)c)(de)   6 (a(bc))(de)   7 (ab)((cd)e)   8 a(((bc)d)e)
    9 a((bc)(de))

where the shape order compares, recursively, the degree of the right factor
and then the two factors' keys.  Orbit closure also fixes each type's
symmetry count (type 6 has 4 equal forms, type 9 has 8), which the counting
tests validate against brute enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence, Union

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
)
from .consequence import SpanChecker, instantiate_shape, iter_lifted, shape_of

MAX_DEGREE = 5


class DegreeTooLarge(AlgebraError):
    """Straightening is only defined through degree 5."""


def _shape_rc_key(m: Monomial) -> tuple:
    if m.is_leaf:
        return ()
    left, right = m.children
    return (right.degree, _shape_rc_key(left), _shape_rc_key(right))


def _rc_moves(m: Monomial):
    """Single right-commutativity swaps applicable anywhere in the tree."""
    if m.is_leaf:
        return
    left, right = m.children
    if not right.is_leaf:
        ru, rv = right.children
        yield Monomial.apply(m.op, (left, Monomial.apply(right.op, (rv, ru))))
    for i, child in enumerate(m.children):
        for moved in _rc_moves(child):
            new_children = list(m.children)
            new_children[i] = moved
            yield Monomial.apply(m.op, new_children)


def _orbit(m: Monomial) -> set[Monomial]:
    seen = {m}
    frontier = [m]
    while frontier:
        node = frontier.pop()
        for nxt in _rc_moves(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _binary_shapes(op: OpSymbol, degree: int) -> list[Monomial]:
    if degree == 1:
        return [Monomial.leaf(Variable("p0"))]
    out = []
    for d_left in range(1, degree):
        for left in _binary_shapes(op, d_left):
            for right in _binary_shapes(op, degree - d_left):
                out.append(Monomial.apply(op, (left, right)))
    return out


_TYPES_CACHE: dict[tuple, list[Monomial]] = {}


def canonical_shapes(op: OpSymbol, degree: int) -> list[Monomial]:
    """Association types of the degree: least shape of each orbit class."""
    if op.arity != 2:
        raise AlgebraError("right commutativity concerns binary operations")
    cache_key = (op.name, op.arity, op.variant, degree)
    if cache_key in _TYPES_CACHE:
        return _TYPES_CACHE[cache_key]
    letters = [Variable(f"p{i}") for i in range(degree)]
    canons = set()
    for shape in _binary_shapes(op, degree):
        lettered = instantiate_shape(shape, letters)
        best = min(_orbit(lettered), key=lambda t: (_shape_rc_key(t), t.leaf_names()))
        canons.add(shape_of(best))
    ordered = sorted(canons, key=_shape_rc_key)
    _TYPES_CACHE[cache_key] = ordered
    return ordered


class RCWord:
    """A canonical monomial: association type index plus letter sequence."""

    __slots__ = ("op", "degree", "type_index", "letters", "_hash")

    def __init__(self, op: OpSymbol, degree: int, type_index: int, letters):
        self.op = op
        self.degree = degree
        self.type_index = type_index
        self.letters = tuple(letters)
        self._hash = hash((op, degree, type_index, self.letters))

    def sort_key(self) -> tuple:
        return (self.degree, self.type_index, self.letters)

    def monomial(self) -> Monomial:
        shape = canonical_shapes(self.op, self.degree)[self.type_index - 1]
        return instantiate_shape(shape, [Variable(x) for x in self.letters])

    def render(self) -> str:
        def walk(m: Monomial) -> str:
            if m.is_leaf:
                return m.var.name
            left, right = m.children
            return f"({walk(left)}{walk(right)})"

        body = walk(self.monomial())
        return body[1:-1] if self.degree > 1 else body

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RCWord)
            and self._hash == other._hash
            and self.op == other.op
            and self.degree == other.degree
            and self.type_index == other.type_index
            and self.letters == other.letters
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "RCWord") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return self.render()


class RCPolynomial(LinComb):
    """Canonical Fraction-linear combination of straightened words."""

    __slots__ = ()

    _order = staticmethod(RCWord.sort_key)
    _render_key = staticmethod(RCWord.render)


_STRAIGHTEN_CACHE: dict[Monomial, RCWord] = {}


def rc_straighten(m: Monomial) -> RCWord:
    """Canonical orbit representative of a monomial of degree at most 5."""
    if m.degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {m.degree} exceeds {MAX_DEGREE}")
    cached = _STRAIGHTEN_CACHE.get(m)
    if cached is not None:
        return cached
    if m.is_leaf:
        word = RCWord(OpSymbol("_leaf", 2), 1, 1, m.leaf_names())
        _STRAIGHTEN_CACHE[m] = word
        return word
    op = m.op
    if op.arity != 2:
        raise AlgebraError("straightening requires a binary operation")
    best = min(_orbit(m), key=lambda t: (_shape_rc_key(t), t.leaf_names()))
    shapes = canonical_shapes(op, m.degree)
    skey = _shape_rc_key(best)
    type_index = next(
        i + 1 for i, s in enumerate(shapes) if _shape_rc_key(s) == skey
    )
    word = RCWord(op, m.degree, type_index, best.leaf_names())
    for member in _orbit(m):
        _STRAIGHTEN_CACHE[member] = word
    return word


def rc_expand(p: Union[Polynomial, Monomial]) -> RCPolynomial:
    """Straighten every term, aggregating and cancelling coefficients."""
    if isinstance(p, Monomial):
        p = Polynomial({p: Fraction(1)})
    return RCPolynomial._from_terms(
        accumulate({}, ((rc_straighten(m), c) for m, c in p.terms.items()))
    )


def permuted_associator_image(m: Monomial, product: OpSymbol) -> Polynomial:
    """Rewrite a ternary tree through <x,y,z> -> (x,z,y) = (xz)y - x(zy)."""
    if m.is_leaf:
        return Polynomial({m: Fraction(1)})
    if m.op.arity != 3:
        raise AlgebraError(f"{m.op.display()} is not ternary")
    x, y, z = (permuted_associator_image(c, product) for c in m.children)
    xz = apply_op(product, [x, z])
    zy = apply_op(product, [z, y])
    return apply_op(product, [xz, y]) - apply_op(product, [x, zy])


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


class RCBasis:
    """All canonical words of one degree over fixed variables, sorted."""

    def __init__(self, op: OpSymbol, degree: int, variables: Sequence[Variable]):
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

    def __len__(self) -> int:
        return len(self.monomials)

    def vector(self, p: Union[RCPolynomial, Polynomial]) -> dict[int, Fraction]:
        if isinstance(p, Polynomial):
            p = rc_expand(p)
        vec = {}
        for w, c in p.terms.items():
            i = self.index.get(w)
            if i is None:
                raise AlgebraError(f"word {w!r} is outside this basis")
            vec[i] = c
        return vec


def symmetry_order(op: OpSymbol, degree: int, type_index: int) -> int:
    """Number of same-shape members in a generic orbit of this type."""
    shape = canonical_shapes(op, degree)[type_index - 1]
    letters = [Variable(chr(ord("a") + i)) for i in range(degree)]
    lettered = instantiate_shape(shape, letters)
    skey = _shape_rc_key(shape)
    return sum(1 for t in _orbit(lettered) if _shape_rc_key(t) == skey)


def build_jordan_checker(
    rj: Identity, ro: Identity, variables: Sequence[Variable], product: OpSymbol
) -> SpanChecker:
    """Elimination table over straightened one-step liftings of RJ and RO."""
    degree = len(tuple(variables))
    basis = RCBasis(product, degree, variables)
    tagged = []
    for ident in (rj, ro):
        for tag, poly in iter_lifted(ident, degree, variables):
            rc = rc_expand(poly)
            if not rc.is_zero:
                tagged.append((tag, rc))
    return SpanChecker(tagged, basis, vectorize=basis.vector)


def jordan_reduces(
    target: Union[RCPolynomial, Polynomial],
    rj: Identity,
    ro: Identity,
    variables: Sequence[Variable],
    product: OpSymbol | None = None,
    checker: SpanChecker | None = None,
):
    """Membership of a straightened degree-5 polynomial in the span of the
    lifted, straightened RJ and RO instances; certificate or witness."""
    if product is None:
        product = OpSymbol("mul", 2)
    if checker is None:
        checker = build_jordan_checker(rj, ro, variables, product)
    if isinstance(target, Polynomial):
        target = rc_expand(target)
    return checker.check(target)
