"""Exact arithmetic for multilinear nonassociative polynomials.

A monomial is a planar operation tree: either a leaf holding a variable, or
an operation symbol applied to a tuple of child monomials.  A polynomial is
a finite map from monomials to nonzero coefficients, each an ``int`` or a
``Fraction``; the zero polynomial is the empty map, and no arithmetic routine
ever stores a zero coefficient.  A coefficient stays an ``int`` until a
division (a pivot's normalisation, a rewrite rule's solve) makes it
fractional, and is never a ``float``.  All values are immutable after
construction and every operation here is a pure function, so results can be
shared freely.

``LinComb`` is that sparse combination over any hashable key, and the one
arithmetic of the package: ``Polynomial`` here, the tensor words of
``leibniz``, the straightened words of ``rightcomm`` and the symbolic
structure constants of ``systems`` are its subclasses, and ``linalg``'s
elimination vectors grow through the same ``accumulate``.

Monomials are totally ordered: first by tree shape (leaf before operation
node, then by operation symbol, then by child shapes left to right), and
then by the left-to-right sequence of leaf variables.  Sorting by this key
groups terms by association type and orders each group lexicographically,
which is the convention used throughout the identity fixtures.

A shape is its key, ``Monomial.shape_key``: nested tuples that ``LEAF_KEY``
and ``node_key`` write, and only ``form_tree`` and ``fold_shape`` read back.
``read_tree`` is the one reader of a tree's key and leaf names: it walks the
tree once and keeps nothing on it, and ``shape_key``, ``leaf_names``,
``sort_key`` and ``degree`` are views of it.  ``form_tree`` fills a key
with leaf letters from one bounded cache of one tree per (shape key,
letters), whose nodes are made of the cached trees of their children;
``fold_shape`` folds a key as ``fold`` folds a tree, with leaf positions in
place of letters.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union


class AlgebraError(Exception):
    """Base class for errors raised by the symbolic algebra layer."""


class ArityError(AlgebraError):
    """An operation was applied to the wrong number of arguments."""


class VariableClash(AlgebraError):
    """Two factors share variables, so their product is not multilinear."""


class CyclicRules(AlgebraError):
    """A rewrite system failed to reach a fixed point within its bound."""


class Variable:
    """A named indeterminate.  Identity and ordering are by name alone."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise AlgebraError("variable name must be nonempty")
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Variable") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


def variables(names: Union[str, Iterable[str]]) -> tuple[Variable, ...]:
    """Make a tuple of variables from "a b c", "a,b,c", "abc", or an iterable.

    A separator-free string is split into single-letter names, and refused
    if it holds anything but letters, as the expression grammar refuses it;
    pass an iterable for multi-character names.
    """
    if isinstance(names, str):
        parts = names.replace(",", " ").split()
        if len(parts) == 1:
            for ch in parts[0]:
                if not ch.isalpha():
                    raise AlgebraError(f"expected letter, found {ch!r} in {parts[0]!r}")
            parts = list(parts[0])
        names = parts
    return tuple(Variable(n) for n in names)


class OpSymbol:
    """An operation symbol: name, arity, and optional variant subscript.

    Plain input operations carry ``variant=None``; the variant transform
    produces subscripted families ``name_1 .. name_n`` with ``variant=k``.
    ``(name, arity, variant)`` identifies the symbol uniquely: the class
    keeps one interned symbol per triple, so two symbols are equal exactly
    when they are the same object, and they hash and compare by identity
    at C speed in every tree, word and cache key.
    """

    __slots__ = ("name", "arity", "variant", "_key")

    _interned: dict[tuple, "OpSymbol"] = {}

    def __new__(cls, name: str, arity: int, variant: int | None = None):
        found = cls._interned.get((name, arity, variant))
        if found is not None:
            return found
        if arity < 1:
            raise ArityError(f"arity must be positive, got {arity}")
        if variant is not None and variant < 1:
            raise AlgebraError(f"variant must be positive, got {variant}")
        self = super().__new__(cls)
        self.name = name
        self.arity = arity
        self.variant = variant
        self._key = (name, arity, 0 if variant is None else variant)
        # setdefault keeps the first symbol when two threads make one at once
        return cls._interned.setdefault((name, arity, variant), self)

    def __reduce__(self):
        return OpSymbol, (self.name, self.arity, self.variant)

    def display(self) -> str:
        if self.variant is None:
            return self.name
        return f"{self.name}_{self.variant}"

    def key(self) -> tuple:
        return self._key

    def with_variant(self, variant: int | None) -> "OpSymbol":
        return OpSymbol(self.name, self.arity, variant)

    def __lt__(self, other: "OpSymbol") -> bool:
        return self.key() < other.key()

    def __repr__(self) -> str:
        return f"OpSymbol({self.display()}/{self.arity})"


# The paper's two operations: the binary product and the ternary bracket.
BINARY = OpSymbol("mul", 2)
TERNARY = OpSymbol("br", 3)


def items_at(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function from a tuple to the tuple of its items at ``positions``
    (nonempty, repeats allowed): a slice when they run consecutively, else an
    ``itemgetter``, so one position still gives a 1-tuple.  Compiled terms,
    orbit tables and identity roots read their letters or indices with it."""
    first, width = positions[0], len(positions)
    if list(positions) == list(range(first, first + width)):
        return itemgetter(slice(first, first + width))
    return itemgetter(*positions)


# The shape key of a leaf, and of a product node over its children's keys:
# every key is built from these (``read_tree`` inlines ``node_key``), and
# ``form_tree`` and ``fold_shape`` read them back.
LEAF_KEY = (0,)


def node_key(op: OpSymbol, kids: Iterable[tuple]) -> tuple:
    return (1, op.key(), *kids)


class Monomial:
    """A planar operation tree over variables.

    Use ``Monomial.leaf(v)`` and ``Monomial.apply(op, children)``; the raw
    constructor is internal.  Monomials hash and compare structurally; their
    shape key and leaf sequence are read by ``read_tree`` on each call.
    """

    __slots__ = ("var", "op", "children", "_hash")

    def __init__(self, var, op, children):
        self.var = var
        self.op = op
        self.children = children
        self._hash = hash((var, op, children))

    @staticmethod
    def leaf(var: Variable) -> "Monomial":
        if not isinstance(var, Variable):
            var = Variable(var)
        return Monomial(var, None, ())

    @staticmethod
    def apply(op: OpSymbol, children: Sequence["Monomial"]) -> "Monomial":
        children = tuple(children)
        if len(children) != op.arity:
            raise ArityError(
                f"{op.display()} expects {op.arity} arguments, got {len(children)}"
            )
        return Monomial(None, op, children)

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    @property
    def degree(self) -> int:
        return len(read_tree(self)[1])

    def leaf_names(self) -> tuple[str, ...]:
        return read_tree(self)[1]

    def shape_key(self) -> tuple:
        return read_tree(self)[0]

    def sort_key(self) -> tuple:
        return read_tree(self)

    def ops(self) -> Iterator[OpSymbol]:
        """Yield every operation occurrence, root first."""
        if not self.is_leaf:
            yield self.op
            for c in self.children:
                yield from c.ops()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Monomial)
            and self._hash == other._hash
            and self.var == other.var
            and self.op == other.op
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return fold(self, lambda v: v.name, lambda op, args: f"{op.display()}({','.join(args)})")


def fold(m: Monomial, leaf: Callable, node: Callable):
    """The homomorphic image of a tree: ``leaf(var)`` at a leaf and
    ``node(op, images)`` at an operation node, where ``images`` lists the
    children's images left to right.

    Every map that reads a tree into another structure (renaming,
    substitution, rewriting, the free expansions, straightening, evaluation
    in a table, the variant re-subscripting of ``kp``) is one such fold.
    """
    if m.op is None:
        return leaf(m.var)
    return node(m.op, [fold(c, leaf, node) for c in m.children])


def read_tree(m: Monomial) -> tuple[tuple, tuple[str, ...]]:
    """(shape key, leaf names left to right) of a tree, in one walk that
    keeps nothing on the tree; a reader that needs both reads them once."""
    names: list[str] = []

    def walk(n: Monomial) -> tuple:
        if n.op is None:
            names.append(n.var.name)
            return LEAF_KEY
        return (1, n.op._key, *map(walk, n.children))

    return walk(m), tuple(names)


def _key_degree(key: tuple) -> int:
    return 1 if key == LEAF_KEY else sum(map(_key_degree, key[2:]))


@lru_cache(maxsize=4096)
def _tree(key: tuple, letters: tuple[str, ...]) -> Monomial:
    """The one tree of a shape key with these leaf names, left to right, while
    the cache holds it.  A node is made of its children's own entries, so
    the trees of a degree share their subtrees, and the cache keeps the
    degree-5 bases (binary 1,680 trees in 2,425 entries, ternary 360 in
    425).  Equality stays structural; an evicted tree is rebuilt equal."""
    if key == LEAF_KEY:
        return Monomial.leaf(letters[0])
    kids, at = [], 0
    for sub in key[2:]:
        width = _key_degree(sub)
        kids.append(_tree(sub, letters[at:at + width]))
        at += width
    name, arity, variant = key[1]
    # the raw constructor: a shape key has the arity of each of its nodes
    return Monomial(None, OpSymbol(name, arity, variant or None), tuple(kids))


def form_tree(key: tuple, letters: Sequence[str | Variable]) -> Monomial:
    """The tree of a shape key with these leaf letters, left to right."""
    return _tree(key, tuple(x.name if isinstance(x, Variable) else x for x in letters))


def fold_shape(key: tuple, leaf: Callable, node: Callable):
    """``fold`` over the tree of a shape key with ``leaf(i)`` at its i-th leaf
    from the left, counted from 0: the image that every tree of the shape
    has under a map that reads its leaves by position only.  It builds no
    tree."""
    slots = itertools.count()

    def walk(k: tuple):
        if k == LEAF_KEY:
            return leaf(next(slots))
        name, arity, variant = k[1]
        return node(OpSymbol(name, arity, variant or None), [walk(sub) for sub in k[2:]])

    return walk(key)


def format_monomial(m: Monomial) -> str:
    """A monomial in the expression grammar, e.g. ``br(a, br(b, c, d), e)``."""
    return fold(m, lambda v: v.name, lambda op, args: f"{op.display()}({', '.join(args)})")


def q(x):
    """An exact scalar in its plainest type: the ``int`` a ``Fraction`` with
    denominator 1 stands for, any other ``int`` or ``Fraction`` unchanged.
    Anything else, a ``float`` above all, raises ``AlgebraError``."""
    if isinstance(x, (int, Fraction)):
        return x.numerator if x.denominator == 1 else x
    raise AlgebraError(f"coefficient {x!r} is not an int or a Fraction")


def accumulate(terms: dict, pairs: Iterable[tuple], scale=None) -> dict:
    """Add each (key, c) pair, times ``scale`` when given, into ``terms`` in
    place, dropping every sum that cancels; returns ``terms``.

    This is the one accumulation loop of the sparse layer: combinations and
    the elimination table's vectors and combos all grow through it.
    """
    if scale is None:
        for k, c in pairs:
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
    else:
        for k, c in pairs:
            s = terms.get(k, 0) + scale * c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
    return terms


class LinComb:
    """A finite rational linear combination of hashable keys.

    ``terms`` maps each key to its nonzero ``int`` or ``Fraction``
    coefficient (``q`` canonicalises what the constructor and ``scale`` are
    given); the zero combination is the empty map.  Values are immutable once
    built: only code that has just made a combination, and not yet handed it
    out, grows its ``terms`` with ``accumulate``.  A subclass says what its
    keys are: ``_key`` makes a caller's key canonical, ``_order`` sorts keys,
    ``_render_key`` prints one, and ``_coerce`` names the other values that
    stand for a combination.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {}
        if terms:
            key = self._key
            accumulate(self.terms, ((key(k), q(c)) for k, c in terms.items()))
            if len(self.terms) < len(terms):
                # keys that merged may have summed to an integral Fraction
                for k, c in self.terms.items():
                    self.terms[k] = q(c)

    @classmethod
    def _from_terms(cls, terms: dict):
        """Wrap a dict that is already canonical: canonical keys, no zeros."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._from_terms({})

    @classmethod
    def linear_image(cls, terms: Mapping, image: Callable):
        """The sum of ``c * image(k)`` over the (k, c) items of ``terms``,
        where each ``image(k)`` is a combination of this class."""
        out: dict = {}
        for k, c in terms.items():
            accumulate(out, image(k).terms.items(), c)
        return cls._from_terms(out)

    @staticmethod
    def _key(key):
        return key

    @staticmethod
    def _order(key):
        return key

    @classmethod
    def _coerce(cls, x):
        """The combination that ``x`` stands for, or None."""
        return x if isinstance(x, cls) else None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple]:
        order = self._order
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._from_terms(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._from_terms(accumulate(dict(self.terms), other.terms.items(), -1))

    def __neg__(self):
        return self._from_terms({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = q(c)
        if not c:
            return self.zero()
        if c == 1:
            return self
        return self._from_terms({k: q(v * c) for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        return other is not None and self.terms == other.terms

    def __hash__(self):
        # a combination equal to a scalar (through ``_coerce``) hashes as it
        if len(self.terms) <= 1:
            c = next(iter(self.terms.values()), 0)
            scalar = self._coerce(c)
            if scalar is not None and scalar.terms == self.terms:
                return hash(c)
        return hash(frozenset(self.terms.items()))

    def normalized(self):
        """Scale to integer, coprime coefficients with positive leading term."""
        if not self.terms:
            return self
        denom = 1
        for c in self.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        g = 0
        for c in self.terms.values():
            g = gcd(g, int(c * denom))
        scale = Fraction(denom, g)
        if self.terms[min(self.terms, key=self._order)] < 0:
            scale = -scale
        return self.scale(scale)

    def _render_term(self, key, c: Fraction) -> str:
        """One term without its sign: the coefficient unless it is 1, then the key."""
        return ("" if abs(c) == 1 else f"{abs(c)}*") + self._render_key(key)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.sorted_terms():
            body = self._render_term(k, c)
            if parts:
                parts.append(("- " if c < 0 else "+ ") + body)
            else:
                parts.append(("-" if c < 0 else "") + body)
        return " ".join(parts)


PolyLike = Union["Polynomial", Monomial, Variable]


def _as_polynomial(x: PolyLike) -> "Polynomial":
    if isinstance(x, Polynomial):
        return x
    p = Polynomial._coerce(x)
    if p is None:
        raise AlgebraError(f"cannot interpret {x!r} as a polynomial")
    return p


class Polynomial(LinComb):
    """A canonical combination of monomials with nonzero ``int`` or
    ``Fraction`` coefficients."""

    __slots__ = ()

    _order = staticmethod(Monomial.sort_key)
    _render_key = staticmethod(format_monomial)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, Variable):
            x = Monomial.leaf(x)
        if isinstance(x, Monomial):
            return Polynomial._from_terms({x: 1})
        return None

    def __rmul__(self, c) -> "Polynomial":
        return self.scale(c)

    def variables(self) -> tuple[Variable, ...]:
        names = sorted({n for m in self.terms for n in m.leaf_names()})
        return tuple(Variable(n) for n in names)

    def signature(self) -> frozenset[OpSymbol]:
        return frozenset(op for m in self.terms for op in m.ops())

    def degree(self) -> int:
        """Common degree of all terms; raises if mixed or zero."""
        degs = {m.degree for m in self.terms}
        if len(degs) != 1:
            raise AlgebraError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_multilinear(self) -> bool:
        """Every monomial uses one shared variable set, each variable once."""
        if self.is_zero:
            return True
        varset = None
        for m in self.terms:
            names = m.leaf_names()
            if len(set(names)) != len(names):
                return False
            s = frozenset(names)
            if varset is None:
                varset = s
            elif s != varset:
                return False
        return True


def apply_op(op: OpSymbol, args: Sequence[PolyLike]) -> Polynomial:
    """Apply ``op`` multilinearly to polynomial arguments."""
    polys = [_as_polynomial(a) for a in args]
    if len(polys) != op.arity:
        raise ArityError(f"{op.display()} expects {op.arity} arguments")
    # one term per argument, as at every node of a renaming: nothing to merge
    c, kids = 1, []
    for p in polys:
        if len(p.terms) != 1:
            break
        (m, c2), = p.terms.items()
        kids.append(m)
        c = c * c2
    else:
        return Polynomial._from_terms({Monomial(None, op, tuple(kids)): c})
    combos: list[tuple[list[Monomial], Fraction]] = [([], 1)]
    for p in polys:
        nxt = []
        for ms, c in combos:
            for m2, c2 in p.terms.items():
                nxt.append((ms + [m2], c * c2))
        combos = nxt
    return Polynomial._from_terms(
        accumulate({}, ((Monomial.apply(op, ms), c) for ms, c in combos))
    )


class Identity:
    """A polynomial asserted identically zero, with its variables and signature."""

    __slots__ = ("lhs", "variables", "signature", "name", "_degree", "_read")

    def __init__(
        self,
        lhs: PolyLike,
        variables: Sequence[Variable] | None = None,
        signature: Iterable[OpSymbol] | None = None,
        name: str | None = None,
    ):
        lhs = _as_polynomial(lhs)
        used = lhs.variables()
        variables = used if variables is None else tuple(variables)
        have = {v.name for v in variables}
        for v in used:
            if v.name not in have:
                raise AlgebraError(f"variable {v.name} of lhs missing from list")
        self.lhs = lhs
        self.variables = variables
        self.signature = frozenset(signature) if signature is not None else lhs.signature()
        self.name = name
        self._degree = self._read = None

    @property
    def degree(self) -> int:
        """The lhs's common degree, read on first use and kept; a
        non-homogeneous lhs raises on each read."""
        if self._degree is None:
            self._degree = self.lhs.degree()
        return self._degree

    def read(self) -> list[tuple]:
        """(shape key, leaf names, coefficient) of each lhs term, in its
        order, read by ``read_tree`` on first use and kept."""
        if self._read is None:
            self._read = [(*read_tree(m), c) for m, c in self.lhs.terms.items()]
        return self._read

    def is_multilinear(self) -> bool:
        if not self.lhs.is_multilinear():
            return False
        if self.lhs.is_zero:
            return True
        used = {v.name for v in self.lhs.variables()}
        return used == {v.name for v in self.variables}

    def renamed(self, name: str) -> "Identity":
        """This identity under another name, sharing its ``read``, which is
        read here if it has not been."""
        self.read()
        out = copy.copy(self)
        out.name = name
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Identity) and self.lhs == other.lhs

    def __hash__(self):
        return hash(self.lhs)

    def __repr__(self) -> str:
        label = self.name or "identity"
        return f"<{label}: {self.lhs!r} = 0>"


def substitute(p: Polynomial, assignment: Mapping[Variable, PolyLike]) -> Polynomial:
    """Plug polynomials in for variables, expanding multilinearly.

    Nothing is checked: an unassigned variable passes through, and values
    may share variables or identify two of them, as polarization and
    rewrite-rule expansion need.  Renaming variables, or putting a tree in
    for one as a one-step lift does, is this map too; ``relabel`` is its
    other name.
    """
    values = {v.name: _as_polynomial(x) for v, x in assignment.items()}

    def leaf(v: Variable) -> Polynomial:
        val = values.get(v.name)
        return val if val is not None else _as_polynomial(v)

    return Polynomial.linear_image(p.terms, lambda m: fold(m, leaf, apply_op))


relabel = substitute


def rename_ops(p: Polynomial, mapping: Mapping[OpSymbol, OpSymbol]) -> Polynomial:
    """Replace operation symbols throughout (arities must agree)."""
    for old, new in mapping.items():
        if old.arity != new.arity:
            raise ArityError(f"cannot rename {old.display()} to {new.display()}")

    def node(op: OpSymbol, children: list) -> Monomial:
        return Monomial.apply(mapping.get(op, op), children)

    return Polynomial._from_terms(
        accumulate({}, ((fold(m, Monomial.leaf, node), c) for m, c in p.terms.items()))
    )


# the public name of ``normalized`` for polynomials
normalize_scalar = LinComb.normalized


def _fresh_names(base: str, count: int, taken: set[str]) -> list[str]:
    out = []
    i = 1
    while len(out) < count:
        cand = f"{base}{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def polarize(identity: Identity) -> Identity:
    """Fully multilinearize an identity over a characteristic-zero field.

    Each variable of multiplicity k is replaced by k fresh variables
    (numeric suffixes on the original name) and the lower-multiplicity
    shadows are removed by inclusion-exclusion, leaving exactly the terms
    that use every fresh variable once.  The result is normalized to
    integer, coprime coefficients with positive leading sign, so identities
    equal up to a scalar polarize to the same output.
    """
    p = identity.lhs
    mult: dict[str, int] = {}
    for m in p.terms:
        counts: dict[str, int] = {}
        for name in m.leaf_names():
            counts[name] = counts.get(name, 0) + 1
        for name, k in counts.items():
            mult[name] = max(mult.get(name, 0), k)

    taken = set(mult)
    out_vars: list[Variable] = []
    work = p
    for v in identity.variables:
        k = mult.get(v.name, 1)
        if k == 1:
            out_vars.append(v)
            continue
        fresh = [Variable(n) for n in _fresh_names(v.name, k, taken)]
        out_vars.extend(fresh)
        acc: dict[Monomial, Fraction] = {}
        for r in range(k + 1):
            sign = (-1) ** (k - r)
            for subset in itertools.combinations(fresh, r):
                val = Polynomial({Monomial.leaf(w): 1 for w in subset})
                accumulate(acc, substitute(work, {v: val}).terms.items(), sign)
        work = Polynomial._from_terms(acc)
    return Identity(work.normalized(), out_vars, identity.signature, identity.name)


class RewriteRule:
    """Eliminate one operation symbol by a polynomial template in its slots."""

    __slots__ = ("op", "slots", "replacement")

    def __init__(self, op: OpSymbol, slots: Sequence[Variable], replacement: PolyLike):
        slots = tuple(slots)
        if len(slots) != op.arity:
            raise ArityError(f"rule for {op.display()} needs {op.arity} slots")
        replacement = _as_polynomial(replacement)
        slot_names = {v.name for v in slots}
        for m in replacement.terms:
            names = m.leaf_names()
            if sorted(names) != sorted(slot_names):
                raise AlgebraError(
                    "rule replacement must be multilinear in exactly the slots"
                )
        self.op = op
        self.slots = slots
        self.replacement = replacement

    def expand(self, args: Sequence[Polynomial]) -> Polynomial:
        return substitute(self.replacement, dict(zip(self.slots, args)))

    def __repr__(self) -> str:
        return f"<rule {self.op.display()} -> {self.replacement!r}>"


def rule_from_identity(identity: Identity, op: OpSymbol) -> RewriteRule:
    """Solve a two-sided relation for ``op``: the identity must contain exactly
    one bare application of ``op`` to distinct variables."""
    head = None
    for m in identity.lhs.terms:
        if not m.is_leaf and m.op == op and all(c.is_leaf for c in m.children):
            if head is not None:
                raise AlgebraError("identity has several bare target applications")
            head = m
    if head is None:
        raise AlgebraError(f"identity has no bare application of {op.display()}")
    coeff = identity.lhs.terms[head]
    rest = identity.lhs - Polynomial({head: coeff})
    slots = tuple(c.var for c in head.children)
    return RewriteRule(op, slots, rest.scale(Fraction(-1) / coeff))


def apply_rules(p: Polynomial, rules: Sequence[RewriteRule]) -> Polynomial:
    """Rewrite to the fixed point eliminating every rule's operation symbol.

    Raises CyclicRules if eliminated symbols persist after more passes than
    an acyclic rule chain could need.
    """
    if not rules:
        return p
    rulemap = {r.op: r for r in rules}
    eliminated = set(rulemap)

    def node(op: OpSymbol, args: list) -> Polynomial:
        rule = rulemap.get(op)
        if rule is not None:
            return rule.expand(args)
        return apply_op(op, args)

    for _ in range(len(rules) + 1):
        p = Polynomial.linear_image(p.terms, lambda m: fold(m, _as_polynomial, node))
        if not (p.signature() & eliminated):
            return p
    raise CyclicRules("rewrite rules do not terminate")
