"""Finite-dimensional ternary systems, their checks, and Leibniz envelopes.

Ternary systems <e_i, e_j, e_k> = c[i, j, k] and binary algebras
e_i e_j = c[i, j] are structure-constant tables over named, distinct basis
elements with exact entries, sharing one base class: a scalar is an ``int``,
a ``Fraction`` or a symbolic ``SymPoly``.  A vector is a sparse dict from
basis index to nonzero scalar ({} is zero), and ``c`` maps index tuples to
nonzero vectors.  One product step (``_extend``) serves every arity: a
level of (row, coefficient) pairs over a row index of ``c``, built on the
first product, goes one factor on at a time, and an index prefix without a
row is dropped before the later factors are read; ``multiply_into`` takes
its factors through it.

``evaluations`` evaluates identities on all basis tuples: it checks the
defining identities and the one-product law, and builds the ternary
products <<a,b>,c> and abc - bac - cab + cba of a binary algebra.  Before
the first tuple it fills one shape table per proper subterm, bottom-up: the
nonzero values of the subterm on every choice of basis indices for its
variables, shared by every identity and variable order of the call.  A
table is filled by one walk over its children that keeps a level per bound
index prefix, so a partial product is formed once for all the later
children's entries, and a fresh bare variable reads the rows' own indices
instead of probing each.  Roots are tabled one block of tuples at a time, a
block being the tuples that share their first index; each root table is
added, times its terms' coefficients, into one value table per identity,
keyed by tuple, and freed, and every tuple of the block reads its value
there.  So a call holds the proper subterms' tables, one block's value
tables and one root table.  ``SYSTEM_LIMIT`` bounds the work one check or
envelope may take on.  The enveloping binary algebra has dimension n(n+1), on
the basis e_1..e_n followed by the pairs e_i e_j (row-major); tables render
aligned, "." for zero entries.

For the 2-dimensional classification work the defining identities can also
be imposed symbolically: the 16 structure coefficients a_ijk (coefficient of
x) and b_ijk (coefficient of y) become indeterminates and every identity
evaluation contributes homogeneous quadratic equations, which a small
finite-field search can then enumerate over masked coordinate sets.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .core import BINARY, AlgebraError, Identity, LinComb, Monomial, Polynomial, Variable
from .core import LEAF_KEY, accumulate, items_at, q, read_tree
from .parsing import Signature, format_polynomial, parse


class SymPoly(LinComb):
    """A small exact multivariate polynomial: monomial tuple -> nonzero
    ``int`` or ``Fraction``.

    Monomials are sorted tuples of symbol names, so the ring is commutative;
    the empty tuple is the constant term.  Supports mixed arithmetic with
    Fraction and int scalars.
    """

    __slots__ = ()

    _render_key = staticmethod("*".join)

    @staticmethod
    def _key(mono) -> tuple:
        return tuple(sorted(mono))

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, SymPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return SymPoly.const(x)
        return None

    @staticmethod
    def symbol(name: str) -> "SymPoly":
        return SymPoly({(name,): Fraction(1)})

    @staticmethod
    def const(c) -> "SymPoly":
        return SymPoly({(): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    __radd__ = LinComb.__add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)  # a float raises in q
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SymPoly._from_terms(accumulate({}, (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )))

    __rmul__ = __mul__

    def is_homogeneous(self, d: int) -> bool:
        return all(len(m) == d for m in self.terms)

    def symbols(self) -> set[str]:
        return {s for m in self.terms for s in m}

    def substitute(self, values: Mapping[str, object]):
        """Replace symbols by Fractions or SymPolys; returns SymPoly."""

        def value(mono: tuple) -> "SymPoly":
            acc = SymPoly.const(1)
            for s in mono:
                v = values.get(s)
                acc = acc * (SymPoly.symbol(s) if v is None else v)
            return acc

        return SymPoly.linear_image(self.terms, value)

    def _render_term(self, mono: tuple, c: Fraction) -> str:
        return super()._render_term(mono, c) if mono else str(abs(c))


Scalar = Union[int, Fraction, SymPoly]
Vector = dict[int, Scalar]  # basis index -> nonzero scalar; {} is zero


def _scalar(x) -> Scalar:
    """A structure constant as stored: a ``SymPoly`` as it is, else ``q(x)``."""
    return x if isinstance(x, SymPoly) else q(x)


def _distinct_basis(dim: int, basis: Sequence[str]) -> list[str]:
    """The basis names as a list: ``dim`` of them, no name twice."""
    basis = list(basis)
    if len(basis) != dim:
        raise AlgebraError("basis size must equal dimension")
    seen = set()
    for name in basis:
        if name in seen:
            raise AlgebraError(f"basis name {name!r} is repeated")
        seen.add(name)
    return basis


def _parse_vector(text: str, basis: Sequence[str]) -> Vector:
    """Parse a linear combination of basis names into a sparse vector."""
    poly = parse(text, Signature())
    pos = {name: i for i, name in enumerate(basis)}
    vec = {}
    for m, c in poly.terms.items():
        if not m.is_leaf:
            raise AlgebraError(f"expected a linear combination of basis names: {text!r}")
        i = pos.get(m.var.name)
        if i is None:
            raise AlgebraError(f"unknown basis element {m.var.name!r}")
        vec[i] = c
    return vec


def _format_vector(vec: Vector, basis: Sequence[str]) -> str:
    """Compact linear combination: '.', 'x', '-2*xy+2*yx', in basis order."""
    parts = []
    for l in sorted(vec):
        c = vec[l]
        if isinstance(c, SymPoly):
            raise AlgebraError("cannot render symbolic entries")
        body = basis[l] if abs(c) == 1 else f"{abs(c)}*{basis[l]}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) if parts else "."


class StructureTable:
    """Structure constants of one multilinear product over a named basis: the
    product of basis elements i, j, ... is the vector c[i, j, ...].  A subclass
    sets ``arity`` and its JSON key ``json_key``."""

    def __init__(self, dim: int, basis: Sequence[str], constants: Mapping[tuple, object]):
        """``constants`` maps index tuples to coefficient vectors, each a list
        of ``dim`` scalars or a dict from basis index to scalar; omitted
        entries are zero.  A scalar is an ``int``, a ``Fraction`` or a
        ``SymPoly``; an integral ``Fraction`` is stored as its ``int``."""
        if dim < 1:
            raise AlgebraError("dimension must be at least 1")
        self.dim = dim
        self.basis = _distinct_basis(dim, basis)
        cols = set(range(dim))
        for idx in constants:
            if not (isinstance(idx, tuple) and len(idx) == self.arity and set(idx) <= cols):
                raise AlgebraError("structure-constant index out of range")
        self.c: dict[tuple, Vector] = {}
        for idx, vec in constants.items():
            if isinstance(vec, dict):
                if not vec.keys() <= cols:
                    raise AlgebraError(f"coefficient index out of range at {idx}")
                items = vec.items()
            elif len(vec) != dim:
                raise AlgebraError(f"coefficient vector at {idx} needs {dim} entries")
            else:
                items = enumerate(vec)
            vec = {l: s for l, x in items if (s := _scalar(x))}
            if vec:
                self.c[idx] = vec

    @classmethod
    def from_canonical(cls, dim: int, basis: Sequence[str], c: dict[tuple, Vector]):
        """The table of ``c`` as it is, neither copied nor checked: index
        tuples in range, no empty vector, and every scalar stored as the
        constructor stores it.  Only the basis names are checked."""
        table = cls.__new__(cls)
        table.dim, table.basis, table.c = dim, _distinct_basis(dim, basis), c
        return table

    @classmethod
    def from_json(cls, obj: Union[str, Mapping]):
        """Schema: {"dim": n, "basis": [...], KEY: {"x,y,...": "y", ...}} with
        KEY "triple" or "product"; omitted entries are zero, values are linear
        combinations of basis names.  Basis names are distinct, and no two
        keys name the same index tuple.  A dimension over ``SYSTEM_LIMIT``,
        which no check or envelope could take on, is refused before any of
        its basis is built."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except ValueError as exc:  # JSONDecodeError, or an int of too many digits
                raise AlgebraError(f"system file is not valid JSON: {exc}") from None
        if not isinstance(obj, Mapping):
            raise AlgebraError("system JSON must be an object")
        dim = obj.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise AlgebraError('system JSON needs an integer "dim"')
        if dim > SYSTEM_LIMIT:
            raise AlgebraError(f"system too large: dimension {dim}, over {SYSTEM_LIMIT}")
        basis = obj.get("basis") or [f"e{i+1}" for i in range(dim)]
        if not isinstance(basis, (list, tuple)) or not all(isinstance(n, str) for n in basis):
            raise AlgebraError('"basis" must be a list of names')
        entries = obj.get(cls.json_key) or {}
        if not isinstance(entries, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in entries.items()
        ):
            raise AlgebraError(f'"{cls.json_key}" must map index keys to strings')
        pos = {name: i for i, name in enumerate(basis)}
        sparse = {}
        for key, value in entries.items():
            names = [s.strip() for s in key.split(",")]
            if len(names) != cls.arity or any(n not in pos for n in names):
                raise AlgebraError(f"bad {cls.json_key} key {key!r}")
            idx = tuple(pos[n] for n in names)
            if idx in sparse:
                raise AlgebraError(f"{cls.json_key} key {key!r} repeats an earlier key")
            sparse[idx] = _parse_vector(value, basis)
        return cls(dim, basis, sparse)

    def to_json(self) -> dict:
        entries = {}
        for idx in sorted(self.c):
            poly = Polynomial(
                {Monomial.leaf(Variable(self.basis[l])): x for l, x in self.c[idx].items()}
            )
            entries[",".join(self.basis[i] for i in idx)] = format_polynomial(poly)
        return {"dim": self.dim, "basis": list(self.basis), self.json_key: entries}

    @cached_property
    def rows(self) -> dict:
        """The row index over ``c``: ``rows[i][j]`` (binary) or
        ``rows[i][j][k]`` (ternary) is the vector c[i, j(, k)], and an absent
        row is zero.  It is built on the first product, not with the table."""
        rows: dict = {}
        for idx, vec in self.c.items():
            node = rows
            for i in idx[:-1]:
                node = node.setdefault(i, {})
            node[idx[-1]] = vec
        return rows

    def multiply_into(self, vectors: Sequence[Vector]) -> Vector:
        """The product of ``vectors``, as a new vector: the row index walked
        one factor at a time through ``_extend``, the product step that
        ``evaluations`` shares, so an index prefix without a row is dropped
        before the later factors are read."""
        if len(vectors) != self.arity:
            raise AlgebraError(f"arity-{self.arity} table multiplies {self.arity} vectors only")
        level = [(self.rows, 1)]
        for vec in vectors:
            level = _extend(level, vec)
        return _sum(level)


def _extend(level: list, vec: Vector) -> list:
    """A level one factor on.  A level lists the (row, coefficient) pairs of
    one bound index prefix, a row being the row index below that prefix (a
    vector once every factor is bound); each row's sub-row at every index of
    ``vec`` that has one is kept, its coefficient times the entry.  This is
    the one product step of every arity and caller."""
    return [(sub, coeff * x) for row, coeff in level for i, x in vec.items()
            if (sub := row.get(i))]


def _sum(level: list) -> Vector:
    """The vector of a level whose factors are all bound: its rows, now
    vectors, each times its coefficient."""
    out: Vector = {}
    for vec, coeff in level:
        accumulate(out, vec.items(), coeff)
    return out


class TernaryTable(StructureTable):
    """Structure constants <e_i, e_j, e_k> = c[i, j, k]."""

    arity = 3
    json_key = "triple"


class BinaryAlgebra(StructureTable):
    """A binary multiplication table e_i e_j = c[i, j]."""

    arity = 2
    json_key = "product"

    def render_table(self) -> str:
        entries = [
            [_format_vector(self.c.get((i, j), {}), self.basis) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return render_grid(self.basis, entries)


# The most identity-tuple pairs one ``evaluations`` call, or pair products
# one ``build_envelope``, may take on.  Measured on dense tables (every
# constant a random nonzero int) on a shared 2-core x86_64 host under
# CPython 3.11, whose speed moves by up to about 1.6 times with its load, a
# check costs about 35-45 us and 200 bytes of ``tracemalloc`` peak per pair,
# the memory mostly its violation list and one block's value tables
# (``check_lts`` on a 10-dimensional table: 2 * 10**5 pairs in 6.7 s, peak
# 40 MB; ``check_leibniz`` on a 56-dimensional envelope: 1.8 * 10**5 pairs
# in 7.8 s, peak 31 MB), and an envelope about 8 us and 1.3 kB per pair
# product (n = 16: 6.6 * 10**4 products in 0.5 s, peak 79 MB).
SYSTEM_LIMIT = 2 * 10**5


def _steps(table: StructureTable, m: Monomial, tables: dict, bound: list[str],
           below: int) -> list:
    """The walk steps of ``m``'s children after the variables ``bound``: per
    child, its entries indexed by the indices of its variables bound before
    it, and those variables' positions in ``bound``; a child that is a bare
    variable not bound before it is the step (None, ``below``), which reads
    its indices from the rows themselves.  ``bound`` grows in place by the
    other variables of ``m``, in order of first occurrence."""
    steps = []
    for child in m.children:
        if child.is_leaf and child.var.name not in bound:
            steps.append((None, below))
            bound.append(child.var.name)
            continue
        child_values, child_names = _fill(table, child, tables, below)
        pos = {name: p for p, name in enumerate(bound)}
        old = [k for k, name in enumerate(child_names) if name in pos]
        new = [k for k, name in enumerate(child_names) if name not in pos]
        index: dict[tuple, list] = {}
        for idx, vec in child_values.items():
            index.setdefault(tuple(idx[k] for k in old), []).append(
                (tuple(idx[k] for k in new), vec))
        steps.append((index, [pos[child_names[k]] for k in old]))
        bound.extend(child_names[k] for k in new)
    return steps


def _products(table: StructureTable, steps: list, start: tuple = ()) -> dict:
    """The nonzero products that the walk ``steps`` reaches after the indices
    ``start``, keyed by the indices of all the variables bound.

    The walk keeps one level (``_extend``) per bound index prefix and takes
    every prefix one child on at a time, so a partial product is formed once
    for all the later children's entries, and a prefix whose level empties
    is dropped before a later child is read.  A fresh bare variable reads
    the level's rows at each of their indices below the tuple range instead
    of probing every index."""
    partial = iter([(start, [(table.rows, 1)])])  # (indices bound so far, their level)
    for index, at in steps:
        partial = _walk(partial, index, at)
    return {prefix: vec for prefix, level in partial if (vec := _sum(level))}


def _walk(partial, index, at):
    """Each (bound indices, level) pair of ``partial`` one child on: by every
    entry of the child's ``index`` that agrees with the indices at positions
    ``at``, or, for a fresh bare variable, by its columns below ``at``.  A
    pair is yielded only with a nonempty level."""
    for prefix, level in partial:
        if index is None:
            for i, longer in _columns(level, at).items():
                yield prefix + (i,), longer
        else:
            for more, vec in index.get(tuple(prefix[a] for a in at), ()):
                longer = _extend(level, vec)
                if longer:
                    yield prefix + more, longer


def _columns(level: list, below: int) -> dict:
    """The levels one fresh bare variable on, by its index: each row's
    sub-row at every index below ``below`` that the row holds, at the row's
    coefficient.  It is ``_extend`` by each basis vector under ``below``,
    read off the rows rather than probed."""
    out: dict[int, list] = {}
    for row, coeff in level:
        for i, sub in row.items():
            if i < below:
                out.setdefault(i, []).append((sub, coeff))
    return out


def _pattern(m: Monomial) -> tuple[tuple, tuple[str, ...]]:
    """The (shape key, leaf pattern) of ``m`` and its distinct variables in
    order of first occurrence; the pattern numbers each leaf's variable."""
    key, leaves = read_tree(m)
    names = tuple(dict.fromkeys(leaves))
    return (key, tuple(names.index(name) for name in leaves)), names


def _fill(table: StructureTable, m: Monomial, tables: dict,
          below: int) -> tuple[dict, tuple[str, ...]]:
    """The value table of subterm ``m`` on indices below ``below`` and the
    variables that key it.

    A subterm's value depends only on its shape, on which of its leaves
    carry one variable, and on the basis indices its variables take; so
    ``tables`` holds one table per (shape key, leaf pattern), mapping the
    indices of the distinct variables (in order of first occurrence) to the
    nonzero value.  A table is filled bottom-up, its children's first, by
    one walk (``_products``) over the nonzero combinations of their entries
    that agree on the variables they share."""
    key, names = _pattern(m)
    values = tables.get(key)
    if values is None:
        values = tables[key] = _products(table, _steps(table, m, tables, [], below))
    return values, names


def evaluations(table: StructureTable, identities: Sequence[Identity], dim: int | None = None):
    """Yield (identity, basis tuple, value) for each identity on every tuple
    drawn from the first ``dim`` basis elements (default all), one entry per
    variable: tuple lengths ascending, then tuples in lexicographic order, then
    identities in the given order.

    Proper subterm values come from shape tables filled once per call and
    shared by every identity and variable order (``_fill``).  Roots are
    tabled by blocks: the tuples that share their first index form one
    block, and before a block's first tuple, one root table per (shape key,
    leaf pattern, position of the identity's first variable) is filled from
    the subterm tables with that variable bound to the block's index.  Every
    term and identity of that key adds the table's entries, times its
    coefficient, into its identity's value table for the block, keyed by
    tuple (``_add``), and the root table is freed before the next is filled.
    A bare variable, or a root without the first variable, adds from one
    table for the whole call, spread over the indices it lacks.  Each tuple
    then reads its value from the value table (``_block``), so an identity's
    value table, like a root table, holds at most dim**(k - 1) entries on
    k-variable tuples.  A value's scalars are in the types a table stores:
    an integral one is its ``int``, whatever order its terms added in."""
    dim = table.dim if dim is None else dim
    if not 1 <= dim <= table.dim:
        raise AlgebraError(f"cannot evaluate on the first {dim} basis elements of a"
                           f" {table.dim}-dimensional table")
    pairs = sum(dim ** len(ident.variables) for ident in identities)
    if pairs > SYSTEM_LIMIT:
        raise AlgebraError(
            f"system too large: {pairs} identity evaluations on basis tuples, over {SYSTEM_LIMIT}"
        )
    if any(op.arity != table.arity
           for ident in identities for m in ident.lhs.terms for op in m.ops()):
        raise AlgebraError(f"arity-{table.arity} table multiplies {table.arity} vectors only")
    tables = {(LEAF_KEY, (0,)): {(i,): {i: 1} for i in range(dim)}}
    steps = {}  # root key -> the walk steps of its roots after the first variable
    groups: dict[int, tuple[list, dict]] = {}  # tuple size -> (identities, root key -> terms)
    for ident in identities:
        same, roots = groups.setdefault(len(ident.variables), ([], {}))
        slot = {v.name: p for p, v in enumerate(ident.variables)}
        first = next((name for name, p in slot.items() if p == 0), None)
        for m, coeff in ident.lhs.terms.items():
            key, names = _pattern(m)
            if m.is_leaf or first not in names:
                _fill(table, m, tables, dim)
            else:
                key = (*key, names.index(first))
                names = (first, *(name for name in names if name != first))
                if key not in steps:
                    steps[key] = _steps(table, m, tables, [first], dim)
            roots.setdefault(key, []).append((len(same), coeff, [slot[name] for name in names]))
        same.append(ident)
    for size in sorted(groups):
        same, roots = groups[size]
        for head in itertools.product(range(dim), repeat=min(size, 1)):
            sums = [{} for _ in same]  # per identity, its value table on this block
            for key, terms in roots.items():
                # a block's root table is filled here and freed once its terms are added
                values = _products(table, steps[key], head) if key in steps else tables[key]
                for n, coeff, positions in terms:
                    _add(sums[n], values, coeff, positions, size, head, dim)
                del values
            yield from _block(head, size, same, sums, dim)


def _add(acc: dict, values: dict, coeff, positions: list[int], size: int, head: tuple,
         dim: int) -> None:
    """Add a root table's entries, times ``coeff``, into the value table
    ``acc`` of ``head``'s block, keyed by ``size``-index tuple.  An entry's
    indices sit at ``positions`` of the tuple; a position that the root
    lacks takes ``head``'s index if it is the first, else every index below
    ``dim``.  A root table of the whole call holds the entries of other
    blocks too, which are passed over."""
    lacks = [p for p in range(size) if p not in positions]
    order = items_at(sorted(range(size), key=[*positions, *lacks].__getitem__))
    fills = list(itertools.product(*(head if p == 0 else range(dim) for p in lacks)))
    at = positions.index(0) if 0 in positions else None
    for idx, vec in values.items():
        if at is None or idx[at] == head[0]:
            for fill in fills:
                accumulate(acc.setdefault(order(idx + fill), {}), vec.items(), coeff)


def _block(head: tuple, size: int, identities: list, sums: list, dim: int):
    """Yield (identity, tuple, value) on the ``size``-index tuples below
    ``dim`` that start with ``head``, in lexicographic order, each value read
    from its identity's value table in ``sums``, and each nonempty value's
    scalars put through ``_scalar``."""
    for rest in itertools.product(range(dim), repeat=size - len(head)):
        tup = head + rest
        for ident, acc in zip(identities, sums):
            out = acc.get(tup)
            yield ident, tup, {l: _scalar(x) for l, x in out.items()} if out else {}


def check_identities(
    table: StructureTable, identities: Sequence[Identity]
) -> tuple[bool, list[tuple[str, tuple[int, ...]]]]:
    """Evaluate identities on every basis tuple; violations sorted by tuple."""
    violations = [
        (ident.name or "identity", tup)
        for ident, tup, value in evaluations(table, identities)
        if value
    ]
    return (not violations), violations


def _laws(*names: str) -> list[Identity]:
    from .fixtures import fixture  # here: fixtures imports this module for its tables

    return [fixture(name) for name in names]


def check_lts(table: TernaryTable):
    """Do the two defining five-variable identities hold on all basis tuples?"""
    return check_identities(table, _laws("lts-a", "lts-b"))


def lie_triple_check(table: TernaryTable):
    """Do the three classical ternary identities hold on all basis tuples?"""
    return check_identities(table, _laws("l1", "l2", "l3"))


def render_grid(basis: Sequence[str], entries: Sequence[Sequence[str]]) -> str:
    """Aligned multiplication table: row label, bar, one column per factor."""
    header = ["."] + list(basis)
    rows = [[basis[i]] + list(entries[i]) for i in range(len(basis))]
    widths = [
        max(len(line[col]) for line in [header] + rows)
        for col in range(len(header))
    ]
    out_lines = []
    for line in [header] + rows:
        cells = [line[c].ljust(widths[c]) for c in range(len(line))]
        out_lines.append((cells[0] + " | " + "  ".join(cells[1:])).rstrip())
    out_lines.insert(1, "-" * len(out_lines[0]))
    return "\n".join(out_lines) + "\n"


def _pair_name(basis: Sequence[str], i: int, j: int) -> str:
    if all(len(b) == 1 for b in basis):
        return basis[i] + basis[j]
    return f"{basis[i]}_{basis[j]}"


def build_envelope(table: TernaryTable) -> BinaryAlgebra:
    """The enveloping binary algebra on basis e_1..e_n, then pairs e_i e_j.

    Products: a.b = ab, (ab).c = <a,b,c>, a.(bc) = <a,b,c> - <a,c,b>,
    (ab).(cd) = <a,b,c> d - <a,b,d> c, extended bilinearly.
    """
    n, c = table.dim, table.c
    if n ** 4 > SYSTEM_LIMIT:
        raise AlgebraError(
            f"system too large: its envelope takes {n ** 4} pair products, over {SYSTEM_LIMIT}"
        )
    pairs = list(itertools.product(range(n), repeat=2))
    pair = {ij: n + t for t, ij in enumerate(pairs)}
    basis = list(table.basis) + [_pair_name(table.basis, i, j) for i, j in pairs]
    # every vector is fresh, nonempty and canonical, so the table takes the
    # dict as it is: only a difference of two constants needs ``_scalar``
    zero: Vector = {}
    product = {(i, j): {pair[i, j]: 1} for i, j in pairs}
    for i, (j, k) in itertools.product(range(n), pairs):
        ijk = accumulate(dict(c.get((i, j, k), zero)), c.get((i, k, j), zero).items(), -1)
        if ijk:
            product[i, pair[j, k]] = {l: _scalar(x) for l, x in ijk.items()}
        if (j, k, i) in c:
            product[pair[j, k], i] = dict(c[j, k, i])
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        if k != l and ((i, j, k) in c or (i, j, l) in c):  # the terms cancel when k == l
            product[pair[i, j], pair[k, l]] = {
                **{pair[m, l]: x for m, x in c.get((i, j, k), zero).items()},
                **{pair[m, k]: -x for m, x in c.get((i, j, l), zero).items()},
            }
    return BinaryAlgebra.from_canonical(n * (n + 1), basis, product)


def check_leibniz(algebra: BinaryAlgebra):
    """Check <<a,b>,c> = <<a,c>,b> + <a,<b,c>> on all basis triples."""
    _, violations = check_identities(algebra, _laws("leibniz"))
    return (not violations), [tup for _, tup in violations]


# Ternary products built from a binary one: the iterated bracket <<a,b>,c>,
# and abc - bac - cab + cba in an associative algebra.
_ITERATED_BRACKET = Identity(parse("(ab)c", product=BINARY))
_ASSOCIATIVE_TRIPLE = Identity(parse("(ab)c - (ba)c - (ca)b + (cb)a", product=BINARY))


def _induced_table(algebra: BinaryAlgebra, dim: int, template: Identity) -> TernaryTable:
    """The ternary product ``template`` on the first ``dim`` basis elements,
    which must be closed under it."""
    sparse = {}
    for _, tup, vec in evaluations(algebra, [template], dim):
        if any(l >= dim for l in vec):
            raise AlgebraError("subspace is not closed under the iterated bracket")
        sparse[tup] = vec
    return TernaryTable(dim, algebra.basis[:dim], sparse)


def iterated_bracket_table(algebra: BinaryAlgebra, dim: int) -> TernaryTable:
    """The ternary system <<a,b>,c> restricted to the first ``dim`` basis
    coordinates (they must be closed under the iterated bracket)."""
    return _induced_table(algebra, dim, _ITERATED_BRACKET)


def from_associative(mult: BinaryAlgebra) -> TernaryTable:
    """The ternary system abc - bac - cab + cba inside an associative algebra."""
    return _induced_table(mult, mult.dim, _ASSOCIATIVE_TRIPLE)


class QuadraticSystem:
    """Homogeneous quadratic equations in the symbolic structure coefficients."""

    def __init__(self, unknowns: Sequence[str], equations: Sequence[SymPoly]):
        self.unknowns = list(unknowns)
        self.equations = list(equations)

    def substitute(self, values: Mapping[str, object]) -> list[SymPoly]:
        """Evaluate every equation; unknowns not mentioned are zero."""
        full = {u: 0 for u in self.unknowns}
        full.update(values)
        return [eq.substitute(full) for eq in self.equations]

    def is_satisfied(self, values: Mapping[str, object]) -> bool:
        return all(res.is_zero for res in self.substitute(values))


def symbolic_table(n: int = 2) -> TernaryTable:
    """Structure constants with one symbol per coefficient: a_ijk and b_ijk
    for n = 2 (coefficient of x and y), c{i}{j}{k}_{l} in general."""
    basis = ["x", "y", "z"][:n] if n <= 3 else [f"e{i+1}" for i in range(n)]

    def name(i: int, j: int, k: int, l: int) -> str:
        if n == 2:
            return f"{'ab'[l]}{i+1}{j+1}{k+1}"
        return f"c{i+1}{j+1}{k+1}_{l+1}"

    return TernaryTable(n, basis, {
        idx: [SymPoly.symbol(name(*idx, l)) for l in range(n)]
        for idx in itertools.product(range(n), repeat=3)
    })


def lts_equations(n: int = 2) -> QuadraticSystem:
    """Impose the two defining identities on a symbolic n-dimensional table."""
    table = symbolic_table(n)
    unknowns = sorted(
        {s for vec in table.c.values() for coord in vec.values() for s in coord.symbols()}
    )
    # distinct normalized coordinates in first-seen order, coordinates in basis
    # order; identity by identity: one pass over both would interleave them
    equations = dict.fromkeys(
        coord.normalized()
        for ident in _laws("lts-a", "lts-b")
        for _, _, out in evaluations(table, [ident])
        for _, coord in sorted(out.items())
    )
    return QuadraticSystem(unknowns, list(equations))


# The most F_p candidates one search may enumerate: at up to about 50 us
# each, 10**6 of them take under a minute.
SEARCH_LIMIT = 10**6


def search_fp(
    system: QuadraticSystem,
    p: int,
    free: Sequence[str],
    fixed: Mapping[str, int] | None = None,
) -> list[dict[str, int]]:
    """All solutions over F_p with the given free coordinates; other unknowns
    take their ``fixed`` value (default 0), and no coordinate may be both.
    No isomorphism reduction; at most ``SEARCH_LIMIT`` candidates.  The
    equations are reduced mod p once, so a coefficient undefined mod p is
    refused before any candidate."""
    free = list(free)
    if not free:
        raise AlgebraError("empty mask: no free coordinates to search")
    if len(set(free)) != len(free):
        repeated = next(name for i, name in enumerate(free) if name in free[:i])
        raise AlgebraError(f"coordinate {repeated!r} is named twice in the mask")
    fixed = fixed or {}
    unknown_set = set(system.unknowns)
    for name in [*free, *fixed]:
        if name not in unknown_set:
            raise AlgebraError(f"unknown coordinate {name!r}")
    both = next((name for name in free if name in fixed), None)
    if both is not None:
        raise AlgebraError(f"coordinate {both!r} is both in the mask and fixed")
    if p ** len(free) > SEARCH_LIMIT:
        raise AlgebraError(f"mask too large: {p}^{len(free)} candidates")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise AlgebraError(f"F_p needs a prime p, got {p}")
    equations = _fold_mod(system, p, free, fixed)
    solutions = []
    for combo in itertools.product(range(p), repeat=len(free)):
        if all(sum(c * math.prod(combo[i] for i in at) for at, c in eq) % p == 0
               for eq in equations):
            solutions.append(dict(zip(free, combo)))
    return solutions


def _fold_mod(
    system: QuadraticSystem, p: int, free: Sequence[str], fixed: Mapping[str, int]
) -> list[list[tuple[tuple[int, ...], int]]]:
    """The equations reduced mod p once, with every unknown that is not free
    replaced by its ``fixed`` value (default 0): per equation, the nonzero
    (positions in ``free``, coefficient) terms, and no equation that
    vanishes.  A fixed value is reduced as a coefficient is."""
    position = {name: i for i, name in enumerate(free)}
    base = {name: 0 for name in system.unknowns}
    base.update((name, _residue(val, p, f"value {name}=")) for name, val in fixed.items())
    out = []
    for eq in system.equations:
        terms: dict[tuple[int, ...], int] = {}
        for mono, c in eq.terms.items():
            coeff = _residue(c, p, "coefficient ")
            at = []
            for s in mono:
                if s in position:
                    at.append(position[s])
                else:
                    coeff *= base[s]
            at = tuple(at)
            terms[at] = (terms.get(at, 0) + coeff) % p
        folded = [(at, c) for at, c in terms.items() if c]
        if folded:
            out.append(folded)
    return out


def _residue(x, p: int, label: str) -> int:
    """An exact scalar mod p, numerator times the inverse denominator; a
    ``float`` is refused by ``q``, as is a denominator that p divides."""
    x = q(x)
    if x.denominator % p == 0:
        raise AlgebraError(f"{label}{x} not defined mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
