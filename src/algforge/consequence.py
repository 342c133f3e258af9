"""Consequence checking by exact linear algebra at a fixed degree.

The multilinear component of a signature at degree d over d named variables
is a finite-dimensional rational vector space whose basis is every
association shape filled with every permutation of the variables.  A
polynomial "follows from" a set of identities at that degree exactly when it
lies in the span of their instances, which ``compiled_instances`` yields:
variable relabelings at equal degree, and one-step liftings (a product of
two fresh variables in place of one variable, or a fresh variable as a
factor) when the degree grows by one.

Instances are compiled, not built.  One compiler, ``_families``, turns an
identity once per call into its instance families: the relabelings, or one
family per slot that takes the product and one of the fresh factor on
either side.  Each family is its tags and one or two row lists, each row
(shape key, ``items_at`` letter getter, coefficient), the shape key being
``Monomial.shape_key`` of the tree the term stands for (``core.node_key``
builds every key, a product slot's spliced key and a factor's product key
alike).  One loop reads every family at each permutation of the letters,
resolving each of its row lists once: ``compiled_instances`` emits each
instance as (shape key, letters, coefficient) triples, and
``instance_vectors`` as its column vector in a basis.  A shape is its key,
so ``enumerate_shapes`` lists keys.
Every tree that comes from a key is taken from the one bounded cache behind
``core.form_tree``, one tree per (shape key, letters) made of its subtrees'
own entries: the basis's trees, and the tree polynomials that
``iter_relabelings`` renders from the compiled stream.  A rendered
instance is thus made of the basis's own tree objects, and its basis
lookup hits by identity; equality stays structural, so a tree the cache
has let go, or one built elsewhere, is still found.

A basis is its element list, their ``index``, and one column table per
shape key, from each letter order of the key's trees to the column of its
element (the cached tree for ``MonomialBasis``, the straightened word for
``rightcomm.RCBasis``), filled in one go the first time the key is read.
``basis.vector`` reads the basis's own combinations by ``index``, a tree
polynomial being one for ``MonomialBasis``, and anything else by its
(shape key, letters) pairs in those tables: a compiled instance's
triples, or for ``RCBasis`` a tree polynomial's terms.  A vector stream
resolves a family row's key to its table once, so each of its instances
costs one table lookup per term, with no shape key hashed and no element
built; a pair outside the basis is refused with the element it names.
The normal form is the combination of the basis's own elements, read off
the vector, as a target's is in ``check``, so each target is read once.
Membership is decided by exact forward elimination, and every positive
answer carries a certificate that re-expands to the target.
``SpanChecker`` builds a normal form only for a target and for a
generator that becomes a pivot, the only ones a certificate names, and
keeps every other generator as given, a vector stream's as its vector;
``on_demand`` feeds one only when an answer needs it.

Instance tags are printed the way the combinations are usually written,
e.g. ``rj(ce,b,d,a)`` for a product substituted into the first argument and
``rj(b,c,e,a)*d`` for a right multiplication, so certificates are readable;
when a variable's name is longer than one letter, a product's two letters
are joined by ``*``, as in ``rj(a*b,ab,c,d)``.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Callable, Hashable, Iterable, Sequence

from .core import (
    LEAF_KEY,
    AlgebraError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    _tree,
    accumulate,
    fold_shape,
    items_at,
    node_key,
    read_tree,
)
from .linalg import PivotTable, Vec


class DegreeNotExpressible(AlgebraError):
    """No monomial of the requested degree exists over the signature."""


class DimensionMismatch(AlgebraError):
    """A polynomial does not live in the basis's space."""


class UnsupportedLift(AlgebraError):
    """Only a one-degree gap between identity and target is implemented."""


class BasisTooLarge(AlgebraError):
    """The planar basis would hold more than ``BASIS_LIMIT`` monomials."""


# The most monomials one ``MonomialBasis`` may build: at about 40 us and
# 2 KB per tree (binary degree 6: 30,240 trees in 1.2 s and 52 MB), 10**5
# of them take about 4 s and 200 MB.
BASIS_LIMIT = 10**5


def enumerate_shapes(signature: Iterable[OpSymbol], degree: int) -> list[tuple]:
    """All association shapes of the given degree, as shape keys, sorted by
    shape order."""
    ops = tuple(sorted(set(signature)))
    if degree < 1:
        raise DegreeNotExpressible(f"degree must be >= 1, got {degree}")
    keys = _shapes(ops, degree)
    if not keys:
        raise DegreeNotExpressible(
            f"no monomials of degree {degree} over {[o.display() for o in ops]}"
        )
    return list(keys)


@cache
def _shapes(ops: tuple[OpSymbol, ...], d: int) -> tuple[tuple, ...]:
    """The shape keys of degree ``d`` in shape order, listed once per
    (operations, degree)."""
    if d == 1:
        return (LEAF_KEY,)
    return tuple(sorted(
        node_key(op, kids)
        for op in ops if op.arity >= 2
        for split in _compositions(d, op.arity)
        for kids in itertools.product(*(_shapes(ops, di) for di in split))
    ))


@cache
def _shape_count(arities: tuple[int, ...], d: int) -> int:
    """How many shapes ``_shapes`` lists for operations of these arities,
    counted by the same recursion without listing a key."""
    if d == 1:
        return 1
    return sum(
        math.prod(_shape_count(arities, di) for di in split)
        for arity in arities if arity >= 2
        for split in _compositions(d, arity)
    )


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _basis_variables(degree: int, variables: Iterable[Variable]) -> tuple[Variable, ...]:
    """The variables of a basis of this degree: one per leaf, none named twice."""
    variables = tuple(variables)
    if len(variables) != degree:
        raise DimensionMismatch(
            f"need {degree} variables for degree {degree}, got {len(variables)}"
        )
    if len(set(variables)) != degree:
        repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise DimensionMismatch(f"variable {repeated.name!r} is repeated")
    return variables


class MonomialBasis:
    """The full multilinear monomial basis at one degree over fixed variables:
    its element list ``monomials``, shape by shape and letter order by
    letter order, their ``index``, and ``_tables``, the column table of each
    shape key read so far, from a letter order to its column."""

    _normal_type = Polynomial  # the class of a normal form

    def __init__(self, signature, degree: int, variables: Sequence[Variable]):
        variables = _basis_variables(degree, variables)
        self.signature = tuple(sorted(set(signature)))
        shapes = _shape_count(tuple(op.arity for op in self.signature), degree)
        size = shapes * math.factorial(degree)
        if size > BASIS_LIMIT:
            raise BasisTooLarge(
                f"degree {degree} basis too large: {shapes} shapes x {degree}! = {size}"
                f" monomials, over {BASIS_LIMIT}"
            )
        self.degree = degree
        self.variables = variables
        self.shapes = enumerate_shapes(self.signature, degree)
        self._orders = list(itertools.permutations(v.name for v in sorted(variables)))
        self.monomials = [_tree(shape, perm) for shape in self.shapes for perm in self._orders]
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self._tables: dict[tuple, dict[tuple, int]] = {}

    def __len__(self) -> int:
        return len(self.monomials)

    # the basis element of a tree, named when a pair is refused: the tree
    # itself here, its straightened word in ``RCBasis``
    _element = staticmethod(lambda m: m)

    def _fill(self, key: tuple) -> dict[tuple, int]:
        """The column table of a shape key, by arithmetic: its position in
        ``shapes`` times n!, plus the letter order's position; empty for a
        key outside the basis."""
        if key not in self.shapes:
            return {}
        return dict(zip(self._orders, itertools.count(self.shapes.index(key) * len(self._orders))))

    def _columns(self, key: tuple) -> dict[tuple, int]:
        """The column table of ``key``, filled on its first read and kept."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._fill(key)
        return table

    def _reader(self, rows: list[tuple]) -> Callable[[tuple], Vec]:
        """The function from a letter order to the vector of the instance
        that compiled ``rows`` read there, each row's key resolved to its
        column table here, once."""
        resolved = [(self._columns(key), get, c) for key, get, c in rows]

        def vector(perm: tuple) -> Vec:
            try:
                return accumulate({}, ((table[get(perm)], c) for table, get, c in resolved))
            except KeyError:  # a pair outside the basis: the term-by-term read names it
                return self.vector([(key, get(perm), c) for key, get, c in rows])

        return vector

    def vector(self, p) -> Vec:
        """The column vector of ``p``: a vector is itself, a normal form's
        terms are looked up in ``index``, and anything else is read by its
        (shape key, letters) pairs in the column tables, a compiled
        instance's as given, a tree polynomial's from its terms, a bare tree
        as its one term with coefficient 1, with no other polynomial built.
        The first pair outside the basis is refused, naming its element."""
        if isinstance(p, dict):
            return p
        if not isinstance(p, list):
            if isinstance(p, self._normal_type):
                vec: Vec = {}
                for m, c in p.terms.items():
                    i = self.index.get(m)
                    if i is None:
                        raise DimensionMismatch(f"monomial {m!r} is outside this basis")
                    vec[i] = c
                return vec
            terms = {p: 1} if isinstance(p, Monomial) else p.terms
            p = [(*read_tree(m), c) for m, c in terms.items()]
        tables = self._columns
        try:
            return accumulate({}, ((tables(key)[letters], c) for key, letters, c in p))
        except KeyError:
            key, letters = next((k, w) for k, w, _ in p if w not in tables(k))
            element = self._element(_tree(key, letters))
            raise DimensionMismatch(f"monomial {element!r} is outside this basis") from None

    def normal(self, p, vec: Vec | None = None):
        """The form of ``p`` whose terms are basis elements: ``p`` itself if
        it is one, else the combination of the elements its columns index,
        read off ``vec`` when it is ``vector(p)``."""
        if isinstance(p, self._normal_type):
            return p
        return self._combination(self.vector(p) if vec is None else vec)

    def _combination(self, vec: Vec):
        """The normal form with the coefficient at each column of ``vec`` on
        that column's element, in the order of ``vec``."""
        monomials = self.monomials
        return self._normal_type._from_terms({monomials[i]: c for i, c in vec.items()})


def _families(identity: Identity, perms: list[tuple[str, ...]]) -> list[tuple]:
    """The instance families of a named identity read at ``perms``, the
    permutations of the letters (the letters in order first), in stream
    order; any degree but the letters' or one below raises ``AlgebraError``.

    A family is (tags, row lists) compiled once, read by ``_instances`` at
    each ``perm`` in turn, each of its row lists in turn: the instance
    tagged next has a term (shape key, ``get(perm)``, coefficient) per row
    (shape key, ``items_at`` getter ``get``, coefficient) of the row list.
    At the identity's degree the one family is its relabelings.  One degree
    lower, over one binary operation, there is one family per variable, the
    product ``perm[0]perm[1]`` in its slot and ``perm[2:]`` in the others,
    then one of the identity over ``perm[1:]`` times ``perm[0]``, on the
    right and then on the left at each ``perm``."""
    n, d, src, label = len(perms[0]), identity.degree, identity.variables, identity.name
    if d == n:
        _same_count(identity, n)
    else:
        if n < d:
            raise UnsupportedLift(f"identity {label} has degree {d}, above the requested degree {n}")
        if n != d + 1:
            raise UnsupportedLift(f"only a one-degree lift is supported, asked {d} -> {n}")
        ops = set(identity.signature)
        if any(op.arity != 2 for op in ops) or len(ops) != 1:
            raise UnsupportedLift("lifting requires a single binary operation")
        if len(src) != d:
            raise DimensionMismatch(f"identity of degree {d} has {len(src)} variables")
        (op,) = ops

    terms = identity.read()

    def rows(slot: dict, glued: str | None = None, side: str | None = None) -> list[tuple]:
        """Each term with every variable ``w`` read as the letter at
        ``slot[w.name]``, but ``glued`` as the product of the letters at 0
        and 1; with a ``side``, times the letter at 0 on that side."""
        out = []
        for key, names, c in terms:
            if glued is not None:
                key = fold_shape(key, lambda i: product if names[i] == glued else LEAF_KEY, node_key)
            at = [i for x in names for i in ((0, 1) if x == glued else (slot[x],))]
            if side == "right":
                key, at = node_key(op, (key, LEAF_KEY)), at + [0]
            elif side == "left":
                key, at = node_key(op, (LEAF_KEY, key)), [0] + at
            out.append((key, items_at(at), c))
        return out

    if d == n:
        slot = {w.name: i for i, w in enumerate(src)}
        return [([f"{label}({','.join(p)})" for p in perms], [rows(slot)])]
    times = "" if all(len(x) == 1 for x in perms[0]) else "*"
    product = node_key(op, (LEAF_KEY, LEAF_KEY))
    families = []
    glued = [(p[0] + times + p[1], *p[2:]) for p in perms]  # each product, then the rest
    for v_idx, v in enumerate(src):
        slot = {w.name: 2 + j for j, w in enumerate(src[:v_idx] + src[v_idx + 1:])}
        args = items_at([*range(1, v_idx + 1), 0, *range(v_idx + 1, d)])
        tags = [f"{label}({','.join(args(g))})" for g in glued]
        families.append((tags, [rows(slot, v.name)]))
    slot = {w.name: 1 + j for j, w in enumerate(src)}
    tags = [tag for p in perms for args in [",".join(p[1:])]
            for tag in (f"{label}({args})*{p[0]}", f"{p[0]}*{label}({args})")]
    return families + [(tags, [rows(slot, side="right"), rows(slot, side="left")])]


def _same_count(identity: Identity, n: int) -> None:
    """Refuse to relabel an identity over ``n`` letters unless it has ``n``
    variables."""
    if len(identity.variables) != n:
        raise DimensionMismatch(f"identity has {len(identity.variables)} variables, got {n}")


def _instances(identities: Iterable[Identity], variables: Sequence[Variable],
               one_per_family: bool, read: Callable[[list], Callable]):
    """The one loop over ``_families``: (tag, ``read(rows)(perm)``) for each
    instance, ``read`` being called once per row list of a family."""
    names = tuple(v.name for v in variables)
    perms = [names] if one_per_family else list(itertools.permutations(names))
    for idx, ident in enumerate(identities):
        named = ident if ident.name else ident.renamed(f"g{idx}")
        for tags, row_lists in _families(named, perms):
            readers = [read(rows) for rows in row_lists]
            for tag, (perm, instance) in zip(tags, itertools.product(perms, readers)):
                yield tag, instance(perm)


def compiled_instances(identities: Iterable[Identity], variables: Sequence[Variable],
                       *, one_per_family: bool = False):
    """Yield (tag, compiled instance) for every instance of the identities
    over ``variables``: the relabelings of an identity of degree
    ``len(variables)`` and the one-step liftings of one a degree lower, or
    with ``one_per_family`` what each family reads at the letters in order
    only.  An unnamed identity is named by its position, ``g0``, ``g1``,
    ...; any other degree raises ``AlgebraError``.

    A compiled instance is a list of (shape key, letters, coefficient)
    triples, one per term in the order its tree polynomial lists them: the
    ``Monomial.shape_key`` and leaf names of the term's tree.  Each identity
    is compiled once per call into its ``_families``, so an instance costs
    one getter call per term and builds no tree; a basis's ``vector`` reads
    it."""
    return _instances(identities, variables, one_per_family,
                      lambda rows: lambda perm: [(key, get(perm), c) for key, get, c in rows])


def instance_vectors(identities: Iterable[Identity], variables: Sequence[Variable],
                     basis: MonomialBasis, *, one_per_family: bool = False):
    """Yield (tag, ``basis.vector`` of the compiled instance) for every
    instance that ``compiled_instances`` yields, in its order, with no pair
    list built: each family row's shape key is resolved to its column table
    once.  A pair outside the basis raises what ``basis.vector`` raises."""
    return _instances(identities, variables, one_per_family, basis._reader)


def iter_relabelings(identity: Identity, variables: Sequence[Variable]):
    """Yield (tag, tree polynomial) for every bijective variable relabeling,
    rendered from ``compiled_instances``, so an unnamed identity is named
    ``g0``.  An identity with another number of variables is refused, never
    lifted."""
    variables = tuple(variables)
    _same_count(identity, len(variables))
    for tag, terms in compiled_instances([identity], variables):
        yield tag, Polynomial._from_terms(accumulate({}, (
            (_tree(key, letters), c) for key, letters, c in terms
        )))


class SpanCertificate:
    """An explicit combination of tagged generators equal to the target."""

    def __init__(self, coefficients, generators, target):
        self.coefficients = dict(coefficients)
        self.generators = {t: generators[t] for t in self.coefficients}
        self.target = target

    ok = True

    def support(self) -> list[Hashable]:
        return sorted(self.coefficients, key=str)

    def combination(self):
        """Re-expand the certificate; equals the target when sound."""
        return type(self.target).linear_image(self.coefficients, self.generators.__getitem__)

    def verify(self) -> bool:
        return self.combination() == self.target

    def lines(self) -> list[str]:
        return [f"{self.coefficients[tag]} * {tag}" for tag in self.support()]

    def __repr__(self) -> str:
        return f"<certificate with {len(self.coefficients)} terms>"


class NotInSpan:
    """Failure witness: the first basis element whose coefficient cannot match."""

    def __init__(self, witness):
        self.witness = witness

    ok = False

    def __repr__(self) -> str:
        return f"<not in span; witness {self.witness!r}>"


class SpanChecker:
    """A reusable elimination table for one generator set in one basis.

    ``generators`` are (tag, generator) pairs, a generator being anything the
    basis reads: a polynomial, a compiled instance, or a column vector.
    Each is fed to the table as its ``basis.vector`` and kept as given;
    targets and certificates are in the basis's normal form.  Only
    the generators that become pivots can be named by a certificate, so
    only theirs is built, when the pivot is stored; ``generators`` builds
    the others' on demand.  ``on_demand`` feeds none up front: ``check``
    reads only until the target reduces, or to the end for a "no"; ``rank``
    and ``generators`` read to the end.  Pivots are first come, first kept,
    so every answer is the full table's."""

    def __init__(self, generators, basis):
        self._open(iter(generators), basis)
        self._read()

    @classmethod
    def on_demand(cls, identities, variables, basis, instances=None) -> "SpanChecker":
        """A checker over ``instance_vectors(identities, variables, basis)``,
        or ``instances`` if the caller keeps that stream, read as answers
        need.  Input the constructor would refuse is read, and refused, at
        once."""
        identities, variables = tuple(identities), tuple(variables)
        if instances is None:
            instances = instance_vectors(identities, variables, basis)
        checker = cls.__new__(cls)
        checker._open(iter(instances), basis)
        if not _reads_cleanly(identities, variables, basis):
            checker._read()
        return checker

    def _open(self, stream, basis) -> None:
        self.basis, self._unread, self.table = basis, stream, PivotTable()
        self._kept: dict[Hashable, object] = {}  # tag -> as given, or normal form once a pivot

    def _read(self, lead: int | None = None) -> bool:
        """Feed generators until one is the pivot at column ``lead``; False at the end."""
        vector = self.basis.vector
        for tag, g in self._unread:
            vec = vector(g)
            if not vec:
                continue
            if tag in self._kept:
                if vector(self._kept[tag]) == vec:
                    continue
                raise AlgebraError(f"duplicate generator tag {tag!r}")
            self._kept[tag] = g
            if self.table.add(vec, tag):
                self._kept[tag] = self.basis.normal(g, vec)
                if lead in self.table.pivots:
                    return True
        return False

    @property
    def generators(self) -> dict[Hashable, object]:
        """Each kept generator's normal form by tag, in the order given."""
        self._read()
        normal = self.basis.normal
        return {tag: normal(g) for tag, g in self._kept.items()}

    @property
    def rank(self) -> int:
        self._read()
        return self.table.rank

    def check(self, target) -> SpanCertificate | NotInSpan:
        vec = self.basis.vector(target)
        target = self.basis.normal(target, vec)
        residual, trail = self.table.reduce(vec)
        while residual and self._read(min(residual)):
            residual, more = self.table.reduce(residual)
            trail += more
        if residual:
            return NotInSpan(self.basis.monomials[min(residual)])
        # a combination names pivot tags only, whose normal forms are kept
        return SpanCertificate(self.table.combination(trail), self._kept, target)


def _reads_cleanly(identities, variables, basis) -> bool:
    """Whether reading ``instance_vectors(identities, variables, basis)``
    cannot raise: no two tags are equal, and a family reads the
    same shape keys at every permutation, so all of it lands in the basis
    if what it reads at the letters in order does.  A read that does not
    raises the constructor's own error, since the stream reaches the same
    instance first."""
    names = [ident.name or f"g{idx}" for idx, ident in enumerate(identities)]
    letters = [v.name for v in variables]
    # distinct names and letters: a tag parses back to identity, family and permutation
    if (len(set(names)) < len(names) or len(set(letters)) < len(letters)
            or any(ch in word for word in [*names, *letters] for ch in "(),*")):
        return False
    list(instance_vectors(identities, variables, basis, one_per_family=True))
    return True


class EquivalenceResult:
    """Mutual-span outcome for two identity sets at one degree."""

    def __init__(self, forward, backward):
        self.forward = dict(forward)
        self.backward = dict(backward)

    @property
    def equivalent(self) -> bool:
        results = list(self.forward.values()) + list(self.backward.values())
        return all(r.ok for r in results)

    def __bool__(self) -> bool:
        return self.equivalent

    def verify(self) -> bool:
        """A verified "yes": every result is a certificate that re-expands to
        its target."""
        return all(r.ok and r.verify() for r in [*self.forward.values(), *self.backward.values()])


def sets_equivalent(
    a: Sequence[Identity], b: Sequence[Identity], degree: int, variables
) -> EquivalenceResult:
    """Mutual span inclusion of the identity sets' instances at one degree.

    The instance span of a set is closed under relabeling, so it is enough
    to test one canonical instance of each relabeling orbit against the other
    side, as ``compiled_instances(..., one_per_family=True)`` yields them: an
    identity of degree ``degree`` over the variables in order, keyed by its
    name, and one a degree lower as the first lifting of each family, keyed
    by its tag, each read as its ``instance_vectors`` vector; each side's
    ``SpanChecker.on_demand`` reads only what they need.
    """
    variables = tuple(variables)
    signature = set().union(*(ident.signature for ident in [*a, *b]))
    basis = MonomialBasis(signature, degree, variables)
    span_a, span_b = (SpanChecker.on_demand(s, variables, basis) for s in (a, b))

    def side(mine, checker: SpanChecker, prefix: str) -> dict:
        return {
            name if ident.degree == degree else tag: checker.check(target)
            for idx, ident in enumerate(mine)
            for name in [ident.name or f"{prefix}{idx}"]
            for tag, target in instance_vectors([ident.renamed(name)], variables, basis,
                                                one_per_family=True)
        }

    return EquivalenceResult(side(a, span_b, "a"), side(b, span_a, "b"))


def kernel_of_expansion(
    basis: MonomialBasis, expand: Callable[[Monomial], object]
) -> list[Polynomial]:
    """Basis of {p : expand(p) = 0}, expand acting linearly via basis monomials.

    ``expand`` maps a basis monomial to any object with a ``terms`` mapping
    (polynomial-like in another space).  The images are fed column by column
    into one elimination table; a column whose image reduces to zero depends
    uniquely on the earlier pivot columns, and that dependency is its kernel
    vector.  The kernel basis is therefore in reduced echelon form: one
    polynomial per free column, with coefficient 1 there and 0 at every other
    free column.
    """
    rows: dict[Hashable, int] = {}
    table = PivotTable()
    out = []
    for j, m in enumerate(basis.monomials):
        vec = {rows.setdefault(k, len(rows)): c for k, c in expand(m).terms.items()}
        residual, trail = table.reduce(vec)
        if residual:
            table.store(residual, trail, j)
            continue
        kernel = {i: -c for i, c in table.combination(trail).items()}
        kernel[j] = 1
        out.append(Polynomial({basis.monomials[i]: c for i, c in sorted(kernel.items())}))
    return out
