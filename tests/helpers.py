"""Shared test utilities: small associative algebras, basis changes, the
dense structure-table product loops, the index-tuple product over a table's
constants, the fold-per-tuple identity evaluation,
the term-by-term evaluation mod p and the F_p search built on it, the
brute-force right-commutativity orbit, the tree-built permuted-associator
expansion and canonical word list, the structural renaming fold, the free
Leibniz product by recursion on words and the expansion by its fold alone,
the compiled one-step lifts rendered as trees, the tree-built instance
stream, the elimination table that updates every combination eagerly, the
interchange identities over every inner-variant pair, the offset-counting
walk of the variant re-subscripting, random trees of mixed arity, and the
operator identities op1..op4 built from Python operator helpers."""

import itertools
import operator
from fractions import Fraction
from functools import reduce

from hypothesis import strategies as st

from algforge.consequence import DimensionMismatch, UnsupportedLift, compiled_instances
from algforge.core import (
    AlgebraError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    accumulate,
    apply_op,
    fold,
    form_tree,
    q,
)
from algforge.kp import _interchanges
from algforge.leibniz import TensorPolynomial
from algforge.linalg import PivotTable
from algforge.rightcomm import RCPolynomial, RCWord, canonical_shapes, rc_expand, rc_straighten
from algforge.systems import BinaryAlgebra, QuadraticSystem, SymPoly


def upper_triangular_2x2() -> BinaryAlgebra:
    """The 3-dimensional algebra of upper-triangular 2x2 matrices."""
    prod = {
        (0, 0): [1, 0, 0], (0, 1): [0, 1, 0],
        (1, 2): [0, 1, 0], (2, 2): [0, 0, 1],
    }
    return BinaryAlgebra(
        3, ["p", "q", "r"], {k: list(map(Fraction, v)) for k, v in prod.items()}
    )


def full_2x2_matrices() -> BinaryAlgebra:
    """The 4-dimensional full matrix algebra on e11, e12, e21, e22."""
    names = ["m11", "m12", "m21", "m22"]
    prod = {}
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                vec = [Fraction(0)] * 4
                vec[idx[(i, l)]] = Fraction(1)
                prod[(a, b)] = vec
    return BinaryAlgebra(4, names, prod)


def _table(mat) -> PivotTable:
    table = PivotTable()
    for i, row in enumerate(mat):
        table.add({j: Fraction(x) for j, x in enumerate(row) if x}, i)
    return table


def invert(mat):
    n = len(mat)
    table = _table(mat)
    assert table.rank == n
    # row j of the inverse expresses the unit vector e_j in the rows of mat
    inverse = []
    for j in range(n):
        combo = table.combination(table.reduce({j: Fraction(1)})[1])
        inverse.append([combo.get(i, Fraction(0)) for i in range(n)])
    return inverse


def random_basis_change(algebra: BinaryAlgebra, rng) -> BinaryAlgebra:
    """Conjugate the structure constants by a random invertible matrix."""
    n = algebra.dim
    while True:
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if _table(mat).rank == n:
            break
    inv = invert(mat)
    rows = [dict(enumerate(row)) for row in mat]
    new = {}
    for i in range(n):
        for j in range(n):
            w = algebra.multiply_into([rows[i], rows[j]])
            new[i, j] = [sum(x * inv[k][t] for k, x in w.items()) for t in range(n)]
    return BinaryAlgebra(n, algebra.basis, new)


def dense_grid(dim: int, arity: int, constants) -> list:
    """Nested lists c[i][j]...[l] from a mapping of index tuples to sparse
    vectors: the dense layout the reference loops below read."""
    def grid(depth, prefix):
        if depth == 0:
            vec = constants.get(prefix, {})
            return [Fraction(vec.get(l, 0)) for l in range(dim)]
        return [grid(depth - 1, prefix + (i,)) for i in range(dim)]
    return grid(arity, ())


def reference_triple(c, dim, u, v, w):
    """The dense ternary product loop: lists in, list out."""
    out = [Fraction(0)] * dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            uv = ui * vj
            for k, wk in enumerate(w):
                if not wk:
                    continue
                factor = uv * wk
                cvec = c[i][j][k]
                for l, cl in enumerate(cvec):
                    if cl:
                        out[l] = out[l] + factor * cl
    return out


def reference_product(c, dim, u, v):
    """The dense binary product loop: lists in, list out."""
    out = [Fraction(0)] * dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            factor = ui * vj
            for l, cl in enumerate(c[i][j]):
                if cl:
                    out[l] = out[l] + factor * cl
    return out


def reference_multiply(table, vectors) -> dict:
    """The oracle for ``StructureTable.multiply_into``: every index tuple of
    the factors' supports in turn, looked up in ``table.c``, with the factors'
    coefficients multiplied left to right."""
    if len(vectors) != table.arity:
        raise AlgebraError(f"arity-{table.arity} table multiplies {table.arity} vectors only")
    out = {}
    # index tuples and coefficient tuples in step: iterating a dict gives its keys
    for idx, coeffs in zip(itertools.product(*vectors),
                           itertools.product(*map(dict.values, vectors))):
        cvec = table.c.get(idx)
        if cvec:
            accumulate(out, cvec.items(), reduce(operator.mul, coeffs, 1))
    return out


def reference_evaluate(table, identity, assignment) -> dict:
    """An identity's polynomial on vector arguments (variable name -> sparse
    vector), refolding every monomial tree through ``reference_multiply``."""
    out = {}
    for m, coeff in identity.lhs.terms.items():
        value = fold(m, lambda v: assignment[v.name],
                     lambda op, args: reference_multiply(table, args))
        accumulate(out, value.items(), coeff)
    return out


def reference_evaluations(table, identities, dim=None):
    """The oracle for ``systems.evaluations``: (identity, basis tuple, value)
    in the same order (tuple lengths ascending, tuples lexicographic,
    identities as given), each value by ``reference_evaluate``."""
    dim = table.dim if dim is None else dim
    for size in sorted({len(ident.variables) for ident in identities}):
        same = [ident for ident in identities if len(ident.variables) == size]
        for tup in itertools.product(range(dim), repeat=size):
            vectors = [{i: 1} for i in tup]
            for ident in same:
                assign = {v.name: vec for v, vec in zip(ident.variables, vectors)}
                yield ident, tup, reference_evaluate(table, ident, assign)


def evaluate_mod(poly: SymPoly, values, p: int) -> int:
    """The value mod p of ``poly`` at integer values of its symbols, term by
    term; a coefficient whose denominator p divides raises ``AlgebraError``."""
    total = 0
    for mono, c in poly.terms.items():
        if c.denominator % p == 0:
            raise AlgebraError(f"coefficient {c} not defined mod {p}")
        term = c.numerator * pow(c.denominator, -1, p)
        for s in mono:
            term = term * values[s]
        total = (total + term) % p
    return total % p


def reference_search_fp(system: QuadraticSystem, p: int, free, fixed) -> list[dict]:
    """The oracle for ``systems.search_fp``: every candidate evaluates every
    equation with ``evaluate_mod``; unknowns neither free nor fixed are 0,
    and a coordinate both free and fixed is refused."""
    for name in free:
        if name in fixed:
            raise AlgebraError(f"coordinate {name!r} is both in the mask and fixed")
    values = dict.fromkeys(system.unknowns, 0)
    values.update(fixed)
    solutions = []
    for combo in itertools.product(range(p), repeat=len(free)):
        values.update(zip(free, combo))
        if not any([evaluate_mod(eq, values, p) for eq in system.equations]):
            solutions.append(dict(zip(free, combo)))
    return solutions


def _rc_moves(m: Monomial):
    """Single right-commutativity swaps applicable anywhere in the tree."""
    if m.is_leaf:
        return
    left, right = m.children
    if not right.is_leaf:
        yield Monomial.apply(m.op, (left, Monomial.apply(right.op, right.children[::-1])))
    for i, child in enumerate(m.children):
        for moved in _rc_moves(child):
            yield Monomial.apply(m.op, m.children[:i] + (moved,) + m.children[i + 1:])


def rc_orbit(m: Monomial) -> set[Monomial]:
    """The right-commutativity orbit of ``m`` by brute-force closure under
    single swaps: the oracle for the straightening normal form."""
    seen, frontier = {m}, [m]
    while frontier:
        for nxt in _rc_moves(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def rc_order(m: Monomial) -> tuple:
    """Straightening order: shape (right factor's degree, then the factors), then letters."""
    def shape(t):
        return () if t.is_leaf else (t.children[1].degree, shape(t.children[0]), shape(t.children[1]))
    return shape(m), m.leaf_names()


def reference_permuted_associator_expand(p: Polynomial, product: OpSymbol) -> RCPolynomial:
    """The oracle for ``rightcomm.permuted_associator_expand``: every binary
    tree of the image of <x,y,z> -> (xz)y - x(zy) is built with ``apply_op``
    and the image is straightened term by term with ``rc_expand``."""

    def node(op: OpSymbol, args: list) -> Polynomial:
        if op.arity != 3:
            raise AlgebraError(f"{op.display()} is not ternary")
        x, y, z = args
        xz = apply_op(product, [x, z])
        zy = apply_op(product, [z, y])
        return apply_op(product, [xz, y]) - apply_op(product, [x, zy])

    image = Polynomial.linear_image(p.terms, lambda m: fold(m, Polynomial._coerce, node))
    return rc_expand(image)


def reference_rc_basis_words(op: OpSymbol, degree: int, variables) -> list:
    """The oracle for ``rightcomm.RCBasis`` word lists: each association type
    filled with each permutation of the variables, straightened, deduplicated
    and sorted."""
    seen = set()
    for shape in canonical_shapes(op, degree):
        for perm in itertools.permutations(sorted(variables)):
            seen.add(rc_straighten(form_tree(shape, perm)))
    return sorted(seen, key=RCWord.sort_key)


def reference_relabel(p, mapping):
    """The oracle for ``core.relabel``: a variable or a whole tree put in for
    each mapped variable by one structural fold, every term to one term."""
    byname = {
        v.name: w if isinstance(w, Monomial) else Monomial.leaf(w) for v, w in mapping.items()
    }

    def leaf(v):
        m = byname.get(v.name)
        return m if m is not None else Monomial.leaf(v)

    return Polynomial._from_terms(
        accumulate({}, ((fold(m, leaf, Monomial.apply), c) for m, c in p.terms.items()))
    )


def reference_word_product(w: tuple, v: tuple) -> dict:
    """The oracle for the free Leibniz product of two words, by recursion on
    the length of the right factor: w . z = w z for a letter z, and
    w . (Y z) = (w . Y) z - (w z) . Y, the law x.(y.z) = (x.y).z - (x.z).y
    read with z a letter."""
    if len(v) == 1:
        return {w + v: 1}
    head, last = v[:-1], v[-1:]
    # appending a letter is injective, so the first part needs no merging
    out = {u + last: c for u, c in reference_word_product(w, head).items()}
    return accumulate(out, reference_word_product(w + last, head).items(), -1)


def reference_free_product(u: TensorPolynomial, v: TensorPolynomial) -> TensorPolynomial:
    """The oracle for ``leibniz.free_product`` with no letter check: the
    recursive word product, extended bilinearly."""
    terms: dict = {}
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            accumulate(terms, reference_word_product(wu, wv).items(), cu * cv)
    return TensorPolynomial._from_terms(terms)


def reference_expand(p) -> TensorPolynomial:
    """The oracle for ``leibniz.expand_binary_tree`` and ``expand_ternary``:
    every tree by the fold of ``reference_free_product`` over its own
    letters, term by term, with no shape table and no arity check."""
    terms = p.terms if isinstance(p, Polynomial) else {p: 1}

    def node(op, args):
        return reduce(reference_free_product, args)

    return TensorPolynomial.linear_image(
        terms, lambda m: fold(m, lambda v: TensorPolynomial.word((v.name,)), node)
    )


def iter_lifted(identity, target_degree, variables):
    """The one-step lifts of an identity to ``target_degree``: the stream
    ``consequence.compiled_instances`` yields for it alone over one more
    variable than its degree, each instance rendered as (tag, tree
    polynomial)."""
    variables = tuple(variables)
    assert identity.degree < target_degree == len(variables)
    for tag, terms in compiled_instances([identity], variables):
        yield tag, Polynomial._from_terms(accumulate({}, (
            (form_tree(key, letters), c) for key, letters, c in terms
        )))


def reference_relabelings(identity, variables):
    """The oracle for ``consequence.iter_relabelings``: each relabeling is
    one ``reference_relabel`` fold of the identity's trees."""
    variables = tuple(variables)
    if len(variables) != len(identity.variables):
        raise DimensionMismatch(
            f"identity has {len(identity.variables)} variables, got {len(variables)}"
        )
    label = identity.name or "g0"
    for perm in itertools.permutations(variables):
        mapping = dict(zip(identity.variables, perm))
        tag = f"{label}({','.join(v.name for v in perm)})"
        yield tag, reference_relabel(identity.lhs, mapping)


def reference_lifted(identity, target_degree, variables):
    """The oracle for ``iter_lifted``: a product tree put in one slot by
    ``reference_relabel``, or a relabeled instance multiplied by ``apply_op``."""
    variables = tuple(variables)
    d = identity.degree
    if target_degree < d:
        raise UnsupportedLift(f"identity {identity.name or 'id'} has degree {d},"
                              f" above the requested degree {target_degree}")
    if target_degree != d + 1:
        raise UnsupportedLift(
            f"only a one-degree lift is supported, asked {d} -> {target_degree}"
        )
    if len(variables) != target_degree:
        raise DimensionMismatch("need target_degree variables")
    ops = set(identity.signature)
    if any(op.arity != 2 for op in ops) or len(ops) != 1:
        raise UnsupportedLift("lifting requires a single binary operation")
    (op,) = ops
    label = identity.name or "g0"
    src = identity.variables
    times = "" if all(len(v.name) == 1 for v in variables) else "*"
    for v_idx, v in enumerate(src):
        others = src[:v_idx] + src[v_idx + 1:]
        for x, y, *rest in itertools.permutations(variables):
            mapping = dict(zip(others, rest))
            mapping[v] = Monomial.apply(op, (Monomial.leaf(x), Monomial.leaf(y)))
            args = [val.name for val in rest]
            args.insert(v_idx, x.name + times + y.name)
            yield f"{label}({','.join(args)})", reference_relabel(identity.lhs, mapping)
    for f, *rest in itertools.permutations(variables):
        inst = reference_relabel(identity.lhs, dict(zip(src, rest)))
        args = ",".join(v.name for v in rest)
        fpoly = Polynomial({Monomial.leaf(f): 1})
        yield f"{label}({args})*{f.name}", apply_op(op, [inst, fpoly])
        yield f"{f.name}*{label}({args})", apply_op(op, [fpoly, inst])


def reference_instances(identities, variables):
    """The oracle for ``consequence.compiled_instances``: every instance
    built as a tree polynomial, in the same order and with the same tags."""
    variables = tuple(variables)
    for idx, ident in enumerate(identities):
        named = ident if ident.name else ident.renamed(f"g{idx}")
        if ident.degree == len(variables):
            yield from reference_relabelings(named, variables)
        else:
            yield from reference_lifted(named, len(variables), variables)


def typed_items(mapping) -> list:
    """The items of a vector, combination or term dict, each value with its
    type, so that ``1`` and ``Fraction(1)`` compare unequal."""
    return [(k, c, type(c)) for k, c in mapping.items()]


class EagerPivotTable:
    """The oracle for ``linalg.PivotTable``: every reduction step updates the
    generator combination as it goes, so each answer reads it directly."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec):
        work, combo = dict(vec), {}
        while work:
            lead = min(work)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            pvec, pcombo = hit
            factor = work[lead]
            accumulate(work, pvec.items(), -factor)
            accumulate(combo, pcombo.items(), factor)
        return work, combo

    def add(self, vec, tag=None) -> bool:
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        self.store(residual, combo, tag)
        return True

    def store(self, residual, combo, tag=None) -> None:
        lead = min(residual)
        scale = q(Fraction(1) / residual[lead])
        normal = {k: q(c * scale) for k, c in residual.items()}
        self.pivots[lead] = (normal, accumulate({tag: scale}, combo.items(), -scale))

    def membership(self, vec):
        residual, combo = self.reduce(vec)
        if residual:
            return False, {}, min(residual)
        return True, combo, None


def eager_kernel_of_expansion(basis, expand) -> list[Polynomial]:
    """The oracle for ``consequence.kernel_of_expansion``, over the eager table."""
    rows, table, out = {}, EagerPivotTable(), []
    for j, m in enumerate(basis.monomials):
        vec = {rows.setdefault(k, len(rows)): c for k, c in expand(m).terms.items()}
        residual, combo = table.reduce(vec)
        if residual:
            table.store(residual, combo, j)
            continue
        kernel = {i: -c for i, c in combo.items()}
        kernel[j] = 1
        out.append(Polynomial({basis.monomials[i]: c for i, c in sorted(kernel.items())}))
    return out


def kp_part2_full(op: OpSymbol) -> list[Identity]:
    """The oracle for the spanning-pairs claim of ``kp.kp_part2``: all
    interchange identities over unordered inner-variant pairs k < l."""
    pairs = itertools.combinations(range(1, op.arity + 1), 2)
    return _interchanges(op, {(k, ell): f"{k}.{ell}" for k, ell in pairs})


def reference_retag_monomial(m: Monomial, central: str) -> Monomial:
    """The oracle for ``kp._retag_monomial``: a walk that tracks each node's
    leaf offset and width and compares them with the central letter's
    position."""
    leaves = m.leaf_names()
    if leaves.count(central) != 1:
        raise AlgebraError(f"central variable {central} must occur exactly once")
    pos = leaves.index(central)

    def walk(node: Monomial, lo: int) -> Monomial:
        if node.is_leaf:
            return node
        width = node.degree
        n = node.op.arity
        if pos < lo:
            variant = 1
        elif pos >= lo + width:
            variant = n
        else:
            variant = None
        children = []
        child_lo = lo
        for idx, child in enumerate(node.children, start=1):
            if variant is None and child_lo <= pos < child_lo + child.degree:
                chosen = idx
            children.append(walk(child, child_lo))
            child_lo += child.degree
        if variant is None:
            variant = chosen
        return Monomial.apply(node.op.with_variant(variant), children)

    return walk(m, 0)


# unary, binary and ternary operations, one of them subscripted
MIXED_OPS = (OpSymbol("neg", 1), OpSymbol("mul", 2), OpSymbol("dot", 2),
             OpSymbol("br", 3), OpSymbol("tr", 3, 2))


@st.composite
def mixed_trees(draw, letters=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=7)):
    """A random tree over ``MIXED_OPS`` whose leaves, left to right, are the
    drawn letters (a letter may repeat): products of neighbouring items, with
    at most two unary nodes, until one item is left."""
    items, unary = [Monomial.leaf(x) for x in draw(letters)], 2
    while len(items) > 1 or unary and draw(st.booleans()):
        fits = [op for op in MIXED_OPS if op.arity <= len(items) and (op.arity > 1 or unary)]
        op = draw(st.sampled_from(fits))
        unary -= op.arity == 1
        at = draw(st.integers(0, len(items) - op.arity))
        items[at:at + op.arity] = [Monomial.apply(op, items[at:at + op.arity])]
    return items[0]


def reference_operator_identities() -> dict[str, Identity]:
    """The oracle for the operator fixtures op1..op4: each built in Python
    from R_{a,b}(x) = <x,a,b> - <x,b,a> and L_{a,b}(x) = <a,b,x>."""
    br = OpSymbol("br", 3)
    a, b, c, d, e = (Polynomial({Monomial.leaf(Variable(n)): 1}) for n in "abcde")

    def t(x, y, z):
        return apply_op(br, [x, y, z])

    def R(x, p, q):
        return t(x, p, q) - t(x, q, p)

    def L(x, p, q):
        return t(p, q, x)

    ops = {
        "op1": R(t(c, d, e), a, b) - t(R(c, a, b), d, e) - t(c, R(d, a, b), e) - t(c, d, R(e, a, b)),
        "op2": (
            L(t(c, d, e), a, b) - t(L(c, a, b), d, e) + t(L(d, a, b), c, e)
            + t(L(e, a, b), c, d) - t(L(e, a, b), d, c)
        ),
        "op3": (
            R(R(e, c, d), a, b) - R(R(e, a, b), c, d)
            - (t(e, R(c, a, b), d) - t(e, d, R(c, a, b)))
            + (t(e, R(d, a, b), c) - t(e, c, R(d, a, b)))
        ),
        "op4": R(L(e, a, b), c, d) - L(R(e, c, d), a, b) - t(L(c, a, b), d, e) + t(L(d, a, b), c, e),
    }
    return {name: Identity(p, name=name) for name, p in ops.items()}
