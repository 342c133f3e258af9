"""Finite-dimensional ternary systems, their checks, and Leibniz envelopes.

A ternary system is a multiplication table <e_i, e_j, e_k> = sum_l c[i][j][k][l] e_l
over named basis elements with exact rational (or symbolic) entries.  The
module evaluates identity fixtures on all basis tuples, builds the enveloping
binary algebra of dimension n(n+1) on the basis e_1..e_n followed by the
pairs e_i e_j (row-major), and renders multiplication tables in an aligned
text layout with "." for zero entries.

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
from typing import Mapping, Sequence, Union

from .core import AlgebraError, Identity, LinComb, Monomial, Polynomial, Variable, accumulate
from .parsing import Signature, format_polynomial, parse


class SymPoly(LinComb):
    """A small exact multivariate polynomial: monomial tuple -> Fraction.

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
        return SymPoly({(): Fraction(c)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    __radd__ = LinComb.__add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SymPoly._from_terms(accumulate({}, (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )))

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

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

    def evaluate_mod(self, values: Mapping[str, int], p: int) -> int:
        total = 0
        for mono, c in self.terms.items():
            if c.denominator % p == 0:
                raise AlgebraError(f"coefficient {c} not defined mod {p}")
            term = c.numerator * pow(c.denominator, -1, p)
            for s in mono:
                term = term * values[s]
            total = (total + term) % p
        return total % p

    def _render_term(self, mono: tuple, c: Fraction) -> str:
        return super()._render_term(mono, c) if mono else str(abs(c))


Scalar = Union[Fraction, SymPoly]


def _zero() -> Fraction:
    return Fraction(0)


def _parse_vector(text: str, basis: Sequence[str]) -> list[Fraction]:
    """Parse a linear combination of basis names into a coordinate vector."""
    poly = parse(text, Signature())
    vec = [Fraction(0)] * len(basis)
    pos = {name: i for i, name in enumerate(basis)}
    for m, c in poly.terms.items():
        if not m.is_leaf:
            raise AlgebraError(f"expected a linear combination of basis names: {text!r}")
        i = pos.get(m.var.name)
        if i is None:
            raise AlgebraError(f"unknown basis element {m.var.name!r}")
        vec[i] += c
    return vec


def _format_vector(vec: Sequence[Scalar], basis: Sequence[str]) -> str:
    """Compact linear combination: '.', 'x', '-2*xy+2*yx', in basis order."""
    parts = []
    for c, name in zip(vec, basis):
        if isinstance(c, SymPoly):
            raise AlgebraError("cannot render symbolic entries")
        if not c:
            continue
        if abs(c) == 1:
            body = name
        else:
            body = f"{abs(c)}*{name}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "."


class TernaryTable:
    """Structure constants of a ternary system over a named basis."""

    def __init__(self, dim: int, basis: Sequence[str], constants):
        if dim < 1:
            raise AlgebraError("dimension must be at least 1")
        basis = list(basis)
        if len(basis) != dim:
            raise AlgebraError("basis size must equal dimension")
        self.dim = dim
        self.basis = basis
        # constants: dense c[i][j][k] = coefficient vector, or sparse mapping
        if isinstance(constants, Mapping):
            table = [
                [[[_zero()] * dim for _ in range(dim)] for _ in range(dim)]
                for _ in range(dim)
            ]
            for (i, j, k), vec in constants.items():
                table[i][j][k] = list(vec)
            self.c = table
        else:
            self.c = [
                [[list(constants[i][j][k]) for k in range(dim)] for j in range(dim)]
                for i in range(dim)
            ]

    @staticmethod
    def from_json(obj: Union[str, Mapping]) -> "TernaryTable":
        """Schema: {"dim": n, "basis": [...], "triple": {"x,y,x": "y", ...}};
        omitted entries are zero, values are linear combinations of basis names."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        dim = int(obj["dim"])
        basis = list(obj.get("basis") or [f"e{i+1}" for i in range(dim)])
        pos = {name: i for i, name in enumerate(basis)}
        sparse = {}
        for key, value in (obj.get("triple") or {}).items():
            names = [s.strip() for s in key.split(",")]
            if len(names) != 3 or any(n not in pos for n in names):
                raise AlgebraError(f"bad triple key {key!r}")
            idx = tuple(pos[n] for n in names)
            sparse[idx] = _parse_vector(value, basis)
        return TernaryTable(dim, basis, sparse)

    def to_json(self) -> dict:
        triple = {}
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            vec = self.c[i][j][k]
            if any(vec):
                key = f"{self.basis[i]},{self.basis[j]},{self.basis[k]}"
                poly = Polynomial(
                    {Monomial.leaf(Variable(self.basis[l])): c for l, c in enumerate(vec) if c}
                )
                triple[key] = format_polynomial(poly)
        return {"dim": self.dim, "basis": list(self.basis), "triple": triple}

    def basis_vector(self, i: int) -> list[Fraction]:
        vec = [Fraction(0)] * self.dim
        vec[i] = Fraction(1)
        return vec

    def triple(self, u: Sequence[Scalar], v: Sequence[Scalar], w: Sequence[Scalar]):
        out: list[Scalar] = [Fraction(0)] * self.dim
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
                    cvec = self.c[i][j][k]
                    for l, cl in enumerate(cvec):
                        if cl:
                            out[l] = out[l] + factor * cl
        return out

    def evaluate(self, identity: Identity, assignment: Mapping[str, Sequence[Scalar]]):
        """Evaluate an identity's polynomial on vector arguments."""
        ternary_eval = self.triple

        def mono(m: Monomial):
            if m.is_leaf:
                return assignment[m.var.name]
            if m.op.arity != 3:
                raise AlgebraError("ternary table evaluates ternary identities")
            x, y, z = (mono(c) for c in m.children)
            return ternary_eval(x, y, z)

        out: list[Scalar] = [Fraction(0)] * self.dim
        for m, coeff in identity.lhs.terms.items():
            vec = mono(m)
            for l in range(self.dim):
                if vec[l]:
                    out[l] = out[l] + coeff * vec[l]
        return out


def _is_zero_vector(vec) -> bool:
    return all(not x for x in vec)


def check_identities(
    table: TernaryTable, identities: Sequence[Identity]
) -> tuple[bool, list[tuple[str, tuple[int, ...]]]]:
    """Evaluate identities on every basis tuple; violations sorted by tuple."""
    violations = []
    degrees = {ident.degree for ident in identities}
    for tup_len in sorted(degrees):
        for tup in itertools.product(range(table.dim), repeat=tup_len):
            vectors = [table.basis_vector(i) for i in tup]
            for ident in identities:
                if ident.degree != tup_len:
                    continue
                assign = {
                    v.name: vec for v, vec in zip(ident.variables, vectors)
                }
                if not _is_zero_vector(table.evaluate(ident, assign)):
                    violations.append((ident.name or "identity", tup))
    return (not violations), violations


def check_lts(table: TernaryTable):
    """Do the two defining five-variable identities hold on all basis tuples?"""
    from .fixtures import FIXTURES

    return check_identities(table, [FIXTURES["lts-a"], FIXTURES["lts-b"]])


def lie_triple_check(table: TernaryTable):
    """Do the three classical ternary identities hold on all basis tuples?"""
    from .fixtures import FIXTURES

    ok, violations = check_identities(
        table, [FIXTURES["l1"], FIXTURES["l2"], FIXTURES["l3"]]
    )
    return ok, violations


class BinaryAlgebra:
    """A binary multiplication table over a named basis."""

    def __init__(self, dim: int, basis: Sequence[str], product):
        basis = list(basis)
        if len(basis) != dim:
            raise AlgebraError("basis size must equal dimension")
        self.dim = dim
        self.basis = basis
        if isinstance(product, Mapping):
            table = [
                [[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)
            ]
            for (i, j), vec in product.items():
                table[i][j] = list(vec)
            self.m = table
        else:
            self.m = [[list(product[i][j]) for j in range(dim)] for i in range(dim)]

    @staticmethod
    def from_json(obj: Union[str, Mapping]) -> "BinaryAlgebra":
        if isinstance(obj, str):
            obj = json.loads(obj)
        dim = int(obj["dim"])
        basis = list(obj.get("basis") or [f"e{i+1}" for i in range(dim)])
        pos = {name: i for i, name in enumerate(basis)}
        sparse = {}
        for key, value in (obj.get("product") or {}).items():
            names = [s.strip() for s in key.split(",")]
            if len(names) != 2 or any(n not in pos for n in names):
                raise AlgebraError(f"bad product key {key!r}")
            sparse[(pos[names[0]], pos[names[1]])] = _parse_vector(value, basis)
        return BinaryAlgebra(dim, basis, sparse)

    def to_json(self) -> dict:
        product = {}
        for i, j in itertools.product(range(self.dim), repeat=2):
            vec = self.m[i][j]
            if any(vec):
                poly = Polynomial(
                    {Monomial.leaf(Variable(self.basis[l])): c for l, c in enumerate(vec) if c}
                )
                product[f"{self.basis[i]},{self.basis[j]}"] = format_polynomial(poly)
        return {"dim": self.dim, "basis": list(self.basis), "product": product}

    def basis_vector(self, i: int) -> list[Fraction]:
        vec = [Fraction(0)] * self.dim
        vec[i] = Fraction(1)
        return vec

    def product(self, u, v):
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                factor = ui * vj
                for l, cl in enumerate(self.m[i][j]):
                    if cl:
                        out[l] = out[l] + factor * cl
        return out

    def render_table(self) -> str:
        entries = [
            [_format_vector(self.m[i][j], self.basis) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        return render_grid(self.basis, entries)


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
    n = table.dim
    dim = n * (n + 1)
    basis = list(table.basis)
    pair_index = {}
    for i in range(n):
        for j in range(n):
            pair_index[(i, j)] = len(basis)
            basis.append(_pair_name(table.basis, i, j))

    def zero():
        return [Fraction(0)] * dim

    product = [[zero() for _ in range(dim)] for _ in range(dim)]

    def embed_t(vec_t):
        out = zero()
        for l, c in enumerate(vec_t):
            out[l] = out[l] + c
        return out

    for i in range(n):
        for j in range(n):
            # e_i . e_j = pair(i, j)
            vec = zero()
            vec[pair_index[(i, j)]] = Fraction(1)
            product[i][j] = vec
    for i in range(n):
        for j, k in itertools.product(range(n), repeat=2):
            # e_i . pair(j,k) = <i,j,k> - <i,k,j>
            diff = [
                table.c[i][j][k][l] - table.c[i][k][j][l] for l in range(n)
            ]
            product[i][pair_index[(j, k)]] = embed_t(diff)
            # pair(j,k) . e_i = <j,k,i>
            product[pair_index[(j, k)]][i] = embed_t(table.c[j][k][i])
    for i, j in itertools.product(range(n), repeat=2):
        for k, l in itertools.product(range(n), repeat=2):
            # pair(i,j) . pair(k,l) = <i,j,k> l - <i,j,l> k
            vec = zero()
            for m_, c in enumerate(table.c[i][j][k]):
                if c:
                    vec[pair_index[(m_, l)]] += c
            for m_, c in enumerate(table.c[i][j][l]):
                if c:
                    vec[pair_index[(m_, k)]] -= c
            product[pair_index[(i, j)]][pair_index[(k, l)]] = vec
    return BinaryAlgebra(dim, basis, product)


def check_leibniz(algebra: BinaryAlgebra):
    """Check <<a,b>,c> = <<a,c>,b> + <a,<b,c>> on all basis triples."""
    violations = []
    for i, j, k in itertools.product(range(algebra.dim), repeat=3):
        a = algebra.basis_vector(i)
        b = algebra.basis_vector(j)
        c = algebra.basis_vector(k)
        lhs = algebra.product(algebra.product(a, b), c)
        rhs1 = algebra.product(algebra.product(a, c), b)
        rhs2 = algebra.product(a, algebra.product(b, c))
        if any(lhs[l] - rhs1[l] - rhs2[l] for l in range(algebra.dim)):
            violations.append((i, j, k))
    return (not violations), violations


def iterated_bracket_table(algebra: BinaryAlgebra, dim: int) -> TernaryTable:
    """The ternary system <<a,b>,c> restricted to the first ``dim`` basis
    coordinates (they must be closed under the iterated bracket)."""
    sparse = {}
    for i, j, k in itertools.product(range(dim), repeat=3):
        vec = algebra.product(
            algebra.product(algebra.basis_vector(i), algebra.basis_vector(j)),
            algebra.basis_vector(k),
        )
        if any(vec[dim:]):
            raise AlgebraError("subspace is not closed under the iterated bracket")
        if any(vec[:dim]):
            sparse[(i, j, k)] = vec[:dim]
    return TernaryTable(dim, algebra.basis[:dim], sparse)


def from_associative(mult: BinaryAlgebra) -> TernaryTable:
    """The ternary system abc - bac - cab + cba inside an associative algebra."""
    sparse = {}
    n = mult.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b, c = (mult.basis_vector(t) for t in (i, j, k))

        def triple3(x, y, z):
            return mult.product(mult.product(x, y), z)

        vec = [
            triple3(a, b, c)[l]
            - triple3(b, a, c)[l]
            - triple3(c, a, b)[l]
            + triple3(c, b, a)[l]
            for l in range(n)
        ]
        if any(vec):
            sparse[(i, j, k)] = vec
    return TernaryTable(n, mult.basis, sparse)


class QuadraticSystem:
    """Homogeneous quadratic equations in the symbolic structure coefficients."""

    def __init__(self, unknowns: Sequence[str], equations: Sequence[SymPoly]):
        self.unknowns = list(unknowns)
        self.equations = list(equations)

    def substitute(self, values: Mapping[str, object]) -> list[SymPoly]:
        """Evaluate every equation; unknowns not mentioned are zero."""
        full = {u: Fraction(0) for u in self.unknowns}
        full.update(values)
        return [eq.substitute(full) for eq in self.equations]

    def is_satisfied(self, values: Mapping[str, object]) -> bool:
        return all(res.is_zero for res in self.substitute(values))


def symbolic_table(n: int = 2) -> TernaryTable:
    """Structure constants with one symbol per coefficient: a_ijk and b_ijk
    for n = 2 (coefficient of x and y), c{i}{j}{k}_{l} in general."""
    basis = ["x", "y", "z"][:n] if n <= 3 else [f"e{i+1}" for i in range(n)]
    table = TernaryTable(n, basis, {})
    dense = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                vec = []
                for l in range(n):
                    if n == 2:
                        letter = "a" if l == 0 else "b"
                        name = f"{letter}{i+1}{j+1}{k+1}"
                    else:
                        name = f"c{i+1}{j+1}{k+1}_{l+1}"
                    vec.append(SymPoly.symbol(name))
                row.append(vec)
            plane.append(row)
        dense.append(plane)
    table.c = dense
    return table


def lts_equations(n: int = 2) -> QuadraticSystem:
    """Impose the two defining identities on a symbolic n-dimensional table."""
    from .fixtures import FIXTURES

    table = symbolic_table(n)
    unknowns = sorted(
        {s for i in range(n) for j in range(n) for k in range(n)
         for l in range(n) for s in table.c[i][j][k][l].symbols()}
    )
    seen: set = set()
    equations: list[SymPoly] = []
    for ident in (FIXTURES["lts-a"], FIXTURES["lts-b"]):
        for tup in itertools.product(range(n), repeat=5):
            vectors = [table.basis_vector(i) for i in tup]
            assign = {v.name: vec for v, vec in zip(ident.variables, vectors)}
            out = table.evaluate(ident, assign)
            for coord in out:
                if isinstance(coord, SymPoly) and not coord.is_zero:
                    norm = coord.normalized()
                    key = frozenset(norm.terms.items())
                    if key not in seen:
                        seen.add(key)
                        equations.append(norm)
    return QuadraticSystem(unknowns, equations)


def search_fp(
    system: QuadraticSystem,
    p: int,
    free: Sequence[str],
    fixed: Mapping[str, int] | None = None,
    limit: int = 10**8,
) -> list[dict[str, int]]:
    """All solutions over F_p with the given free coordinates; other unknowns
    take their ``fixed`` value (default 0).  No isomorphism reduction."""
    free = list(free)
    if not free:
        raise AlgebraError("empty mask: no free coordinates to search")
    unknown_set = set(system.unknowns)
    for name in free:
        if name not in unknown_set:
            raise AlgebraError(f"unknown coordinate {name!r}")
    if p ** len(free) > limit:
        raise AlgebraError(f"mask too large: {p}^{len(free)} candidates")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise AlgebraError(f"F_p needs a prime p, got {p}")
    base = {name: 0 for name in system.unknowns}
    for name, val in (fixed or {}).items():
        if name not in unknown_set:
            raise AlgebraError(f"unknown coordinate {name!r}")
        base[name] = val % p
    solutions = []
    for combo in itertools.product(range(p), repeat=len(free)):
        values = dict(base)
        values.update(zip(free, combo))
        if all(eq.evaluate_mod(values, p) == 0 for eq in system.equations):
            solutions.append({name: values[name] for name in free})
    return solutions
