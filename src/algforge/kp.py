"""Variant-operation transform for multilinear identity systems.

Given a variety of n-ary algebras presented by multilinear identities, the
transform introduces n subscripted copies of each operation and produces:

* Part 1 - for each identity of degree d, d transformed identities, one per
  choice of central variable.  Every operation occurrence is re-subscripted
  by where the central variable sits relative to that occurrence: variant j
  if it lies inside argument j, variant 1 if it lies strictly to the left of
  the occurrence's leaves, variant n if strictly to the right.
* Part 2 - interchange identities stating that in argument i of variant j
  (i != j) the inner variants are mutually replaceable.  Only the spanning
  pairs (1, l) for l = 2..n are emitted; the remaining pairs are linear
  consequences, which the consequence engine can confirm.

Part 1 preserves each monomial's shape and leaf order, so outputs are stable
and reproducible term for term.
"""

from __future__ import annotations

import string

from .core import (
    AlgebraError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    fold,
)


class VarietyPresentation:
    """A signature of plain operations plus multilinear defining identities."""

    def __init__(self, signature, identities):
        self.signature = tuple(sorted(set(signature)))
        self.identities = list(identities)
        for op in self.signature:
            if op.variant is not None:
                raise AlgebraError("input signature must use unsubscripted operations")
        for ident in self.identities:
            if not ident.is_multilinear():
                raise AlgebraError(f"identity {ident.name or ident!r} is not multilinear")


class KPOutput:
    """Transform result: Part 1 identity groups, Part 2 identities, families."""

    def __init__(self, part1_groups, part2, families):
        self.part1_groups = [list(g) for g in part1_groups]
        self.part2 = list(part2)
        self.families = dict(families)

    @property
    def part1(self) -> list[Identity]:
        return [ident for group in self.part1_groups for ident in group]

    def all_identities(self) -> list[Identity]:
        return self.part1 + self.part2


def _retag_monomial(m: Monomial, central: str) -> Monomial:
    """Re-subscript every operation occurrence by the position rule: one fold
    whose images are (tree, whether it holds the central letter)."""
    if m.leaf_names().count(central) != 1:
        raise AlgebraError(f"central variable {central} must occur exactly once")
    passed = False

    def leaf(v: Variable) -> tuple:
        nonlocal passed
        here = v.name == central
        passed = passed or here
        return Monomial.leaf(v), here

    def node(op: OpSymbol, kids: list) -> tuple:
        # the argument that holds the central letter; else the letter lies to
        # the left if the fold has passed it, to the right if not
        held = next((i for i, (_, here) in enumerate(kids, start=1) if here), None)
        variant = held or (1 if passed else op.arity)
        return Monomial.apply(op.with_variant(variant), [t for t, _ in kids]), held is not None

    return fold(m, leaf, node)[0]


def kp_part1(identity: Identity) -> list[Identity]:
    """One transformed identity per central variable, in variable order."""
    if not identity.is_multilinear():
        raise AlgebraError("part 1 requires a multilinear identity")
    out = []
    for v in identity.variables:
        terms = {}
        for m, c in identity.lhs.terms.items():
            terms[_retag_monomial(m, v.name)] = c
        name = f"{identity.name}.{v.name}" if identity.name else None
        out.append(Identity(Polynomial(terms), identity.variables, name=name))
    return out


def _part2_variables(arity: int) -> list[Variable]:
    letters = string.ascii_lowercase
    count = 2 * arity - 1
    if count <= len(letters):
        return [Variable(letters[i]) for i in range(count)]
    return [Variable(f"x{i+1}") for i in range(count)]


def _interchange_monomial(op, j, i, inner_variant, varlist) -> Monomial:
    n = op.arity
    names = iter(varlist)
    args = []
    for t in range(1, n + 1):
        if t == i:
            inner_args = [Monomial.leaf(next(names)) for _ in range(n)]
            args.append(Monomial.apply(op.with_variant(inner_variant), inner_args))
        else:
            args.append(Monomial.leaf(next(names)))
    return Monomial.apply(op.with_variant(j), args)


def _interchanges(op: OpSymbol, pairs: dict[tuple[int, int], str]) -> list[Identity]:
    """For each outer variant j, argument i != j and inner-variant pair
    (k, l), in that order: variant j with variant k inside argument i, minus
    the same with variant l; ``pairs`` maps (k, l) to the end of the name."""
    n = op.arity
    varlist = _part2_variables(n)
    out = []
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i == j:
                continue
            for (k, ell), suffix in pairs.items():
                lhs = _interchange_monomial(op, j, i, k, varlist)
                rhs = _interchange_monomial(op, j, i, ell, varlist)
                out.append(Identity(
                    Polynomial({lhs: 1}) - Polynomial({rhs: 1}),
                    varlist,
                    name=f"interchange-{op.name}-{j}.{i}.{suffix}",
                ))
    return out


def kp_part2(op: OpSymbol) -> list[Identity]:
    """Interchange identities for one operation family, ordered by (j, i, l)."""
    if op.variant is not None:
        raise AlgebraError("part 2 takes the unsubscripted family operation")
    return _interchanges(op, {(1, ell): f"{ell}" for ell in range(2, op.arity + 1)})


def variant_family(op: OpSymbol) -> list[OpSymbol]:
    return [op.with_variant(v) for v in range(1, op.arity + 1)]


def kp_apply(variety: VarietyPresentation) -> KPOutput:
    """Run both parts over every identity and operation family."""
    groups = [kp_part1(ident) for ident in variety.identities]
    part2 = []
    families = {}
    for op in variety.signature:
        part2.extend(kp_part2(op))
        families[op.name] = variant_family(op)
    return KPOutput(groups, part2, families)
