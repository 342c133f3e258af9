"""Text grammar for polynomials, identity files, and compact products.

Expression grammar (whitespace insignificant)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := [rational '*'] monomial
    monomial := var | opname '(' expr (',' expr)* ')'
    rational := int ['/' posint]

Operation variants are written ``opname_k`` (e.g. ``br_2``).  A name is an
operation iff it was declared; everything else is a variable.  Declarations::

    op <name>/<arity>              one plain operation
    op <name>/<arity> variants <n> the subscripted family name_1 .. name_n

``format_polynomial`` inverts ``parse``: parsing its output reproduces the
polynomial, and parse-then-format canonicalizes arbitrary input text.

Compact products: ``parse(text, product=mul)`` reads each monomial as a
product over the binary operation ``mul``, the paper's notation for
straightened words like ``-(((ac)b)e)d + 2*(a(bc))e``.  Signs, coefficients
and the printed ``0`` are those of the grammar above.  The factors of each
term, after its coefficient, are chosen by one rule: if the term's product
contains a ``*``, factors are whole names joined by ``*`` (``(a*(b*c))*d``,
``x1*y2``); otherwise they are juxtaposed single letters (``ab(cd)`` is
``((ab)(cd))``).  Either way products fold left to right, a parenthesis
opens a nested product, and a declared operation name followed by ``(`` is
an application whose arguments are expressions, as in ``ro(a,b,ce,d)*c``.
``parse_product`` reads a single product with coefficient 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .core import (
    AlgebraError,
    ArityError,
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    accumulate,
    apply_op,
)


class ParseError(AlgebraError):
    """Syntax or declaration error, with position information."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<punct>[()+\-*/,]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    return tokens


class Signature:
    """Declared operations, addressable by display name (``br``, ``br_2``)."""

    def __init__(self, ops: Sequence[OpSymbol] = ()):
        self._by_name: dict[str, OpSymbol] = {}
        for op in ops:
            self.declare(op)

    def declare(self, op: OpSymbol) -> OpSymbol:
        name = op.display()
        old = self._by_name.get(name)
        if old is not None and old != op:
            raise ParseError(f"conflicting declaration for {name}")
        self._by_name[name] = op
        return op

    def declare_family(self, name: str, arity: int, variants: int | None) -> list[OpSymbol]:
        if variants is None:
            return [self.declare(OpSymbol(name, arity))]
        return [self.declare(OpSymbol(name, arity, v)) for v in range(1, variants + 1)]

    def lookup(self, name: str) -> OpSymbol | None:
        return self._by_name.get(name)

    def ops(self) -> list[OpSymbol]:
        return sorted(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


def _shown(val: str | None) -> str:
    return "end of input" if val is None else repr(val)


class _Parser:
    def __init__(self, text: str, signature: Signature, product: OpSymbol | None = None):
        self.tokens = _tokenize(text)
        self.end = ("end", None, len(text))  # the token past the last one
        self.i = 0
        self.sig = signature
        self.product = product

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else self.end

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.take()
        if val != value:
            raise ParseError(f"expected {value!r}, found {_shown(val)}", pos)

    def take_sign(self):
        """Consume an optional sign: -1 after '-', otherwise None (no scaling)."""
        if self.peek()[1] in ("+", "-"):
            return -1 if self.take()[1] == "-" else None
        return None

    def parse_expr(self) -> Polynomial:
        out: dict[Monomial, Fraction] = {}
        sign = self.take_sign()
        while True:
            accumulate(out, self.parse_term().terms.items(), sign)
            if self.peek()[1] not in ("+", "-"):
                return Polynomial._from_terms(out)
            sign = self.take_sign()

    def parse_term(self) -> Polynomial:
        kind, val, pos = self.peek()
        coeff = 1
        if kind == "int":
            self.take()
            num = int(val)
            den = 1
            kind, val, _ = self.peek()
            if kind == "punct" and val == "/":
                self.take()
                kind, val, pos = self.take()
                if kind != "int":
                    raise ParseError("expected denominator", pos)
                den = int(val)
                if den == 0:
                    raise ParseError("zero denominator", pos)
            coeff = Fraction(num, den)
            if not coeff and self.peek()[1] != "*":
                return Polynomial.zero()  # the printed form of the zero polynomial
            self.expect("*")
        if self.product is None:
            return self.parse_monomial().scale(coeff)
        return self.parse_product(self.term_has_star()).scale(coeff)

    def parse_monomial(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind != "name":
            raise ParseError(f"expected variable or operation, found {_shown(val)}", pos)
        nxt_kind, nxt_val, _ = self.peek()
        if nxt_kind == "punct" and nxt_val == "(":
            op = self.sig.lookup(val)
            if op is None:
                raise ParseError(f"unknown operation {val!r}", pos)
            self.take()
            args = [self.parse_expr()]
            while True:
                kind, v, p = self.take()
                if v == ",":
                    args.append(self.parse_expr())
                elif v == ")":
                    break
                else:
                    raise ParseError(f"expected ',' or ')', found {_shown(v)}", p)
            if len(args) != op.arity:
                raise ArityError(
                    f"{op.display()} expects {op.arity} arguments, got {len(args)}"
                )
            return apply_op(op, args)
        if val in self.sig:
            raise ParseError(f"operation {val!r} used without arguments", pos)
        return Polynomial({Monomial.leaf(Variable(val)): 1})

    def term_has_star(self) -> bool:
        """Whether the product from here to the end of its term contains '*'."""
        depth = 0
        for _, val, _ in self.tokens[self.i:]:
            if val == "*":
                return True
            if val == "(":
                depth += 1
            elif val == ")":
                if not depth:
                    return False
                depth -= 1
            elif not depth and val in ("+", "-", ","):
                return False
        return False

    def parse_product(self, starred: bool) -> Polynomial:
        """Factors joined by '*' or juxtaposed, folded left to right."""
        factors = self.parse_factors(starred)
        while True:
            kind, val, _ = self.peek()
            if starred and val == "*":
                self.take()
            elif starred or not (kind == "name" or val == "("):
                return reduce(lambda x, y: apply_op(self.product, (x, y)), factors)
            factors += self.parse_factors(starred)

    def parse_factors(self, starred: bool) -> list[Polynomial]:
        kind, val, pos = self.peek()
        if val == "(":
            self.take()
            node = self.parse_product(starred)
            self.expect(")")
            return [node]
        if starred or kind != "name" or val in self.sig:
            return [self.parse_monomial()]
        self.take()
        for k, ch in enumerate(val):
            if not ch.isalpha():
                raise ParseError(f"expected letter, found {ch!r}", pos + k)
        return [Polynomial({Monomial.leaf(Variable(ch)): 1}) for ch in val]

    def finished(self) -> bool:
        return self.i >= len(self.tokens)


def parse(
    text: str,
    signature: Signature | Sequence[OpSymbol] = (),
    *,
    product: OpSymbol | None = None,
) -> Polynomial:
    """Parse one expression against a signature of declared operations;
    with a binary ``product``, monomials are compact products over it."""
    if product is not None and product.arity != 2:
        raise ArityError("compact products require a binary operation")
    if not isinstance(signature, Signature):
        signature = Signature(signature)
    p = _Parser(text, signature, product)
    out = p.parse_expr()
    if not p.finished():
        _, val, pos = p.peek()
        raise ParseError(f"trailing input {val!r}", pos)
    return out


def format_polynomial(p: Polynomial) -> str:
    """The grammar's text for ``p``, which ``parse`` reads back."""
    return repr(p)


_DECL = re.compile(
    r"^op\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)(?:\s+variants\s+(\d+))?\s*$"
)


def parse_declaration(line: str, signature: Signature) -> list[OpSymbol]:
    m = _DECL.match(line.strip())
    if not m:
        raise ParseError(f"bad declaration: {line.strip()!r}")
    name, arity, variants = m.group(1), int(m.group(2)), m.group(3)
    return signature.declare_family(name, arity, int(variants) if variants else None)


def parse_file(text: str) -> tuple[Signature, list[Identity]]:
    """Read a declarations header followed by one identity per line.

    Lines are ``op name/arity [variants n]`` declarations, ``name: expr``
    named identities, bare ``expr`` lines, ``#`` comments, or blank.
    """
    signature = Signature()
    identities: list[Identity] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("op ") or line.startswith("op\t"):
            parse_declaration(line, signature)
            continue
        name = None
        # a leading "label:" is never valid expression syntax, so it is a name
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_.\-]*)\s*:\s*(.*)$", line)
        if m:
            name, line = m.group(1), m.group(2)
        identities.append(Identity(parse(line, signature), name=name))
    return signature, identities


def format_file(signature: Signature, identities: Sequence[Identity]) -> str:
    lines = []
    seen: set[str] = set()
    for op in signature.ops():
        base = (op.name, op.arity)
        if op.variant is None:
            lines.append(f"op {op.name}/{op.arity}")
        elif base not in seen:
            family = [o for o in signature.ops() if (o.name, o.arity) == base]
            lines.append(f"op {op.name}/{op.arity} variants {len(family)}")
            seen.add(base)
    for ident in identities:
        prefix = f"{ident.name}: " if ident.name else ""
        lines.append(prefix + format_polynomial(ident.lhs))
    return "\n".join(lines) + "\n"


def parse_product(text: str, op: OpSymbol) -> Monomial:
    """Parse a single compact product over ``op`` with coefficient 1."""
    terms = list(parse(text, product=op).terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise ParseError(f"expected a single product, found {text.strip()!r}")
    return terms[0][0]
