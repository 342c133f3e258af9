"""The named fixture corpus: identity sets, system tables, and goldens.

Fixture names are stable API.  Identity fixtures are loaded from the text
files under ``data/`` (so every fixture exercises the expression grammar);
the operator-form identities and the transcribed straightened expansions
are constructed here.  Lookup is case-insensitive and treats ``-`` and
``_`` alike.  The transcribed expansions and the lifted-instance tags of
the stated RJ/RO combinations are grammar text in compact-product mode;
a tag such as ``ro(a,b,c,e)*d`` applies RJ or RO as a 4-ary operation.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .core import AlgebraError, Identity, Monomial, OpSymbol, Polynomial, RewriteRule, Variable
from .core import apply_op, apply_rules, rule_from_identity
from .kp import variant_family
from .parsing import parse, parse_file
from .rightcomm import RCPolynomial, rc_expand
from .systems import TernaryTable

TERNARY = OpSymbol("br", 3)
BINARY = OpSymbol("mul", 2)

_IDENTITY_FILES = (
    "varieties/associativity.txt",
    "varieties/lie.txt",
    "varieties/lie-triple.txt",
    "identities/dialgebra.txt",
    "identities/leibniz.txt",
    "identities/variant-lie.txt",
    "identities/variant-triple.txt",
    "identities/triple-systems.txt",
    "identities/jordan.txt",
)


def data_text(relpath: str) -> str:
    return (
        resources.files("algforge").joinpath("data").joinpath(relpath).read_text()
    )


def _load_identities() -> dict[str, Identity]:
    out: dict[str, Identity] = {}
    for rel in _IDENTITY_FILES:
        _, identities = parse_file(data_text(rel))
        for ident in identities:
            if ident.name is None:
                raise ValueError(f"unnamed identity in {rel}")
            key = _norm(ident.name)
            if key in out:
                raise ValueError(f"duplicate fixture name {ident.name}")
            out[key] = ident
    return out


def _norm(name: str) -> str:
    return name.lower().replace("_", "-")


def _br(x, y, z) -> Polynomial:
    return apply_op(TERNARY, [x, y, z])


def _right_op(x, a, b) -> Polynomial:
    """R_{a,b}(x) = <x,a,b> - <x,b,a>."""
    return _br(x, a, b) - _br(x, b, a)


def _left_op(x, a, b) -> Polynomial:
    """L_{a,b}(x) = <a,b,x>."""
    return _br(a, b, x)


def _operator_identities() -> dict[str, Identity]:
    a, b, c, d, e = (
        Polynomial({Monomial.leaf(Variable(n)): 1}) for n in "abcde"
    )
    R, L = _right_op, _left_op
    op1 = (
        R(_br(c, d, e), a, b)
        - _br(R(c, a, b), d, e)
        - _br(c, R(d, a, b), e)
        - _br(c, d, R(e, a, b))
    )
    op2 = (
        L(_br(c, d, e), a, b)
        - _br(L(c, a, b), d, e)
        + _br(L(d, a, b), c, e)
        + _br(L(e, a, b), c, d)
        - _br(L(e, a, b), d, c)
    )
    op3 = (
        R(R(e, c, d), a, b)
        - R(R(e, a, b), c, d)
        - (_br(e, R(c, a, b), d) - _br(e, d, R(c, a, b)))
        + (_br(e, R(d, a, b), c) - _br(e, c, R(d, a, b)))
    )
    op4 = (
        R(L(e, a, b), c, d)
        - L(R(e, c, d), a, b)
        - _br(L(c, a, b), d, e)
        + _br(L(d, a, b), c, e)
    )
    return {
        "op1": Identity(op1, name="op1"),
        "op2": Identity(op2, name="op2"),
        "op3": Identity(op3, name="op3"),
        "op4": Identity(op4, name="op4"),
    }


FIXTURES: dict[str, Identity] = _load_identities()
FIXTURES.update(_operator_identities())


def fixture(name: str) -> Identity:
    key = _norm(name)
    if key not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return FIXTURES[key]


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def _rule(text: str, op: OpSymbol, variant: int) -> RewriteRule:
    """The rule that solves the relation ``text = 0`` over the variants of
    ``op`` for the given variant."""
    return rule_from_identity(Identity(parse(text, variant_family(op))), op.with_variant(variant))


# The two elimination relations as rewrite rules: the second variant flips
# its first two arguments, the third is a difference of reversals.
def elimination_rules() -> list[RewriteRule]:
    return [
        _rule("br_2(x,y,z) + br_1(y,x,z)", TERNARY, 2),
        _rule("br_3(x,y,z) - br_1(z,y,x) + br_1(z,x,y)", TERNARY, 3),
    ]


def binary_elimination_rule() -> RewriteRule:
    """For the binary transform: the second variant is the negated flip."""
    return _rule("mul_2(x,y) + mul_1(y,x)", BINARY, 2)


# Straightened expansions of the two nonvanishing permuted-associator
# images, transcribed term for term (16 canonical words each).
_EXPANSION_B_TEXT = """
- (((ac)b)e)d + (((ad)b)e)c - (((ae)b)c)d + (((ae)b)d)c
+ ((a(bc))e)d - ((a(bd))e)c + ((a(be))c)d - ((a(be))d)c
+ (a((ce)d))b - (a((de)c))b + ((ac)b)(de) - ((ad)b)(ce)
- (a(bc))(de) + (a(bd))(ce) - a(((ce)d)b) + a(((de)c)b)
"""

_EXPANSION_3_TEXT = """
- (((ca)b)e)d + (((cb)a)e)d + (((ce)d)a)b - (((ce)d)b)a
- ((c(de))a)b + ((c(de))b)a - (c((ae)b))d + (c((be)a))d
+ ((ca)b)(de) - ((cb)a)(de) - (ce)((ad)b) + (ce)((bd)a)
+ c(((ad)b)e) + c(((ae)b)d) - c(((bd)a)e) - c(((be)a)d)
"""


def expansion_golden(which: str) -> RCPolynomial:
    """The transcribed straightened expansion for 'lts-b' or 'lts3'."""
    text = {"lts-b": _EXPANSION_B_TEXT, "lts3": _EXPANSION_3_TEXT}[_norm(which)]
    return rc_expand(parse(text, product=BINARY))


# The stated lifted rj/ro instances, tagged as iter_lifted tags them, with the
# signs of the combination that straightens to each expansion golden.
_STATED_INSTANCES = {
    "lts-b": {
        "rj(ce,b,d,a)": 1, "rj(de,b,c,a)": -1, "rj(b,c,e,a)*d": 1, "rj(b,d,e,a)*c": -1,
        "ro(a,b,ce,d)": -1, "ro(a,b,de,c)": 1, "ro(a,b,c,e)*d": -1, "ro(a,b,d,e)*c": 1,
    },
    "lts3": {
        "c*rj(a,d,e,b)": 1, "c*rj(b,d,e,a)": -1, "ro(ce,a,b,d)": 1, "ro(ce,b,a,d)": -1,
        "ro(c,a,de,b)": -1, "ro(c,b,de,a)": 1, "ro(c,a,b,e)*d": 1, "ro(c,b,a,e)*d": -1,
    },
}

def stated_instances(which: str) -> dict[str, int]:
    """Tag -> sign of the stated instances for 'lts-b' or 'lts3'."""
    if _norm(which) not in _STATED_INSTANCES:
        raise KeyError(f"no reducing combination for {which!r}")
    return dict(_STATED_INSTANCES[_norm(which)])


@cache
def _lifting_rules() -> tuple[RewriteRule, ...]:
    """RJ and RO as operations whose application is the identity's lhs."""
    idents = [fixture(name) for name in ("rj", "ro")]
    return tuple(RewriteRule(OpSymbol(i.name, len(i.variables)), i.variables, i.lhs) for i in idents)


def lifted_instance(tag: str) -> Polynomial:
    """The lifted instance an iter_lifted tag names: ``rj(ce,b,d,a)`` puts the
    product ce for the first variable of rj; ``ro(a,b,c,e)*d`` and
    ``c*rj(a,d,e,b)`` multiply a relabeled instance by a variable."""
    rules = _lifting_rules()
    try:
        tree = parse(tag, [r.op for r in rules], product=BINARY)
    except AlgebraError as err:
        raise KeyError(f"not a lifted-instance tag: {tag!r}") from err
    return apply_rules(tree, rules)


def reducing_combination(which: str) -> Polynomial:
    """The explicit lifted RJ/RO combination that straightens to the
    corresponding expansion golden."""
    return Polynomial.linear_image(stated_instances(which), lifted_instance)


_SYSTEM_FILES = {
    "sys2d-1": "systems/sys2d-1.json",
    "sys2d-2": "systems/sys2d-2.json",
    "sys2d-3": "systems/sys2d-3.json",
    "sys2d-4": "systems/sys2d-4.json",
    "sys2d-5-zeta0": "systems/sys2d-5-zeta0.json",
    "sys2d-5-zeta1": "systems/sys2d-5-zeta1.json",
    "sys2d-5-zeta2": "systems/sys2d-5-zeta2.json",
}


def system_table(name: str) -> TernaryTable:
    key = _norm(name)
    if key not in _SYSTEM_FILES:
        raise KeyError(f"unknown system {name!r}")
    return TernaryTable.from_json(data_text(_SYSTEM_FILES[key]))


def system_names() -> list[str]:
    return sorted(_SYSTEM_FILES)


def parametric_system(zeta) -> TernaryTable:
    """The one-parameter family <x,y,y> = zeta x, <y,y,y> = (1 - zeta) x,
    for an ``int`` or ``Fraction`` zeta."""
    return TernaryTable(2, ["x", "y"], {(0, 1, 1): [zeta, 0], (1, 1, 1): [1 - zeta, 0]})


def envelope_golden(name: str) -> str:
    """Transcribed envelope multiplication table for a named system."""
    return data_text(f"goldens/envelope-{_norm(name)}.txt")
