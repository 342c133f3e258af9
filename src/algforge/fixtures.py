"""The named fixture corpus: identity sets, system tables, and goldens.

Fixture names are stable API.  Every identity fixture is grammar text read
from the files under ``data/``, so every fixture exercises the expression
grammar.  The operator identities ``op1``..``op4`` are written there in the
paper's operator form, over ``R(a,b,x)`` = R_{a,b}(x) and ``L(a,b,x)`` =
L_{a,b}(x), and are expanded into ``br`` at load by the two operators'
defining relations.  The elimination rules are solved from the corpus
relations ``reduce2``, ``reduce3`` and ``anticomm-var-b``.  Lookup is
case-insensitive and treats ``-`` and ``_`` alike.  The transcribed
expansions are grammar text in compact-product mode.  The stated RJ/RO
combinations are data: each tag, such as ``ro(a,b,c,e)*d``, names one of
the lifted instances that ``consequence.compiled_instances`` tags, and is
looked up among them, not parsed.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

# BINARY and TERNARY are core's, and read from here too
from .core import BINARY, TERNARY, Identity, RewriteRule, apply_rules, rule_from_identity
from .parsing import parse, parse_file
from .rightcomm import RCPolynomial, rc_expand
from .systems import TernaryTable

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
    return (Path(__file__).with_name("data") / relpath).read_text()


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


def _operator_identities() -> dict[str, Identity]:
    """op1..op4 with R and L expanded into br by their defining relations."""
    signature, identities = parse_file(data_text("identities/operators.txt"))
    named = {i.name: i for i in identities}
    rules = [rule_from_identity(named.pop(n), signature.lookup(n)) for n in ("R", "L")]
    return {n: Identity(apply_rules(i.lhs, rules), name=n) for n, i in named.items()}


FIXTURES: dict[str, Identity] = _load_identities()
FIXTURES.update(_operator_identities())


def fixture(name: str) -> Identity:
    key = _norm(name)
    if key not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return FIXTURES[key]


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def elimination_rules() -> list[RewriteRule]:
    """The relations reduce2 and reduce3 solved for the second and third
    variant: the second flips its first two arguments, the third is a
    difference of reversals."""
    return [
        rule_from_identity(fixture(f"reduce{k}"), TERNARY.with_variant(k)) for k in (2, 3)
    ]


def binary_elimination_rule() -> RewriteRule:
    """For the binary transform: anticomm-var-b solved for the second
    variant, the negated flip."""
    return rule_from_identity(fixture("anticomm-var-b"), BINARY.with_variant(2))


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
    """The transcribed straightened expansion for 'lts-b' or 'lts3', parsed
    once per name: the combination is immutable, so every call shares it."""
    return _expansion_golden(_norm(which))


@cache
def _expansion_golden(key: str) -> RCPolynomial:
    text = {"lts-b": _EXPANSION_B_TEXT, "lts3": _EXPANSION_3_TEXT}[key]
    return rc_expand(parse(text, product=BINARY))


# The stated lifted rj/ro instances, tagged as compiled_instances tags them, with the
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
        raise KeyError(f"no stated instances for {which!r}")
    return dict(_STATED_INSTANCES[_norm(which)])


_SYSTEMS = (
    "sys2d-1", "sys2d-2", "sys2d-3", "sys2d-4",
    "sys2d-5-zeta0", "sys2d-5-zeta1", "sys2d-5-zeta2",
)


def system_table(name: str) -> TernaryTable:
    key = _norm(name)
    if key not in _SYSTEMS:
        raise KeyError(f"unknown system {name!r}")
    return TernaryTable.from_json(data_text(f"systems/{key}.json"))


def system_names() -> list[str]:
    return sorted(_SYSTEMS)


def parametric_system(zeta) -> TernaryTable:
    """The one-parameter family <x,y,y> = zeta x, <y,y,y> = (1 - zeta) x,
    for an ``int`` or ``Fraction`` zeta."""
    return TernaryTable(2, ["x", "y"], {(0, 1, 1): [zeta, 0], (1, 1, 1): [1 - zeta, 0]})


def envelope_golden(name: str) -> str:
    """Transcribed envelope multiplication table for a named system."""
    return data_text(f"goldens/envelope-{_norm(name)}.txt")
