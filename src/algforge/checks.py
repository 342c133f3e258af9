"""Replay scenarios: each section reruns one pipeline and reports claims.

Every claim is a (name, ok, detail) triple; a section passes when all its
claims do.  The sections are the single source of truth shared by the
acceptance test suite and the ``forge replay`` command, so the CLI report
and the test outcomes can never drift apart.  All underlying operations are
pure; report text is deterministic byte for byte.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .core import (
    Identity,
    Monomial,
    OpSymbol,
    Polynomial,
    Variable,
    apply_op,
    apply_rules,
    polarize,
    rename_ops,
    substitute,
    variables,
)
from .consequence import (
    MonomialBasis,
    SpanChecker,
    compiled_instances,
    kernel_of_expansion,
    sets_equivalent,
)
from .fixtures import (
    BINARY,
    TERNARY,
    binary_elimination_rule,
    elimination_rules,
    envelope_golden,
    expansion_golden,
    fixture,
    stated_instances,
    system_names,
    system_table,
)
from .kp import KPOutput, VarietyPresentation, kp_apply
from .leibniz import TensorPolynomial, expand_ternary, free_product, holds_in_free
from .parsing import format_polynomial
from .rightcomm import RCBasis, RCPolynomial, permuted_associator_expand
from .systems import (
    SymPoly,
    build_envelope,
    check_leibniz,
    check_lts,
    iterated_bracket_table,
    lie_triple_check,
    lts_equations,
    search_fp,
)


class Claim:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail


class SectionReport:
    def __init__(self, section: str, claims: Iterable[Claim]):
        self.section = section
        self.claims = list(claims)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def text(self) -> str:
        lines = [f"== {self.section} =="]
        for c in self.claims:
            status = "PASS" if c.ok else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{status}  {c.name}{suffix}")
        lines.append(f"-- {self.section}: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "section": self.section,
            "ok": self.ok,
            "claims": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.claims
            ],
        }


def _vars(n: int) -> tuple[Variable, ...]:
    return variables("abcdef"[:n])


def _leaf_poly(name: str) -> Polynomial:
    return Polynomial({Monomial.leaf(Variable(name)): 1})


def _dialgebra_rename(p: Polynomial) -> Polynomial:
    return rename_ops(
        p,
        {
            BINARY.with_variant(1): OpSymbol("lprod", 2),
            BINARY.with_variant(2): OpSymbol("rprod", 2),
        },
    )


def section_ex24() -> SectionReport:
    """Transform associativity; compare with the five two-product axioms."""
    out = kp_apply(VarietyPresentation([BINARY], [fixture("assoc")]))
    claims = [
        Claim("part 1 yields 3 identities", len(out.part1) == 3),
        Claim("part 2 yields 2 identities", len(out.part2) == 2),
    ]
    produced = sorted(
        format_polynomial(_dialgebra_rename(i.lhs)) for i in out.all_identities()
    )
    expected = sorted(
        format_polynomial(fixture(n).lhs)
        for n in ("bar-left", "bar-right", "assoc-left", "assoc-right", "assoc-inner")
    )
    claims.append(Claim("renamed output matches the five axioms term for term", produced == expected))
    return SectionReport("ex2.4", claims)


def section_ex25() -> SectionReport:
    """Transform the Lie presentation; reduce to one product and compare."""
    out = kp_apply(
        VarietyPresentation([BINARY], [fixture("anticomm"), fixture("jacobi")])
    )
    claims = [Claim("output is 5 + 2 identities", len(out.part1) == 5 and len(out.part2) == 2)]
    expected = [
        fixture(n).lhs
        for n in (
            "anticomm-var-a",
            "anticomm-var-b",
            "jacobi-var-a",
            "jacobi-var-b",
            "jacobi-var-c",
            "bar-inner",
            "bar-outer",
        )
    ]
    produced = [i.lhs for i in out.all_identities()]
    claims.append(Claim("all seven identities match the transcription exactly", produced == expected))

    rule = binary_elimination_rule()
    m1 = BINARY.with_variant(1)
    vs = _vars(3)
    leib = fixture("leibniz")
    claims.append(
        Claim(
            "both degree-2 outputs reduce to zero under the elimination rule",
            all(apply_rules(i.lhs, [rule]).is_zero for i in out.part1_groups[0]),
        )
    )
    for idx, ident in enumerate(out.part1_groups[1]):
        red = rename_ops(apply_rules(ident.lhs, [rule]), {m1: BINARY})
        res = sets_equivalent([Identity(red, name=f"reduced{idx}")], [leib], 3, vs)
        claims.append(
            Claim(f"degree-3 output {idx+1} is equivalent to the one-product law", res.equivalent)
        )
    ra = fixture("right-anticomm")
    for idx, ident in enumerate(out.part2):
        red = rename_ops(apply_rules(ident.lhs, [rule]), {m1: BINARY})
        res = sets_equivalent([Identity(red, name=f"reduced{idx}")], [ra], 3, vs)
        claims.append(Claim(f"interchange output {idx+1} reduces to right anticommutativity", res.equivalent))

    # square the middle variable of the one-product law, then re-linearize
    spec = substitute(leib.lhs, {Variable("b"): Variable("c")})
    pol = polarize(Identity(spec, name="leibniz-squared"))
    basis = MonomialBasis([BINARY], 3, vs)
    cert = SpanChecker(list(compiled_instances([pol], vs)), basis).check(ra.lhs)
    claims.append(
        Claim(
            "right anticommutativity lies in the span of the re-linearized square",
            cert.ok and cert.verify(),
        )
    )
    return SectionReport("ex2.5", claims)


_PART1_NAMES = (
    "skew1",
    "skew2",
    "skew3",
    "cyclic1",
    "cyclic2",
    "cyclic3",
    "derivation1",
    "derivation2",
    "derivation3",
    "derivation4",
    "derivation5",
)
_PART2_NAMES = tuple(
    f"interchange-br-{j}.{i}.{l}"
    for j in (1, 2, 3)
    for i in (1, 2, 3)
    if i != j
    for l in (2, 3)
)


def reduced_transform_identities(out: KPOutput) -> list[Identity]:
    """Eliminate variants 2 and 3 from the transformed ternary variety, drop zeros."""
    rules = elimination_rules()
    m1 = TERNARY.with_variant(1)
    reduced = []
    for ident in out.all_identities():
        red = rename_ops(apply_rules(ident.lhs, rules), {m1: TERNARY})
        if not red.is_zero:
            reduced.append(Identity(red, name=f"{ident.name}-reduced"))
    return reduced


def section_thm32() -> SectionReport:
    out = kp_apply(
        VarietyPresentation([TERNARY], [fixture("l1"), fixture("l2"), fixture("l3")])
    )
    claims = [
        Claim("part 1 yields the 11 transcribed identities",
              [i.lhs for i in out.part1] == [fixture(n).lhs for n in _PART1_NAMES]),
        Claim("part 2 yields the 12 transcribed interchange identities",
              [i.lhs for i in out.part2] == [fixture(n).lhs for n in _PART2_NAMES]),
    ]
    reduced = reduced_transform_identities(out)
    claims.append(Claim("17 nonzero identities survive the elimination", len(reduced) == 17))
    vs = _vars(5)
    target_set = [fixture(n) for n in ("lts1", "lts2", "lts-b", "lts3")]
    res = sets_equivalent(reduced, target_set, 5, vs)
    claims.append(Claim("reduced set is equivalent to the four-identity set at degree 5", res.equivalent))

    basis = MonomialBasis([TERNARY], 5, vs)
    names = ("inner2-skew", "inner2-cyclic", "inner3-skew", "inner3-cyclic", "lts3")
    checker = SpanChecker.on_demand([fixture(n) for n in names], vs, basis)
    cert = checker.check(fixture("derivation5-reduced").lhs)
    claims.append(
        Claim("the 16-term reduced identity is redundant, with certificate",
              cert.ok and cert.verify())
    )
    return SectionReport("thm3.2", claims)


def section_lem33() -> SectionReport:
    vs = _vars(5)
    res = sets_equivalent(
        [fixture("lts-a"), fixture("lts-b")],
        [fixture(n) for n in ("lts1", "lts2", "lts-b", "lts3")],
        5,
        vs,
    )
    claims = [Claim("two-identity and four-identity sets are equivalent at degree 5", res.equivalent)]

    def inst(name, perm):
        f = fixture(name)
        return substitute(f.lhs, dict(zip(f.variables, variables(perm))))

    s1, s2, s4 = (fixture(n).lhs for n in ("lts1", "lts2", "lts3"))
    sa, sb = fixture("lts-a").lhs, fixture("lts-b").lhs
    equations = [
        ("S1 = SA(a,b,c,d,e) + SA(a,c,b,d,e)",
         s1 == inst("lts-a", "abcde") + inst("lts-a", "acbde")),
        ("S2 = SA(a,b,c,d,e) + SA(a,d,b,c,e) + SA(a,c,d,b,e)",
         s2 == inst("lts-a", "abcde") + inst("lts-a", "adbce") + inst("lts-a", "acdbe")),
        ("S4 = -SA(c,a,b,d,e) - SB(c,d,a,b,e)",
         s4 == -inst("lts-a", "cabde") - inst("lts-b", "cdabe")),
        ("SA = S1(a,b,c,d,e) + S4(c,b,a,d,e) + SB(a,d,c,b,e)",
         sa == inst("lts1", "abcde") + inst("lts3", "cbade") + inst("lts-b", "adcbe")),
    ]
    for name, ok in equations:
        claims.append(Claim(f"certificate equation {name}", ok))
    return SectionReport("lem3.3", claims)


def section_sec4() -> SectionReport:
    vs = _vars(5)
    basis = MonomialBasis([TERNARY], 5, vs)
    checker = SpanChecker(list(compiled_instances([fixture("lts-a"), fixture("lts-b")], vs)), basis)
    claims = []
    for n in ("op1", "op2", "op3", "op4"):
        cert = checker.check(fixture(n).lhs)
        claims.append(
            Claim(f"operator identity {n} is a degree-5 consequence, with certificate",
                  cert.ok and cert.verify())
        )
    return SectionReport("sec4", claims)


def section_prop55() -> SectionReport:
    w = TensorPolynomial.word
    claims = []
    lines = [
        ("a.b = ab", free_product(w("a"), w("b")) == w(("a", "b"))),
        ("ab.c = abc", free_product(w(("a", "b")), w("c")) == w(("a", "b", "c"))),
        ("a.bc = abc - acb",
         free_product(w("a"), w(("b", "c"))) == w(("a", "b", "c")) - w(("a", "c", "b"))),
        ("abc.d = abcd",
         free_product(w(("a", "b", "c")), w("d")) == w(("a", "b", "c", "d"))),
        ("ab.cd = abcd - abdc",
         free_product(w(("a", "b")), w(("c", "d")))
         == w(("a", "b", "c", "d")) - w(("a", "b", "d", "c"))),
    ]
    for name, ok in lines:
        claims.append(Claim(name, ok))
    # the quadruple product, cross-checked through degree <= 3 products only
    direct = free_product(w("a"), w(("b", "c", "d")))
    expected = (
        w(("a", "b", "c", "d"))
        - w(("a", "c", "b", "d"))
        - w(("a", "d", "b", "c"))
        + w(("a", "d", "c", "b"))
    )
    claims.append(Claim("a.bcd = abcd - acbd - adbc + adcb (final sign +)", direct == expected))
    indirect = free_product(free_product(w("a"), w(("b", "c"))), w("d")) - free_product(
        free_product(w("a"), w("d")), w(("b", "c"))
    )
    claims.append(Claim("cross-check: a.bcd = (a.bc).d - (a.d).bc", direct == indirect))

    br = lambda x, y, z: apply_op(TERNARY, [x, y, z])
    a, b, c, d, e = (_leaf_poly(n) for n in "abcde")
    expansions = [
        ("<<a,b,c>,d,e> = abcde",
         expand_ternary(br(br(a, b, c), d, e)) == w(("a", "b", "c", "d", "e"))),
        ("<a,b,<c,d,e>> = abcde - abdce - abecd + abedc",
         expand_ternary(br(a, b, br(c, d, e)))
         == w(tuple("abcde")) - w(tuple("abdce")) - w(tuple("abecd")) + w(tuple("abedc"))),
        ("<a,<b,c,d>,e> = abcde - acbde - adbce + adcbe",
         expand_ternary(br(a, br(b, c, d), e))
         == w(tuple("abcde")) - w(tuple("acbde")) - w(tuple("adbce")) + w(tuple("adcbe"))),
    ]
    for name, ok in expansions:
        claims.append(Claim(name, ok))
    claims.append(Claim("first defining identity holds under the iterated bracket",
                        holds_in_free(fixture("lts-a"))))
    claims.append(Claim("second defining identity holds under the iterated bracket",
                        holds_in_free(fixture("lts-b"))))
    claims.append(Claim("the skew ternary identity does not hold (control)",
                        not holds_in_free(fixture("l1"))))
    return SectionReport("prop5.5", claims)


def section_thm63() -> SectionReport:
    claims = [
        Claim("permuted associator annihilates lts1 under right commutativity",
              permuted_associator_expand(fixture("lts1")).is_zero),
        Claim("permuted associator annihilates lts2 under right commutativity",
              permuted_associator_expand(fixture("lts2")).is_zero),
    ]
    eb = permuted_associator_expand(fixture("lts-b"))
    e3 = permuted_associator_expand(fixture("lts3"))
    gb, g3 = expansion_golden("lts-b"), expansion_golden("lts3")
    claims.append(Claim("lts-b expansion matches the 16-term transcription", eb == gb and len(eb.terms) == 16))
    claims.append(Claim("lts3 expansion matches the 16-term transcription", e3 == g3 and len(e3.terms) == 16))
    vs = _vars(5)
    jordan = [fixture("rj"), fixture("ro")]
    lifts = list(compiled_instances(jordan, vs))
    checker = SpanChecker.on_demand(jordan, vs, RCBasis(BINARY, 5, vs), lifts)
    lifted = dict(lifts)
    for name, golden in (("lts-b", gb), ("lts3", g3)):
        combination = RCPolynomial.linear_image(
            stated_instances(name), lambda t: checker.basis.normal(lifted[t]))
        claims.append(Claim(f"stated combination straightens to the {name} expansion",
                            combination == golden))
    for name, target in (("lts-b", gb), ("lts3", g3)):
        cert = checker.check(target)
        claims.append(Claim(f"{name} expansion reduces over lifted rj/ro instances", cert.ok and cert.verify()))
    for name in ("lts-a", "lts-b"):
        cert = checker.check(permuted_associator_expand(fixture(name)))
        claims.append(Claim(f"permuted {name} reduces over lifted rj/ro instances", cert.ok and cert.verify()))
    # restricting the generators to the eight stated instances recovers the
    # combination with unit coefficients
    stated = stated_instances("lts-b")
    chk8 = SpanChecker([(t, lifted[t]) for t in stated], checker.basis)
    cert8 = chk8.check(gb)
    exact = cert8.ok and {t: int(c) for t, c in cert8.coefficients.items()} == stated
    claims.append(Claim("certificate over the eight stated instances has the stated signs", exact))
    return SectionReport("thm6.3", claims)


def section_thm71() -> SectionReport:
    claims = []
    for name in system_names():
        table = system_table(name)
        ok_lts, _ = check_lts(table)
        claims.append(Claim(f"{name}: defining identities hold on all basis tuples", ok_lts))
        env = build_envelope(table)
        claims.append(Claim(f"{name}: envelope dimension is 6", env.dim == 6))
        restricted = iterated_bracket_table(env, table.dim)
        claims.append(
            Claim(f"{name}: iterated bracket restricts to the original table",
                  restricted.c == table.c)
        )
        ok_leib, viol = check_leibniz(env)
        claims.append(
            Claim(f"{name}: envelope satisfies the one-product law on all 216 triples",
                  ok_leib, detail="" if ok_leib else f"{len(viol)} violating triples")
        )
    return SectionReport("thm7.1", claims)


def section_thm73_deg5() -> SectionReport:
    vs = _vars(5)
    basis = MonomialBasis([TERNARY], 5, vs)
    claims = [Claim("ambient ternary degree-5 space has dimension 360", len(basis) == 360)]
    kernel = kernel_of_expansion(basis, expand_ternary)
    gens = list(compiled_instances([fixture("lts-a"), fixture("lts-b")], vs))
    checker = SpanChecker(gens, basis)
    claims.append(Claim("kernel of the word expansion has dimension 240", len(kernel) == 240))
    claims.append(Claim("span of the 240 instances has dimension 240", checker.rank == 240))
    claims.append(Claim("the two dimensions agree", len(kernel) == checker.rank))
    claims.append(Claim("kernel basis lies in the instance span",
                        all(checker.check(k).ok for k in kernel)))
    kchecker = SpanChecker(list(enumerate(kernel)), basis)
    claims.append(Claim("instances lie in the kernel span",
                        all(kchecker.check(p).ok for _, p in gens)))
    b3 = MonomialBasis([TERNARY], 3, _vars(3))
    claims.append(Claim("degree-3 kernel is zero",
                        kernel_of_expansion(b3, expand_ternary) == []))
    return SectionReport("thm7.3-deg5", claims)


def section_sec8() -> SectionReport:
    claims = []
    for name in system_names():
        env = build_envelope(system_table(name))
        claims.append(
            Claim(f"{name}: envelope table is byte-identical to the transcription",
                  env.render_table() == envelope_golden(name))
        )
    lie_expect = {
        "sys2d-1": True, "sys2d-2": True,
        "sys2d-3": False, "sys2d-4": False,
        "sys2d-5-zeta0": False, "sys2d-5-zeta1": False, "sys2d-5-zeta2": False,
    }
    for name, expect in lie_expect.items():
        ok, _ = lie_triple_check(system_table(name))
        claims.append(Claim(f"{name}: classical ternary identities {'hold' if expect else 'fail'}",
                            ok == expect))
    qs = lts_equations(2)
    claims.append(Claim("quadratic system equations are homogeneous of degree 2",
                        all(eq.is_homogeneous(2) for eq in qs.equations)))
    claims.append(Claim("zero assignment satisfies the quadratic system",
                        qs.is_satisfied({})))
    sys4 = {"a122": -1, "a222": 1}
    claims.append(Claim("the fourth system satisfies the quadratic system",
                        qs.is_satisfied(sys4)))
    zeta = SymPoly.symbol("zeta")
    family = {"a122": zeta, "a222": 1 - zeta}
    claims.append(Claim("the one-parameter family satisfies the system for every parameter",
                        qs.is_satisfied(family)))
    sols = search_fp(qs, 3, ["a122", "a222"])
    pts = {(s["a122"], s["a222"]) for s in sols}
    family_pts = {(z % 3, (1 - z) % 3) for z in range(3)}
    claims.append(Claim("finite-field search recovers the family points",
                        family_pts <= pts))
    claims.append(Claim("finite-field search contains the third system's point",
                        (1, 1) in pts))
    return SectionReport("sec8", claims)


SECTIONS: dict[str, Callable[[], SectionReport]] = {
    "ex2.4": section_ex24,
    "ex2.5": section_ex25,
    "thm3.2": section_thm32,
    "lem3.3": section_lem33,
    "sec4": section_sec4,
    "prop5.5": section_prop55,
    "thm6.3": section_thm63,
    "thm7.1": section_thm71,
    "thm7.3-deg5": section_thm73_deg5,
    "sec8": section_sec8,
}


def replay_many(sections: Iterable[str]) -> list[SectionReport]:
    names = list(sections)
    for name in names:
        if name not in SECTIONS:
            raise KeyError(
                f"unknown section {name!r}; choose from {', '.join(sorted(SECTIONS))}"
            )
    return [SECTIONS[name]() for name in names]


def report_text(reports: Iterable[SectionReport]) -> str:
    return "\n".join(r.text() for r in reports)


def report_json(reports: Iterable[SectionReport]) -> str:
    payload = [r.to_json() for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
