"""The ``forge`` command line: identity transforms, span checks, replays.

File inputs use the expression grammar with a declarations header::

    op br/3              # a plain ternary operation
    op br/3 variants 3   # the subscripted family br_1, br_2, br_3
    name: br(a,b,c) - br(b,a,c)

Structure-constant files are JSON: ``{"dim": 2, "basis": ["x","y"],
"triple": {"x,y,x": "y", "y,x,x": "-1*y"}}`` with omitted entries zero and
values written as linear combinations of basis names.  Every subcommand
exits 0 exactly when all of its checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import AlgebraError, Polynomial
from .consequence import MonomialBasis, SpanChecker, sets_equivalent
from .checks import SECTIONS, replay_many, report_json, report_text
from .fixtures import (
    BINARY,
    envelope_golden,
    fixture,
    fixture_names,
    system_names,
    system_table,
)
from .kp import VarietyPresentation, kp_apply
from .leibniz import expand_binary_tree, expand_ternary
from .parsing import (
    ParseError,
    Signature,
    format_file,
    format_polynomial,
    parse_file,
    parse_product,
)
from .rightcomm import build_jordan_checker, permuted_associator_expand
from .systems import (
    TernaryTable,
    build_envelope,
    check_leibniz,
    check_lts,
    lie_triple_check,
    lts_equations,
    search_fp,
)
from . import variables


def _read_identities(path: str):
    return parse_file(Path(path).read_text())


def cmd_kp(args) -> int:
    signature, identities = _read_identities(args.infile)
    variety = VarietyPresentation(signature.ops(), identities)
    out = kp_apply(variety)
    sig = Signature()
    for family in out.families.values():
        for op in family:
            sig.declare(op)
    text = format_file(sig, out.all_identities())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_vars(spec: str | None, degree: int):
    if spec:
        return variables(spec)
    return variables("abcdefghijklmnopqrstuvwxyz"[:degree])


def _verify(cert, name: str) -> None:
    """Refuse a certificate that does not re-expand to its target, so that a
    "yes" is printed only with a verified certificate."""
    if cert.ok and not cert.verify():
        raise AlgebraError(f"the certificate for {name} does not re-expand to its target")


def cmd_span(args) -> int:
    _, targets = _read_identities(args.target)
    if len(targets) != 1:
        raise AlgebraError("target file must contain exactly one identity")
    target = targets[0]
    _, gens = _read_identities(args.gens)
    vs = _parse_vars(args.vars, args.degree)
    basis = MonomialBasis(target.signature.union(*(g.signature for g in gens)), args.degree, vs)
    cert = SpanChecker.on_demand(gens, vs, basis).check(target.lhs)
    name = target.name or "target"
    _verify(cert, name)
    if cert.ok:
        print(f"IN SPAN: {name} ({len(cert.coefficients)} certificate terms)")
        for line in cert.lines():
            print(f"  {line}")
        return 0
    print(f"NOT IN SPAN: witness monomial {format_polynomial(Polynomial({cert.witness: 1}))}")
    return 1


def cmd_equiv(args) -> int:
    _, set_a = _read_identities(args.a)
    _, set_b = _read_identities(args.b)
    vs = _parse_vars(args.vars, args.degree)
    res = sets_equivalent(set_a, set_b, args.degree, vs)
    sides = (("A in span(B)", res.forward), ("B in span(A)", res.backward))
    # every certificate is verified before the first line is printed
    for _, results in sides:
        for name, cert in results.items():
            _verify(cert, name)
    for label, results in sides:
        for name, cert in results.items():
            status = "PASS" if cert.ok else "FAIL"
            print(f"{status}  {label}: {name}")
    print("EQUIVALENT" if res.equivalent else "NOT EQUIVALENT")
    return 0 if res.equivalent else 1


def cmd_free_expand(args) -> int:
    mono = parse_product(args.expr, BINARY)
    print(expand_binary_tree(mono))
    return 0


def cmd_free_check(args) -> int:
    _, identities = _read_identities(args.identities)
    expansions = []
    for ident in identities:
        arities = {op.arity for op in ident.signature}
        if arities == {3}:
            expansions.append(expand_ternary)
        elif arities <= {2}:
            expansions.append(expand_binary_tree)
        else:
            raise AlgebraError(f"mixed-arity identity {ident.name!r}")
    # every identity is checked before the first line is printed
    holds = [expand(ident.lhs).is_zero for ident, expand in zip(identities, expansions)]
    for ident, ok in zip(identities, holds):
        print(f"{'PASS' if ok else 'FAIL'}  {ident.name or format_polynomial(ident.lhs)}")
    return 0 if all(holds) else 1


def cmd_jordan(args) -> int:
    names = [n.strip() for n in args.check.split(",") if n.strip()]
    if not names:
        raise AlgebraError("--check names no fixture: nothing to check")
    vs = variables("abcde")
    # every fixture is expanded, checked and its certificate verified before
    # the first line is printed; None stands for an expansion that vanishes
    expansions = [(name, permuted_associator_expand(fixture(name), BINARY)) for name in names]
    checker = None
    certs = []
    for name, expansion in expansions:
        cert = None
        if not expansion.is_zero:
            if checker is None:
                checker = build_jordan_checker(fixture("rj"), fixture("ro"), vs, BINARY)
            cert = checker.check(expansion)
            _verify(cert, name)
        certs.append((name, cert))
    for name, cert in certs:
        if cert is None:
            print(f"PASS  {name}: vanishes under right commutativity alone")
            continue
        print(f"{'PASS' if cert.ok else 'FAIL'}  {name}: reduces over lifted rj/ro instances")
        if cert.ok and args.emit_certificate:
            for line in cert.lines():
                print(f"  {line}")
    return 0 if all(cert is None or cert.ok for _, cert in certs) else 1


def _load_table(path: str) -> TernaryTable:
    return TernaryTable.from_json(Path(path).read_text())


def _check_max_violations(args) -> None:
    if args.max_violations < 0:
        raise AlgebraError(f"--max-violations must be at least 0, got {args.max_violations}")


def cmd_verify(args) -> int:
    _check_max_violations(args)
    table = _load_table(args.system)
    ok, violations = check_lts(table)
    print(f"{'PASS' if ok else 'FAIL'}  defining identities on all {table.dim ** 5} basis tuples")
    for name, tup in violations[: args.max_violations]:
        labels = ",".join(table.basis[i] for i in tup)
        print(f"  violated: {name} at ({labels})")
    lie, _ = lie_triple_check(table)
    print(f"INFO  classical ternary identities {'hold' if lie else 'do not hold'}")
    return 0 if ok else 1


def cmd_envelope(args) -> int:
    _check_max_violations(args)
    table = _load_table(args.system)
    env = build_envelope(table)
    # checked before anything is written, so a refused check prints nothing
    law = check_leibniz(env) if args.check_leibniz else None
    if args.emit == "table":
        sys.stdout.write(env.render_table())
    else:
        json.dump(env.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if law is None:
        return 0
    ok, violations = law
    print(f"{'PASS' if ok else 'FAIL'}  one-product law on all {env.dim ** 3} basis triples")
    for i, j, k in violations[: args.max_violations]:
        print(f"  violated at ({env.basis[i]},{env.basis[j]},{env.basis[k]})")
    return 0 if ok else 1


def cmd_classify2d(args) -> int:
    if args.verify_known:
        failures = 0
        for name in system_names():
            table = system_table(name)
            ok, _ = check_lts(table)
            env = build_envelope(table)
            golden_ok = env.render_table() == envelope_golden(name)
            print(f"{'PASS' if ok else 'FAIL'}  {name}: defining identities")
            print(f"{'PASS' if golden_ok else 'FAIL'}  {name}: envelope table matches transcription")
            failures += (0 if ok else 1) + (0 if golden_ok else 1)
        return 0 if failures == 0 else 1
    if args.search_fp is not None:
        qs = lts_equations(2)
        free = [n.strip() for n in (args.mask or "").split(",") if n.strip()]
        fixed = {}
        for item in (args.fixed or "").split(","):
            if item.strip():
                name, _, val = item.partition("=")
                try:
                    fixed[name.strip()] = int(val)
                except ValueError:
                    raise AlgebraError(
                        f"--fixed expects name=integer pairs, got {item.strip()!r}"
                    ) from None
        solutions = search_fp(qs, args.search_fp, free, fixed)
        print(f"{len(solutions)} solutions over F_{args.search_fp} "
              f"with free coordinates {','.join(free)}")
        for sol in solutions:
            print("  " + ", ".join(f"{k}={sol[k]}" for k in free))
        return 0
    print("choose --verify-known or --search-fp P --mask ...", file=sys.stderr)
    return 2


def cmd_replay(args) -> int:
    reports = replay_many(list(SECTIONS) if args.section == "all" else [args.section])
    if args.json:
        sys.stdout.write(report_json(reports))
    else:
        sys.stdout.write(report_text(reports))
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kp", help="apply the variant-operation transform to a variety file")
    p.add_argument("--in", dest="infile", required=True, help="variety file (declarations + identities)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_kp)

    p = sub.add_parser("span", help="exact span membership with certificate")
    p.add_argument("--target", required=True, help="file with one identity")
    p.add_argument("--gens", required=True,
                   help="file with generator identities; one a degree below is lifted")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--vars", help="comma-separated variables (default a,b,c,...)")
    p.set_defaults(fn=cmd_span)

    p = sub.add_parser("equiv", help="mutual span inclusion of two identity sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--vars")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("free-expand", help="expand a product into tensor-word normal form")
    p.add_argument("--expr", required=True, help='e.g. "(a*(b*c))*d" or "(ab)(cd)"')
    p.set_defaults(fn=cmd_free_expand)

    p = sub.add_parser("free-check", help="check identities in the free algebra (PASS/FAIL per line)")
    p.add_argument("--identities", required=True)
    p.set_defaults(fn=cmd_free_check)

    p = sub.add_parser("jordan", help="reduce fixture expansions over lifted rj/ro instances")
    p.add_argument("--check", required=True, help="comma-separated fixture names, e.g. lts-a,lts-b,lts1")
    p.add_argument("--emit-certificate", action="store_true")
    p.set_defaults(fn=cmd_jordan)

    p = sub.add_parser("verify", help="check the defining identities on a structure-constant file")
    p.add_argument("--system", required=True, help="JSON structure constants")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("envelope", help="build and print the enveloping algebra")
    p.add_argument("--system", required=True)
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.add_argument("--check-leibniz", action="store_true")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("classify2d", help="verify the known 2-dimensional systems or search F_p")
    p.add_argument("--verify-known", action="store_true")
    p.add_argument("--search-fp", type=int, metavar="P")
    p.add_argument("--mask", help="comma-separated free coordinates, e.g. a122,a222")
    p.add_argument("--fixed", help="comma-separated name=value pairs for pinned coordinates")
    p.set_defaults(fn=cmd_classify2d)

    p = sub.add_parser("replay", help="rerun a scenario and report PASS/FAIL per claim")
    p.add_argument("section", choices=sorted(SECTIONS) + ["all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("fixtures", help="list the named fixture identities")
    p.set_defaults(fn=lambda args: (print("\n".join(fixture_names())), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AlgebraError, ParseError, OSError, UnicodeError, KeyError) as exc:
        # a KeyError prints as the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
