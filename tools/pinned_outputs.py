"""Print one line per pinned output: the command, its exit code and the
sha256 of its stdout and of its stderr.

The pinned outputs are the CLI runs, digests of the instance stream, of
the straightening table, of the permuted-associator expansion, of the
degree-5 ternary kernel and of identity evaluations on structure-constant
tables, and the demos,
whose bytes must not change when the library is refactored.  Run the
script once against each source tree and diff the two listings:

    python tools/pinned_outputs.py --pythonpath src > after.txt
    python tools/pinned_outputs.py --pythonpath ../old/src --demos ../old/demos > before.txt
    diff before.txt after.txt

Each command runs in a fresh interpreter with ``PYTHONPATH`` set to the
given source directory, and with this script's repository root as its
working directory; a relative ``--pythonpath`` or ``--demos`` is read from
the caller's directory.  A ``--demos`` directory without demo scripts is
an error.  The structure-constant files for ``envelope`` and
``verify`` are written with ``to_json`` by the library under test, and the
identity files for ``span`` and ``equiv`` are copied from its packaged
data, into a temporary directory whose path is left out of the printed
command.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = [
    ["replay", "all"],
    ["replay", "all", "--json"],
    ["jordan", "--check", "lts-a,lts-b,lts1,lts2,lts3", "--emit-certificate"],
    ["classify2d", "--verify-known"],
    ["classify2d", "--search-fp", "3", "--mask", "a122,a222"],
    ["free-expand", "--expr", "(a*(b*c))*d"],
    ["free-expand", "--expr", "(ab)(c(de))"],
    ["free-expand", "--expr", "(x1*y2)*z"],
    ["free-expand", "--expr", "((ab)a)(ba)"],
    ["fixtures"],
]
# two fixture systems; the 3-dimensional system abc - bac - cab + cba of the
# upper-triangular 2x2 matrices, whose envelope has 12 dimensions; and the
# parametric family at zeta = 1/3, whose constants 1/3 and 2/3 pin the
# printing of fractional coefficients
SYSTEMS = ("sys2d-1", "sys2d-2", "upper-2x2-assoc", "sys2d-5-zeta-one-third")
PER_SYSTEM = [
    ["envelope", "--emit", "table", "--check-leibniz"],
    ["envelope", "--emit", "json"],
    ["verify"],
]
# the identity files for kp, free-check, span and equiv: the three packaged
# varieties, whose transforms pin the re-subscripting of every operation
# occurrence; the packaged triple-systems file,
# picks of its lines (one pick also without names, so that the certificate
# prints the positional tags g0, g1), the linearized right Jordan identity,
# a left-normed product that its one-step liftings do not reach, and a sum
# of two of its liftings, whose certificate pins the tags of both kinds; and
# the packaged Lie variety, whose degree-2 identity is checked at degree 3
# through its liftings; then input that is refused before any answer,
# although the first instances alone would answer it: a third identity named
# lts-a with the body of lts-b, a generator with a repeated variable behind
# lts-a, and an identity named g1 beside an unnamed second one; and rj over
# the variables a, b, ab, c, d, whose liftings tag the product of a and b a*b
ON_FILES = [
    ["kp", "--in", "associativity.txt"],
    ["kp", "--in", "lie.txt"],
    ["kp", "--in", "lie-triple.txt"],
    ["free-check", "--identities", "triple-systems.txt"],
    ["span", "--target", "lts1.txt", "--gens", "triple-systems.txt", "--degree", "5"],
    ["span", "--target", "lts1.txt", "--gens", "lts-ab.txt", "--degree", "5"],
    ["span", "--target", "lts1.txt", "--gens", "unnamed-ab.txt", "--degree", "5"],
    ["span", "--target", "left-normed.txt", "--gens", "rj.txt", "--degree", "5"],
    ["span", "--target", "rj-lifted.txt", "--gens", "rj.txt", "--degree", "5"],
    ["equiv", "--a", "lts-ab.txt", "--b", "triple-systems.txt", "--degree", "5"],
    ["equiv", "--a", "lie.txt", "--b", "lie.txt", "--degree", "3"],
    ["equiv", "--a", "late.txt", "--b", "lts-ab.txt", "--degree", "5"],
    ["span", "--target", "lts-a.txt", "--gens", "gens-nm.txt", "--degree", "5"],
    ["span", "--target", "lts-a.txt", "--gens", "clash.txt", "--degree", "5"],
    ["equiv", "--a", "rj.txt", "--b", "rj.txt", "--degree", "5", "--vars", "a,b,ab,c,d"],
]
# a sha256 over every instance the span layer builds, rendered as tree
# polynomials: tag, terms in insertion order, and each coefficient's type,
# for the rj/ro lifts of compiled_instances, each term's tree formed from
# its shape key and letters and summed in order, rj's lifts over the
# variables a, b, ab, c, d, and the one_per_family streams of lts-a/lts-b
# and of rj/ro, then the lts-a/lts-b relabelings and the thm3.2
# inner-identity set at degree 5 from iter_relabelings, then the Jordan
# checker's generators and pivot rows
INSTANCE_DIGEST = (
    "import hashlib\n"
    "from algforge.consequence import compiled_instances, iter_relabelings\n"
    "from algforge.core import Polynomial, accumulate, form_tree, variables\n"
    "from algforge.fixtures import BINARY, fixture\n"
    "from algforge.rightcomm import build_jordan_checker\n"
    "vs = variables('abcde')\n"
    "digest = hashlib.sha256()\n"
    "def feed(pairs):\n"
    "    for tag, p in pairs:\n"
    "        terms = [(repr(m), repr(c), type(c).__name__) for m, c in p.terms.items()]\n"
    "        digest.update(repr((tag, terms)).encode())\n"
    "def compiled(names, letters=vs, **options):\n"
    "    stream = compiled_instances([fixture(n) for n in names], letters, **options)\n"
    "    feed((tag, Polynomial._from_terms(accumulate({}, ((form_tree(k, l), c) for k, l, c in g))))\n"
    "         for tag, g in stream)\n"
    "for name in ('rj', 'ro'):\n"
    "    compiled([name])\n"
    "compiled(['rj'], variables(['a', 'b', 'ab', 'c', 'd']))\n"
    "compiled(['lts-a', 'lts-b'], one_per_family=True)\n"
    "compiled(['rj', 'ro'], one_per_family=True)\n"
    "for name in ('lts-a', 'lts-b'):\n"
    "    feed(iter_relabelings(fixture(name), vs))\n"
    "inner = ('inner2-skew', 'inner2-cyclic', 'inner3-skew', 'inner3-cyclic', 'lts3')\n"
    "for name in inner:\n"
    "    feed(iter_relabelings(fixture(name), vs))\n"
    "checker = build_jordan_checker(fixture('rj'), fixture('ro'), vs, BINARY)\n"
    "feed(checker.generators.items())\n"
    "digest.update(repr(list(checker.table.pivots.items())).encode())\n"
    "print(digest.hexdigest())\n"
)
# a sha256 over the right-commutative straightening of mul in degrees 1-5:
# the association types in order, each rendered as its shape key's tree over
# the letters p0, p1, ..., every symmetry order, the RCBasis words with
# their repr, and the word of every planar monomial over the first d letters
STRAIGHTENING_DIGEST = (
    "import hashlib, itertools\n"
    "from algforge.consequence import enumerate_shapes\n"
    "from algforge.core import form_tree, variables\n"
    "from algforge.fixtures import BINARY\n"
    "from algforge.rightcomm import RCBasis, canonical_shapes, rc_straighten, symmetry_order\n"
    "digest = hashlib.sha256()\n"
    "for d in range(1, 6):\n"
    "    vs = variables('abcde'[:d])\n"
    "    placeholders = [f'p{i}' for i in range(d)]\n"
    "    types = [form_tree(k, placeholders) for k in canonical_shapes(BINARY, d)]\n"
    "    orders = [symmetry_order(BINARY, d, t) for t in range(1, len(types) + 1)]\n"
    "    words = [(tuple(w), repr(w)) for w in RCBasis(BINARY, d, vs).monomials]\n"
    "    digest.update(repr((d, types, orders, words)).encode())\n"
    "    for shape in enumerate_shapes([BINARY], d):\n"
    "        for perm in itertools.permutations(vs):\n"
    "            m = form_tree(shape, perm)\n"
    "            digest.update(repr((m, tuple(rc_straighten(m)))).encode())\n"
    "print(digest.hexdigest())\n"
)
# a sha256 over the permuted-associator expansion into straightened words:
# each of the 360 ternary degree-5 basis monomials over a-e alone, then the
# lts* fixtures, each expansion's (word, coefficient, type) items in
# insertion order, unsorted
ASSOCIATOR_DIGEST = (
    "import hashlib\n"
    "from algforge.consequence import MonomialBasis\n"
    "from algforge.core import Polynomial, variables\n"
    "from algforge.fixtures import BINARY, TERNARY, fixture\n"
    "from algforge.rightcomm import permuted_associator_expand\n"
    "basis = MonomialBasis([TERNARY], 5, variables('abcde'))\n"
    "targets = [Polynomial({m: 1}) for m in basis.monomials]\n"
    "targets += [fixture(n).lhs for n in ('lts1', 'lts2', 'lts3', 'lts-a', 'lts-b')]\n"
    "digest = hashlib.sha256()\n"
    "for p in targets:\n"
    "    image = permuted_associator_expand(p, BINARY)\n"
    "    items = [(repr(w), repr(c), type(c).__name__) for w, c in image.terms.items()]\n"
    "    digest.update(repr(items).encode())\n"
    "print(len(targets), digest.hexdigest())\n"
)
# a sha256 over the kernel of the free ternary expansion at degree 5: each
# of its 240 polynomials in order, terms in insertion order with each
# coefficient's type
KERNEL_DIGEST = (
    "import hashlib\n"
    "from algforge.consequence import MonomialBasis, kernel_of_expansion\n"
    "from algforge.core import variables\n"
    "from algforge.fixtures import TERNARY\n"
    "from algforge.leibniz import expand_ternary\n"
    "basis = MonomialBasis([TERNARY], 5, variables('abcde'))\n"
    "kernel = kernel_of_expansion(basis, expand_ternary)\n"
    "digest = hashlib.sha256()\n"
    "for p in kernel:\n"
    "    terms = [(repr(m), repr(c), type(c).__name__) for m, c in p.terms.items()]\n"
    "    digest.update(repr(terms).encode())\n"
    "print(len(kernel), digest.hexdigest())\n"
)
# a sha256 over the identity evaluations of seeded random tables: binary and
# ternary, dimensions 1-4, one table with int constants and one with
# Fraction constants each, evaluated on every fixture of the table's arity in
# one call; per (identity, tuple, value) triple, in yield order, the
# identity's name, the tuple and the value's items in index order, each
# scalar with its type, which is canonical: an integral value is its int
EVALUATION_DIGEST = (
    "import hashlib, itertools, random\n"
    "from fractions import Fraction\n"
    "from algforge.fixtures import FIXTURES\n"
    "from algforge.systems import BinaryAlgebra, TernaryTable, evaluations\n"
    "rng = random.Random(1106)\n"
    "digest = hashlib.sha256()\n"
    "count = 0\n"
    "kinds = itertools.product((BinaryAlgebra, TernaryTable), range(1, 5), (False, True))\n"
    "for cls, dim, fractions in kinds:\n"
    "    scalars = [-2, -1, 1, 2] + [Fraction(1, 2), Fraction(-2, 3)] * fractions\n"
    "    constants = {\n"
    "        idx: {l: rng.choice(scalars) for l in range(dim) if rng.random() < 0.6}\n"
    "        for idx in itertools.product(range(dim), repeat=cls.arity) if rng.random() < 0.6\n"
    "    }\n"
    "    table = cls(dim, [f'e{i}' for i in range(dim)], constants)\n"
    "    identities = [ident for ident in FIXTURES.values()\n"
    "                  if all(op.arity == cls.arity for op in ident.signature)]\n"
    "    for ident, tup, value in evaluations(table, identities):\n"
    "        items = [(l, repr(x), type(x).__name__) for l, x in sorted(value.items())]\n"
    "        digest.update(repr((ident.name, tup, items)).encode())\n"
    "        count += 1\n"
    "print(count, digest.hexdigest())\n"
)
READ_DATA = "import sys\nfrom algforge.fixtures import data_text\nprint(data_text(sys.argv[1]), end='')\n"
WRITE_SYSTEM = (
    "import json, sys\n"
    "from fractions import Fraction\n"
    "from algforge.fixtures import parametric_system, system_table\n"
    "from algforge.systems import BinaryAlgebra, from_associative\n"
    "if sys.argv[1] == 'upper-2x2-assoc':\n"
    "    prod = {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 2): [0, 1, 0], (2, 2): [0, 0, 1]}\n"
    "    prod = {k: [Fraction(x) for x in v] for k, v in prod.items()}\n"
    "    table = from_associative(BinaryAlgebra(3, ['p', 'q', 'r'], prod))\n"
    "elif sys.argv[1] == 'sys2d-5-zeta-one-third':\n"
    "    table = parametric_system(Fraction(1, 3))\n"
    "else:\n"
    "    table = system_table(sys.argv[1])\n"
    "json.dump(table.to_json(), open(sys.argv[2], 'w'))\n"
)


def run(argv: list[str], env: dict) -> tuple[int, str]:
    """The exit code, and the sha256 of stdout and of stderr as listed."""
    proc = subprocess.run(argv, env=env, capture_output=True, cwd=ROOT)
    out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
    return proc.returncode, f"sha256={out}\tstderr_sha256={err}"


def pick(text: str, names: set[str]) -> str:
    """The declarations of an identity file and its identities named ``names``."""
    lines = text.splitlines()
    kept = [l for l in lines if l.startswith("op ")]
    return "\n".join(kept + [l for l in lines if l.split(":")[0] in names]) + "\n"


def identity_files(env: dict) -> dict[str, str]:
    def data(rel: str) -> str:
        argv = [sys.executable, "-c", READ_DATA, rel]
        return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout

    triple = data("identities/triple-systems.txt")
    ab = pick(triple, {"lts-a", "lts-b"})
    lts_a = pick(triple, {"lts-a"})

    def body(name: str) -> str:
        return pick(triple, {name}).splitlines()[-1].split(": ", 1)[1]

    rj = pick(data("identities/jordan.txt"), {"rj"})
    rj_expr = rj.splitlines()[-1].split(":", 1)[1].strip()
    # rj(a,b,c,d)*e plus rj with the product de in place of d
    lifted = f"mul({rj_expr}, e) + " + re.sub(r"\bd\b", "mul(d,e)", rj_expr)
    return {
        "triple-systems.txt": triple,
        "lts1.txt": pick(triple, {"lts1"}),
        "lts-ab.txt": ab,
        "unnamed-ab.txt": re.sub(r"(?m)^[\w-]+: ", "", ab),
        "lts-a.txt": lts_a,
        "late.txt": f"{ab}lts-a: {body('lts-b')}\n",
        "gens-nm.txt": f"{lts_a}nm: br(a,b,br(c,d,e)) - br(a,a,br(c,d,e))\n",
        "clash.txt": f"op br/3\ng1: {body('lts-a')}\n{body('lts-b')}\n",
        "rj.txt": rj,
        "left-normed.txt": "op mul/2\nmul(mul(mul(mul(a,b),c),d),e)\n",
        "rj-lifted.txt": f"op mul/2\n{lifted}\n",
        "lie.txt": data("varieties/lie.txt"),
        "associativity.txt": data("varieties/associativity.txt"),
        "lie-triple.txt": data("varieties/lie-triple.txt"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pythonpath", default=str(ROOT / "src"),
                        help="source directory holding the algforge package")
    parser.add_argument("--demos", default=str(ROOT / "demos"),
                        help="directory of demo scripts to run")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.pythonpath).resolve()))
    demos = sorted(Path(args.demos).resolve().glob("*.py"))
    if not demos:
        raise SystemExit(f"no demo scripts in {args.demos}")
    forge = [sys.executable, "-m", "algforge.cli"]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [(" ".join(["forge"] + c), forge + c) for c in CLI]
        for name in SYSTEMS:
            path = str(Path(tmp) / f"{name}.json")
            code, _ = run([sys.executable, "-c", WRITE_SYSTEM, name, path], env)
            if code:
                raise SystemExit(f"could not write {name} with to_json")
            for c in PER_SYSTEM:
                label = " ".join(["forge"] + c + ["--system", f"{name}.json"])
                jobs.append((label, forge + c + ["--system", path]))
        for name, text in identity_files(env).items():
            (Path(tmp) / name).write_text(text)
        for c in ON_FILES:
            argv = [str(Path(tmp) / a) if a.endswith(".txt") else a for a in c]
            jobs.append((" ".join(["forge"] + c), forge + argv))
        jobs.append(("python -c <instance stream digest>", [sys.executable, "-c", INSTANCE_DIGEST]))
        jobs.append(("python -c <straightening table digest>",
                     [sys.executable, "-c", STRAIGHTENING_DIGEST]))
        jobs.append(("python -c <permuted associator digest>",
                     [sys.executable, "-c", ASSOCIATOR_DIGEST]))
        jobs.append(("python -c <ternary kernel digest>", [sys.executable, "-c", KERNEL_DIGEST]))
        jobs.append(("python -c <identity evaluation digest>",
                     [sys.executable, "-c", EVALUATION_DIGEST]))
        for demo in demos:
            jobs.append((f"python demos/{demo.name}", [sys.executable, str(demo)]))
        for label, argv in jobs:
            code, digests = run(argv, env)
            lines.append(f"{label}\texit={code}\t{digests}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
