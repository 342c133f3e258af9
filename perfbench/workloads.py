"""The four workloads: seeded inputs, one timed pass, and the known answers.

A pass runs in a fresh interpreter (see ``worker.py``).  ``generate`` builds
every input from the seed before timing starts; it only relabels and adds
polynomials and fills structure tables, so it builds no monomial basis,
straightens nothing and warms no cache the timed part uses.  The library
receives the generated polynomials and tables, never the seed.  ``run``
times only the calls into the library and records each verdict beside its
known answer; ``post_check`` runs after timing (independent oracles and the
input digest).  Timed code reads the clock of a ``speed.Speed``, which leaves
out the interpreter-speed samples taken while the pass runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from speed import Speed

WORKLOADS = ("replay-all", "span-deg5", "jordan-deg5", "systems-3d")
HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "replay_expected.tsv"

VARS = "abcde"
PERMS = ["".join(p) for p in itertools.permutations(VARS)]
COEFFS = (-3, -2, -1, 1, 2, 3)

# span-deg5: per pass, one session per entry of SPAN_SESSIONS builds a
# checker of that span type and answers 12 queries (see gen_span), then one
# sets_equivalent runs per entry of EQUIV_KINDS.
SPAN_SESSIONS = ("A", "B", "AB", "A", "B", "AB", "A", "B", "AB", "A", "B", "AB")
EQUIV_KINDS = ("same-span", "disjoint", "strict-subspan")
JORDAN_QUERIES = 250
SYSTEM_TABLES = 5
PRIMES = (5, 7, 11, 13)
# the one-parameter family <x,y,y> = z x, <y,y,y> = (1 - z) x lives in these
# two coordinates; a seeded third free coordinate made the search cost vary
# fivefold between seeds, so the mask is fixed
SEARCH_MASK = ("a122", "a222")


class Lib:
    """The algforge modules, looked up by attribute at call time so that
    wrappers installed by the tracer are the ones called."""

    def __init__(self):
        import algforge.checks
        import algforge.cli
        import algforge.consequence
        import algforge.core
        import algforge.fixtures
        import algforge.leibniz
        import algforge.parsing
        import algforge.rightcomm
        import algforge.systems

        self.checks = algforge.checks
        self.cli = algforge.cli
        self.consequence = algforge.consequence
        self.core = algforge.core
        self.fixtures = algforge.fixtures
        self.leibniz = algforge.leibniz
        self.parsing = algforge.parsing
        self.rightcomm = algforge.rightcomm
        self.systems = algforge.systems


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Verdicts:
    """Observed verdicts against known answers; raised ones count as wrong."""

    def __init__(self):
        self.items: list[tuple[str, object, object]] = []
        self.errors: list[str] = []

    def add(self, label: str, observed, expected) -> None:
        self.items.append((label, observed, expected))
        if observed != expected:
            self.errors.append(f"{label}: got {observed!r}, expected {expected!r}")

    def raised(self, label: str, exc: BaseException) -> None:
        self.items.append((label, f"raised {type(exc).__name__}", "value"))
        self.errors.append(f"{label}: raised {type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for _, obs, exp in self.items if obs != exp)

    def digest(self) -> str:
        return _sha([[label, repr(obs)] for label, obs, _ in self.items])


# ------------------------------------------------------------------ replay-all

def load_pins(path: Path = PINS_FILE) -> list[tuple[str, str, str]]:
    """(section, expected status, claim name) for every pinned claim."""
    pins = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            section, status, name = line.split("\t")[:3]
            pins.append((section, status, name))
    return pins


def parse_report(text: str) -> list[tuple[str, str, str]]:
    """(section, status, claim name) for every claim line of a replay report."""
    out, section = [], None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            section = line[3:-3]
        elif line.startswith(("PASS  ", "FAIL  ")):
            name = line[6:]
            if name.endswith("]") and "  [" in name:
                name = name[: name.rindex("  [")]
            out.append((section, line[:4], name))
    return out


def score_replay(observed, exit_code, pins, verdicts: Verdicts) -> None:
    """One verdict per pinned or reported claim, plus the exit code.

    A pinned claim that is missing, a verdict that differs from its pin, and
    an unpinned claim that FAILs are errors; an unpinned PASS is accepted.
    """
    seen = {(sec, name): status for sec, status, name in observed}
    for sec, status, name in pins:
        verdicts.add(f"{sec}: {name}", seen.pop((sec, name), "missing"), status)
    for (sec, name), status in seen.items():
        verdicts.add(f"{sec}: {name} (unpinned)", status, "PASS")
    expected_exit = 1 if any(status == "FAIL" for _, status, _ in pins) else 0
    verdicts.add("exit code", exit_code, expected_exit)


def _corpus_digest(lib: Lib) -> str:
    root = Path(lib.fixtures.__file__).parent / "data"
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


# the sections above 0.4 s; the others run under 0.1 s, too short to time
# within a tenth, so replay-all's op latency is taken over these three
HEAVY_SECTIONS = ("thm7.3-deg5", "thm6.3", "thm3.2")


class _Probe:
    """Minimal timers at two boundaries that the untraced replay pass needs:
    each section (op latency) and each degree-5 checker build (build
    latency; the degree-3 builds take well under a millisecond)."""

    def __init__(self, lib: Lib, speed: Speed):
        self.lib = lib
        self.speed = speed
        self.sections: dict[str, float] = {}
        self.builds: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        registry = self.lib.checks.SECTIONS
        originals = dict(registry)
        checker = self.lib.consequence.SpanChecker
        init = checker.__dict__["__init__"]
        sections, builds, speed = self.sections, self.builds, self.speed

        def timed_section(name, fn):
            def run():
                t0 = speed.now()
                try:
                    return fn()
                finally:
                    sections[name] = speed.now() - t0
            return run

        def timed_init(self, generators, basis, *args, **kwargs):
            t0 = speed.now()
            try:
                init(self, generators, basis, *args, **kwargs)
            finally:
                if getattr(basis, "degree", None) == 5:
                    builds.append(speed.now() - t0)

        for name, fn in originals.items():
            registry[name] = timed_section(name, fn)
        checker.__init__ = timed_init
        try:
            yield self
        finally:
            registry.update(originals)
            checker.__init__ = init


def run_replay(lib: Lib, inputs, probe: bool, speed: Speed):
    verdicts = Verdicts()
    buf = io.StringIO()
    timers = _Probe(lib, speed)
    with (timers.installed() if probe else contextlib.nullcontext()):
        t0 = speed.now()
        with contextlib.redirect_stdout(buf):
            exit_code = lib.cli.main(["replay", "all"])
        wall = speed.now() - t0
    text = buf.getvalue()
    score_replay(parse_report(text), exit_code, inputs["pins"], verdicts)
    return {
        "t0": t0,
        "wall_s": wall,
        "ops_s": [timers.sections[n] for n in HEAVY_SECTIONS if n in timers.sections],
        "builds_s": timers.builds,
        "sections_s": timers.sections,
        "verdicts": verdicts,
        "report_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


# ------------------------------------------------------------ polynomial recipes
# A recipe is a list of (fixture name, permutation of abcde, coefficient):
# the sum of coefficient * (fixture relabeled a..e -> permutation).

def _combo(rng, names, k) -> list[tuple[str, str, int]]:
    """k distinct relabelings (distinct perms per fixture), nonzero coefficients."""
    picks = [rng.choice(names) for _ in range(k)]
    out = []
    for name in dict.fromkeys(picks):
        perms = rng.sample(PERMS, picks.count(name))
        out += [(name, p, rng.choice(COEFFS)) for p in perms]
    return out


def _build(lib: Lib, recipe):
    core = lib.core
    total = core.Polynomial()
    for name, perm, coeff in recipe:
        f = lib.fixtures.fixture(name)
        mapping = dict(zip(f.variables, core.variables(perm)))
        total = total + core.relabel(f.lhs, mapping).scale(coeff)
    return total


def _extra_monomial(lib: Lib, shape: int, perm: str):
    """One ternary degree-5 basis monomial.  A single monomial has a nonzero
    word expansion, so it lies outside the kernel (the oracle re-checks)."""
    core = lib.core
    br = lib.fixtures.TERNARY
    x = [core.Monomial.leaf(core.Variable(c)) for c in perm]
    inner = lambda a, b, c: core.Monomial.apply(br, (a, b, c))
    if shape == 0:
        return inner(inner(x[0], x[1], x[2]), x[3], x[4])
    if shape == 1:
        return inner(x[0], inner(x[1], x[2], x[3]), x[4])
    return inner(x[0], x[1], inner(x[2], x[3], x[4]))


# ------------------------------------------------------------------- span-deg5

PRESENTATION = ("lts1", "lts2", "lts-b", "lts3")
SOURCE_NAMES = {"A": ["lts-a"], "B": ["lts-b"], "AB": ["lts-a", "lts-b"]}


def gen_span(seed: int) -> dict:
    """Seeded session recipes; every verdict is known by construction.

    Span types: A = relabelings of lts-a, B = of lts-b (each of rank 120,
    meeting in 0), and A+B (rank 240, the kernel of the word expansion).
    Each session's generators are one plain relabeling per fixture of its
    type plus redundant seeded combinations, so every certificate has a few
    terms and the "in span" latencies form one population.  A quarter of
    the targets are not in the session's span; the op percentiles then fall
    inside the "in span" population, not on the edge between the two.
    """
    rng = random.Random(f"span-deg5/{seed}")
    sessions = []
    for kind in SPAN_SESSIONS:
        names = SOURCE_NAMES[kind]
        gens = [[(name, rng.choice(PERMS), 1)] for name in names]
        gens += [_combo(rng, names, 3) for _ in range(4 - len(names))]
        if kind == "AB":
            plan = [("A", False), ("B", False), ("AB", False)] * 3
            plan += [("A", True), ("B", True), ("AB", True)]
        else:
            other = "B" if kind == "A" else "A"
            plan = [(kind, False)] * 9 + [(other, False), ("AB", False), (kind, True)]
        rng.shuffle(plan)
        queries = []
        for src, extra in plan:
            if src == "AB":  # a nonzero part in each span
                recipe = _combo(rng, ["lts-a"], 2) + _combo(rng, ["lts-b"], 2)
            else:
                recipe = _combo(rng, SOURCE_NAMES[src], 3)
            mono = (rng.randrange(3), rng.choice(PERMS), rng.choice(COEFFS)) if extra else None
            expected = mono is None and (kind == "AB" or src == kind)
            queries.append({"recipe": recipe, "extra": mono, "expected": expected})
        sessions.append({"kind": kind, "gens": gens, "queries": queries})
    equivs = []
    for kind in EQUIV_KINDS:
        a = lambda: [("lts-a", rng.choice(PERMS), 1)]
        b = lambda: [("lts-b", rng.choice(PERMS), 1)]
        if kind == "same-span":
            left, right = [a(), b()], [[(n, rng.choice(PERMS), 1)] for n in PRESENTATION]
        elif kind == "disjoint":
            left, right = [a()], [b()]
        else:
            left, right = [a()], [a(), b()]
        equivs.append({"kind": kind, "left": left, "right": right,
                       "expected": kind == "same-span"})
    return {"seed": seed, "sessions": sessions, "equivs": equivs}


def _identity(lib: Lib, poly, name):
    return lib.core.Identity(poly, variables=lib.core.variables(VARS), name=name)


def materialize_span(lib: Lib, spec: dict) -> dict:
    sessions = []
    for s, sess in enumerate(spec["sessions"]):
        gens = [_identity(lib, _build(lib, r), f"s{s}g{j}") for j, r in enumerate(sess["gens"])]
        targets = []
        for q in sess["queries"]:
            poly = _build(lib, q["recipe"])
            if q["extra"] is not None:
                shape, perm, coeff = q["extra"]
                poly = poly + lib.core.Polynomial({_extra_monomial(lib, shape, perm): coeff})
            targets.append(poly)
        sessions.append({"gens": gens, "targets": targets})
    equivs = []
    for e, eq in enumerate(spec["equivs"]):
        left = [_identity(lib, _build(lib, r), f"e{e}l{j}") for j, r in enumerate(eq["left"])]
        right = [_identity(lib, _build(lib, r), f"e{e}r{j}") for j, r in enumerate(eq["right"])]
        equivs.append((left, right))
    return {"spec": spec, "sessions": sessions, "equivs": equivs}


def run_span(lib: Lib, inputs, speed: Speed | None = None):
    """Each session does what ``forge span`` does: basis, relabeled
    instances, checker; then membership queries with certificate re-expansion."""
    speed = speed or Speed()
    cons, core = lib.consequence, lib.core
    br = lib.fixtures.TERNARY
    vs = core.variables(VARS)
    verdicts = Verdicts()
    spec = inputs["spec"]
    builds, ops = [], []
    t0 = speed.now()
    for s, (sess, data) in enumerate(zip(spec["sessions"], inputs["sessions"])):
        b0 = speed.now()
        try:
            basis = cons.MonomialBasis([br], 5, vs)
            tagged = []
            for g in data["gens"]:
                tagged.extend(cons.iter_relabelings(g, vs))
            checker = cons.SpanChecker(tagged, basis)
        except Exception as exc:  # a raised build fails every query of the session
            for q in range(len(data["targets"])):
                verdicts.raised(f"s{s}q{q}", exc)
            continue
        builds.append(speed.now() - b0)
        cert = None
        for q, (target, query) in enumerate(zip(data["targets"], sess["queries"])):
            q0 = speed.now()
            try:
                cert = checker.check(target)
                ok = bool(cert.ok and cert.verify())
            except Exception as exc:
                verdicts.raised(f"s{s}q{q}", exc)
                continue
            ops.append(speed.now() - q0)
            verdicts.add(f"s{s}q{q}", ok, query["expected"])
        # free the session here: the last certificate holds the only other
        # reference to its instances, so otherwise the next session's first
        # query would pay for deallocating them
        del basis, tagged, checker, cert
    for e, ((left, right), eq) in enumerate(zip(inputs["equivs"], spec["equivs"])):
        try:
            res = cons.sets_equivalent(left, right, 5, vs)
            verdicts.add(f"equiv{e}:{eq['kind']}", bool(res.equivalent), eq["expected"])
        except Exception as exc:
            verdicts.raised(f"equiv{e}:{eq['kind']}", exc)
    wall = speed.now() - t0
    return {"t0": t0, "wall_s": wall, "ops_s": ops, "builds_s": builds, "verdicts": verdicts}


def span_post_check(lib: Lib, inputs, verdicts: Verdicts, stats: bool) -> dict:
    """Cross-check every expected verdict with the word-expansion oracle:
    a target lies in A+B exactly when it expands to zero."""
    expand = lib.leibniz.expand_ternary
    fmt = lib.parsing.format_polynomial
    spec = inputs["spec"]
    for s, (sess, data) in enumerate(zip(spec["sessions"], inputs["sessions"])):
        for q, (query, target) in enumerate(zip(sess["queries"], data["targets"])):
            in_kernel = expand(target).is_zero
            verdicts.add(f"oracle s{s}q{q}", in_kernel, query["extra"] is None)
    gen_keys = []
    for data in inputs["sessions"]:
        gen_keys.append([frozenset(g.lhs.terms.items()) for g in data["gens"]])
    extra = {"generator_repeat_share": _repeat_share(gen_keys)}
    if stats:
        vs = lib.core.variables(VARS)
        inst_keys = []
        for data in inputs["sessions"]:
            inst_keys.append([
                frozenset(p.terms.items())
                for g in data["gens"] for _, p in lib.consequence.iter_relabelings(g, vs)
            ])
        extra["instance_repeat_share"] = _repeat_share(inst_keys)
    digest = _sha([
        [[fmt(g.lhs) for g in data["gens"]], [fmt(t) for t in data["targets"]]]
        for data in inputs["sessions"]
    ] + [[[fmt(i.lhs) for i in side] for side in pair] for pair in inputs["equivs"]])
    return {"input_digest": digest, "extra": extra}


def _repeat_share(groups) -> float:
    """Share of items equal to an item of an earlier group."""
    seen, repeats, total = set(), 0, 0
    for group in groups:
        for key in group:
            total += 1
            repeats += key in seen
        seen.update(group)
    return repeats / total if total else 0.0


# ----------------------------------------------------------------- jordan-deg5

def gen_jordan(seed: int) -> dict:
    rng = random.Random(f"jordan-deg5/{seed}")
    return {"seed": seed,
            "queries": [_combo(rng, ["lts-a", "lts-b"], 3) for _ in range(JORDAN_QUERIES)]}


def materialize_jordan(lib: Lib, spec: dict) -> dict:
    fx = lib.fixtures
    return {"spec": spec, "rj": fx.fixture("rj"), "ro": fx.fixture("ro"),
            "targets": [_build(lib, r) for r in spec["queries"]]}


def run_jordan(lib: Lib, inputs, speed: Speed | None = None):
    """One cold checker build over lifted rj/ro instances, then queries that
    each expand, straighten, check and re-expand the certificate.  Every
    query reduces (Thm 6.3 and relabeling invariance)."""
    speed = speed or Speed()
    rc = lib.rightcomm
    product = lib.fixtures.BINARY
    vs = lib.core.variables(VARS)
    verdicts = Verdicts()
    ops = []
    t0 = speed.now()
    try:
        checker = rc.build_jordan_checker(inputs["rj"], inputs["ro"], vs, product)
    except Exception as exc:
        for q in range(len(inputs["targets"])):
            verdicts.raised(f"q{q}", exc)
        return {"t0": t0, "wall_s": speed.now() - t0, "ops_s": [],
                "builds_s": [], "verdicts": verdicts}
    builds = [speed.now() - t0]
    for q, target in enumerate(inputs["targets"]):
        q0 = speed.now()
        try:
            expansion = rc.permuted_associator_expand(target, product)
            cert = checker.check(expansion)
            ok = bool(cert.ok and cert.verify())
        except Exception as exc:
            verdicts.raised(f"q{q}", exc)
            continue
        ops.append(speed.now() - q0)
        verdicts.add(f"q{q}", ok, True)
    wall = speed.now() - t0
    return {"t0": t0, "wall_s": wall, "ops_s": ops, "builds_s": builds, "verdicts": verdicts}


def jordan_post_check(lib: Lib, inputs, verdicts: Verdicts, stats: bool) -> dict:
    fmt = lib.parsing.format_polynomial
    return {"input_digest": _sha([fmt(t) for t in inputs["targets"]]), "extra": {}}


# ------------------------------------------------------------------ systems-3d

def _ut2_product(i: int, j: int) -> list[int]:
    """Coordinates of E_i E_j in the basis E11, E12, E22 of the 2x2
    upper-triangular matrices."""
    mats = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1))]
    a, b = mats[i], mats[j]
    m = [[sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)] for r in range(2)]
    return [m[0][0], m[0][1], m[1][1]]


def _det3(p) -> int:
    return (p[0][0] * (p[1][1] * p[2][2] - p[1][2] * p[2][1])
            - p[0][1] * (p[1][0] * p[2][2] - p[1][2] * p[2][0])
            + p[0][2] * (p[1][0] * p[2][1] - p[1][1] * p[2][0]))


def _adjugate3(p) -> list[list[int]]:
    """det(p) * p^-1; equal to p^-1 when det(p) = 1."""
    return [[(p[(j + 1) % 3][(i + 1) % 3] * p[(j + 2) % 3][(i + 2) % 3]
              - p[(j + 1) % 3][(i + 2) % 3] * p[(j + 2) % 3][(i + 1) % 3])
             for j in range(3)] for i in range(3)]


def _product_table(p) -> dict[tuple[int, int], list[int]]:
    """Structure constants of UT2 in the basis f_i = sum_j p[j][i] E_j."""
    d = _det3(p)
    pinv = [[d * x for x in row] for row in _adjugate3(p)]  # d = +-1
    prod = {}
    for i, j in itertools.product(range(3), repeat=2):
        v = [0, 0, 0]
        for a, b in itertools.product(range(3), repeat=2):
            c = p[a][i] * p[b][j]
            v = [x + c * y for x, y in zip(v, _ut2_product(a, b))]
        prod[(i, j)] = [sum(pinv[r][k] * v[k] for k in range(3)) for r in range(3)]
    return prod


def _triple_nonzeros(prod) -> int:
    """Nonzero structure constants of abc - bac - cab + cba."""
    def mul(u, v):
        out = [0, 0, 0]
        for i, j in itertools.product(range(3), repeat=2):
            if u[i] and v[j]:
                out = [x + u[i] * v[j] * y for x, y in zip(out, prod[(i, j)])]
        return out

    e = [[int(i == j) for j in range(3)] for i in range(3)]
    count = 0
    for i, j, k in itertools.product(range(3), repeat=3):
        a, b, c = e[i], e[j], e[k]
        terms = (mul(mul(a, b), c), mul(mul(b, a), c), mul(mul(c, a), b), mul(mul(c, b), a))
        count += sum(1 for l in range(3) if terms[0][l] - terms[1][l] - terms[2][l] + terms[3][l])
    return count


# Basis changes are unimodular (integer tables, no fraction growth) and give
# tables with TABLE_NONZEROS structure constants, the commonest density among
# them; table cost grows with density (8 nonzeros: 0.26 s, 54: 0.5-0.66 s at
# the seed commit), so fixing it keeps one seed's cost like another's.
TABLE_NONZEROS = 36


def gen_systems(seed: int) -> dict:
    """Seeded basis changes P of the upper-triangular 2x2 algebra."""
    rng = random.Random(f"systems-3d/{seed}")
    changes = []
    while len(changes) < SYSTEM_TABLES:
        p = [[rng.choice((-2, -1, 1, 2)) for _ in range(3)] for _ in range(3)]
        if _det3(p) in (1, -1) and _triple_nonzeros(_product_table(p)) == TABLE_NONZEROS:
            changes.append(p)
    return {"seed": seed, "changes": changes}


def materialize_systems(lib: Lib, spec: dict) -> dict:
    sysm = lib.systems
    tables = []
    for p in spec["changes"]:
        prod = {k: [Fraction(x) for x in v] for k, v in _product_table(p).items()}
        tables.append(sysm.from_associative(sysm.BinaryAlgebra(3, ["x", "y", "z"], prod)))
    return {"spec": spec, "tables": tables}


def run_systems(lib: Lib, inputs, speed: Speed | None = None):
    """Per table: defining identities, envelope, one-product law, restriction.
    Then the quadratic system and the F_p searches."""
    speed = speed or Speed()
    sysm = lib.systems
    verdicts = Verdicts()
    builds, ops = [], []
    t0 = speed.now()
    for t, table in enumerate(inputs["tables"]):
        q0 = speed.now()
        try:
            ok_lts, _ = sysm.check_lts(table)
            b0 = speed.now()
            env = sysm.build_envelope(table)
            b1 = speed.now()
            _, violations = sysm.check_leibniz(env)
            restricted = sysm.iterated_bracket_table(env, table.dim)
        except Exception as exc:
            verdicts.raised(f"t{t}", exc)
            continue
        ops.append(speed.now() - q0)
        builds.append(b1 - b0)
        verdicts.add(f"t{t}: defining identities hold", bool(ok_lts), True)
        verdicts.add(f"t{t}: envelope dimension", env.dim, 12)
        verdicts.add(f"t{t}: restriction equals the table", restricted.c == table.c, True)
        # on generator triples the law holds for every table by construction
        verdicts.add(f"t{t}: {len(violations)} law violations, none on generator triples",
                     any(max(v) < table.dim for v in violations), False)
        del env, violations, restricted  # freed here, not inside the next table's op
    try:
        qs = sysm.lts_equations(2)
        for p in PRIMES:
            sols = sysm.search_fp(qs, p, SEARCH_MASK)
            pts = {tuple(s[k] for k in SEARCH_MASK) for s in sols}
            family = {(z % p, (1 - z) % p) for z in range(p)}
            verdicts.add(f"F_{p}: the family points are solutions", family <= pts, True)
    except Exception as exc:
        verdicts.raised("equations", exc)
        qs = None
    wall = speed.now() - t0
    if qs is not None:
        verdicts.add("equations homogeneous of degree 2",
                     all(eq.is_homogeneous(2) for eq in qs.equations), True)
    return {"t0": t0, "wall_s": wall, "ops_s": ops, "builds_s": builds, "verdicts": verdicts}


def systems_post_check(lib: Lib, inputs, verdicts: Verdicts, stats: bool) -> dict:
    return {"input_digest": _sha([t.to_json() for t in inputs["tables"]]), "extra": {}}


# -------------------------------------------------------------------- registry

def generate(workload: str, seed: int) -> dict:
    """The seed-determined input recipe (plain data, no library objects)."""
    if workload == "replay-all":
        return {"seed": seed}
    return {"span-deg5": gen_span, "jordan-deg5": gen_jordan,
            "systems-3d": gen_systems}[workload](seed)


def materialize(workload: str, lib: Lib, spec: dict) -> dict:
    if workload == "replay-all":
        return {"spec": spec, "pins": load_pins()}
    return {"span-deg5": materialize_span, "jordan-deg5": materialize_jordan,
            "systems-3d": materialize_systems}[workload](lib, spec)


def run(workload: str, lib: Lib, inputs, probe: bool, speed: Speed):
    with speed.sampling():
        if workload == "replay-all":
            return run_replay(lib, inputs, probe, speed)
        return {"span-deg5": run_span, "jordan-deg5": run_jordan,
                "systems-3d": run_systems}[workload](lib, inputs, speed)


def post_check(workload: str, lib: Lib, inputs, verdicts: Verdicts, stats: bool) -> dict:
    if workload == "replay-all":
        return {"input_digest": _corpus_digest(lib), "extra": {}}
    return {"span-deg5": span_post_check, "jordan-deg5": jordan_post_check,
            "systems-3d": systems_post_check}[workload](lib, inputs, verdicts, stats)
