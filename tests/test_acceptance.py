"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is exact (rational arithmetic end to end); no check admits
numeric slack.  Criterion 8 is split into its table conjuncts and the
envelope one-product-law conjunct, which is asserted exactly as stated.
"""

import itertools
import random

from algforge.checks import replay_many
from algforge.core import form_tree, variables
from algforge.fixtures import BINARY, system_table
from algforge.leibniz import TensorPolynomial, free_product
from algforge.consequence import enumerate_shapes
from algforge.rightcomm import rc_straighten
from algforge.systems import build_envelope, check_leibniz, check_lts, from_associative, lie_triple_check

import helpers
from helpers import rc_orbit as _orbit


class criterion:
    """Prints 'criterion N: PASS/FAIL' even when the body raises."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status}  ({self.label})")
        return False


def _assert_section(section):
    (report,) = replay_many([section])
    failing = [c.name for c in report.claims if not c.ok]
    assert not failing, f"{report.section} failing claims: {failing}"


def test_criterion_1_associativity_transform():
    with criterion(1, "transform of associativity matches the five axioms"):
        _assert_section("ex2.4")


def test_criterion_2_lie_transform_reduction():
    with criterion(2, "Lie transform reduces to the one-product presentation"):
        _assert_section("ex2.5")


def test_criterion_3_ternary_transform_pipeline():
    with criterion(3, "ternary transform, elimination, degree-5 equivalence"):
        _assert_section("thm3.2")


def test_criterion_4_two_identity_equivalence():
    with criterion(4, "two-identity axiomatization is equivalent, with equations"):
        _assert_section("lem3.3")


def test_criterion_5_operator_identities():
    with criterion(5, "operator identities are degree-5 consequences"):
        _assert_section("sec4")


def test_criterion_6_free_algebra_expansions():
    with criterion(6, "free-algebra expansions and identity checks"):
        _assert_section("prop5.5")


def test_criterion_7_permuted_associator():
    with criterion(7, "permuted-associator expansions reduce over rj/ro"):
        _assert_section("thm6.3")


def test_criterion_8_systems_envelopes_tables():
    with criterion(8, "systems verify; envelopes and tables match transcription"):
        _assert_section("sec8")
        for name in (
            "sys2d-1", "sys2d-2", "sys2d-3", "sys2d-4",
            "sys2d-5-zeta0", "sys2d-5-zeta1", "sys2d-5-zeta2",
        ):
            table = system_table(name)
            ok, _ = check_lts(table)
            assert ok, name
            env = build_envelope(table)
            assert env.dim == 6 == table.dim * (table.dim + 1)


def test_criterion_8_envelope_one_product_law():
    # asserted exactly as stated: the law must hold on all 216 basis
    # triples of each envelope
    with criterion(8, "envelope satisfies the one-product law on all 216 triples"):
        for name in (
            "sys2d-1", "sys2d-2", "sys2d-3", "sys2d-4",
            "sys2d-5-zeta0", "sys2d-5-zeta1", "sys2d-5-zeta2",
        ):
            env = build_envelope(system_table(name))
            ok, violations = check_leibniz(env)
            assert ok, f"{name}: {len(violations)} violating triples, e.g. " + ", ".join(
                "(" + ",".join(env.basis[t] for t in triple) + ")"
                for triple in violations[:3]
            )


def test_criterion_9_degree5_kernel():
    with criterion(9, "degree-5 kernel equals the instance span, dimension 240"):
        _assert_section("thm7.3-deg5")


def test_criterion_10_property_suites():
    with criterion(10, "randomized law checks, orbit invariance, closure"):
        # 1000 randomized law checks in the free algebra, total degree <= 6
        rng = random.Random(20240105)
        letters = list("abcdefgh")
        failures = 0
        for _ in range(1000):
            nu = rng.randint(1, 4)
            nv = rng.randint(1, 5 - nu if nu < 5 else 1)
            nw = rng.randint(1, max(1, 6 - nu - nv))
            picked = rng.sample(letters, nu + nv + nw)
            u = TensorPolynomial.word(tuple(picked[:nu]))
            v = TensorPolynomial.word(tuple(picked[nu:nu + nv]))
            z = TensorPolynomial.word(tuple(picked[nu + nv:]))
            lhs = free_product(u, free_product(v, z))
            rhs = free_product(free_product(u, v), z, check_disjoint=False) - free_product(
                free_product(u, z), v, check_disjoint=False
            )
            if lhs != rhs:
                failures += 1
        assert failures == 0

        # straightening is constant on orbits, over all degree-5 shapes
        letters5 = variables("abcde")
        seen = set()
        for shape in enumerate_shapes([BINARY], 5):
            for perm in itertools.permutations(letters5):
                m = form_tree(shape, perm)
                word = rc_straighten(m)
                assert all(rc_straighten(t) == word for t in _orbit(m))
                seen.add(word)
        assert len(seen) == 525

        # associator systems from small associative algebras satisfy both
        # the classical and the two defining identities
        rng = random.Random(77)
        for base in (helpers.upper_triangular_2x2(), helpers.full_2x2_matrices()):
            for _ in range(2):
                algebra = helpers.random_basis_change(base, rng)
                table = from_associative(algebra)
                lie_ok, _ = lie_triple_check(table)
                lts_ok, _ = check_lts(table)
                assert lie_ok and lts_ok
