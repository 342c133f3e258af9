"""Structure-constant tables, envelopes, quadratic systems, field search."""

import itertools
import json
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers

from algforge.core import AlgebraError, Identity, Monomial, Polynomial, variables
from algforge.fixtures import (
    BINARY,
    envelope_golden,
    fixture,
    parametric_system,
    system_table,
)
from algforge import systems
from algforge.parsing import parse
from algforge.systems import (
    BinaryAlgebra,
    QuadraticSystem,
    SymPoly,
    TernaryTable,
    build_envelope,
    check_identities,
    check_leibniz,
    check_lts,
    evaluations,
    from_associative,
    iterated_bracket_table,
    lie_triple_check,
    lts_equations,
    search_fp,
    symbolic_table,
)

ALL_SYSTEMS = [
    "sys2d-1", "sys2d-2", "sys2d-3", "sys2d-4",
    "sys2d-5-zeta0", "sys2d-5-zeta1", "sys2d-5-zeta2",
]


def test_json_roundtrip():
    table = system_table("sys2d-2")
    again = TernaryTable.from_json(json.dumps(table.to_json()))
    assert again.c == table.c and again.basis == table.basis


def test_json_rejects_bad_keys_and_values():
    with pytest.raises(AlgebraError):
        TernaryTable.from_json('{"dim": 2, "basis": ["x","y"], "triple": {"x,y": "x"}}')
    with pytest.raises(AlgebraError):
        TernaryTable.from_json('{"dim": 2, "basis": ["x","y"], "triple": {"x,y,z": "x"}}')
    with pytest.raises(AlgebraError):
        # values must be linear combinations of basis names
        TernaryTable.from_json(
            '{"dim": 2, "basis": ["x","y"], "triple": {"x,y,x": "mul(x,y)"}}'
        )
    # two spellings of one index tuple
    with pytest.raises(AlgebraError, match="repeats"):
        TernaryTable.from_json(
            {"dim": 2, "basis": ["x", "y"], "triple": {"x,y,x": "x", "x, y, x": "y"}}
        )
    with pytest.raises(AlgebraError, match="repeats"):
        BinaryAlgebra.from_json(
            {"dim": 2, "basis": ["x", "y"], "product": {"x,y": "x", " x,y": "y"}}
        )


def test_repeated_basis_names_are_rejected():
    with pytest.raises(AlgebraError, match="repeated"):
        TernaryTable(2, ["x", "x"], {})
    with pytest.raises(AlgebraError, match="repeated"):
        BinaryAlgebra(3, ["p", "q", "p"], {})
    with pytest.raises(AlgebraError, match="repeated"):
        TernaryTable.from_json({"dim": 2, "basis": ["x", "x"], "triple": {"x,x,x": "x"}})


def test_float_structure_constants_are_rejected():
    for vec in ([0.5, 0], {0: 0.5}, [0.0, 1]):
        with pytest.raises(AlgebraError):
            TernaryTable(2, ["x", "y"], {(0, 0, 0): vec})
        with pytest.raises(AlgebraError):
            BinaryAlgebra(2, ["x", "y"], {(1, 0): vec})
    # an integral Fraction is stored as its int, a fractional one as it is
    table = TernaryTable(2, ["x", "y"], {(0, 0, 0): [Fraction(4, 2), Fraction(1, 3)]})
    assert [type(x) for x in table.c[0, 0, 0].values()] == [int, Fraction]


def test_sparse_constants_outside_the_basis_are_rejected():
    with pytest.raises(AlgebraError):
        TernaryTable(2, ["x", "y"], {(0, 0, 2): [Fraction(1), Fraction(0)]})
    with pytest.raises(AlgebraError):
        BinaryAlgebra(2, ["x", "y"], {(0, 1, 1): [Fraction(1), Fraction(0)]})
    # so are coefficient vectors that do not fit the dimension
    for vec in ([1, 0, 1], [1], {2: 1}, {0: 1, -1: 1}):
        with pytest.raises(AlgebraError):
            TernaryTable(2, ["x", "y"], {(0, 0, 0): vec})
        with pytest.raises(AlgebraError):
            BinaryAlgebra(2, ["x", "y"], {(1, 0): vec})


def test_multiply_takes_one_vector_per_factor():
    table, algebra = system_table("sys2d-1"), helpers.upper_triangular_2x2()
    with pytest.raises(AlgebraError):
        table.multiply_into([{0: 1}, {1: 1}])
    with pytest.raises(AlgebraError):
        algebra.multiply_into([{0: 1}] * 3)
    # an identity of the other arity fails the same way
    with pytest.raises(AlgebraError):
        check_identities(table, [fixture("leibniz")])


COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


SYMBOLIC = st.builds(lambda c, name: SymPoly.symbol(name) * c,
                     st.integers(-2, 2), st.sampled_from("uvw"))  # 0 * u is zero


@st.composite
def symbolic_tables_and_factors(draw):
    """A random table of arity 2 or 3 and dimension 1-3 whose constants and
    factor coefficients are ints, Fractions and SymPolys, one factor possibly
    zero."""
    cls = draw(st.sampled_from([BinaryAlgebra, TernaryTable]))
    dim = draw(st.integers(1, 3))
    cols = st.integers(0, dim - 1)
    scalars = st.integers(-3, 3) | COEFFS | SYMBOLIC
    constants = draw(st.dictionaries(
        st.tuples(*[cols] * cls.arity), st.dictionaries(cols, scalars), max_size=12
    ))
    table = cls(dim, [f"e{i + 1}" for i in range(dim)], constants)
    factors = [{l: x for l, x in draw(st.dictionaries(cols, scalars)).items() if x}
               for _ in range(cls.arity)]
    if draw(st.booleans()):
        factors[draw(st.integers(0, cls.arity - 1))] = {}
    return table, factors


@settings(max_examples=80, deadline=None)
@given(symbolic_tables_and_factors())
@example((TernaryTable(2, ["x", "y"], {(0, 1, 1): {0: SymPoly.symbol("u"), 1: 2}}),
          [{0: Fraction(1, 2)}, {}, {1: 1}]))
@example((BinaryAlgebra(2, ["x", "y"], {(1, 0): {1: Fraction(1, 3)}, (0, 0): {0: 1}}),
          [{0: SymPoly.symbol("v"), 1: -1}, {0: 2}]))
def test_multiply_into_matches_the_index_tuple_product(case):
    table, factors = case
    got = table.multiply_into(factors)
    want = helpers.reference_multiply(table, factors)
    assert helpers.typed_items(got) == helpers.typed_items(want)


def test_multiply_into_and_evaluations_share_one_product_step(monkeypatch):
    calls = []
    step = systems._extend
    monkeypatch.setattr(systems, "_extend", lambda level, vec: calls.append(vec) or step(level, vec))
    table = system_table("sys2d-1")
    factors = [{0: 1, 1: Fraction(1, 2)}, {1: 3}, {0: -1, 1: SymPoly.symbol("u")}]
    got = table.multiply_into(factors)
    assert calls == factors
    assert helpers.typed_items(got) == helpers.typed_items(helpers.reference_multiply(table, factors))
    calls.clear()
    assert check_lts(table) == (True, []) and calls


@st.composite
def tables_and_factors(draw):
    """A random table of arity 2 or 3 and dimension 1-4, the constants it was
    built from, and one sparse vector per factor."""
    cls = draw(st.sampled_from([BinaryAlgebra, TernaryTable]))
    dim = draw(st.integers(1, 4))
    cols = st.integers(0, dim - 1)
    indices = st.tuples(*[cols] * cls.arity)
    constants = draw(st.dictionaries(indices, st.dictionaries(cols, COEFFS), max_size=12))
    # half the entries as dense lists, the other form the constructor takes
    given_form = {
        idx: [vec.get(l, 0) for l in range(dim)] if draw(st.booleans()) else vec
        for idx, vec in constants.items()
    }
    table = cls(dim, [f"e{i + 1}" for i in range(dim)], given_form)
    factors = [draw(st.dictionaries(cols, COEFFS)) for _ in range(cls.arity)]
    return table, constants, factors


@settings(max_examples=60, deadline=None)
@given(tables_and_factors())
def test_multiply_matches_the_dense_reference_loops(case):
    table, constants, factors = case
    n = table.dim
    assert all(vec and all(vec.values()) for vec in table.c.values())
    grid = helpers.dense_grid(n, table.arity, constants)
    reference = helpers.reference_product if table.arity == 2 else helpers.reference_triple
    dense = reference(grid, n, *([vec.get(l, 0) for l in range(n)] for vec in factors))
    assert table.multiply_into(factors) == {l: x for l, x in enumerate(dense) if x}
    assert type(table).from_json(json.dumps(table.to_json())).c == table.c


def test_check_lts_fixtures():
    for name in ALL_SYSTEMS:
        ok, violations = check_lts(system_table(name))
        assert ok and violations == [], name


def test_check_lts_parametric_instance():
    # instantiating the family parameter at 2 and checking by brute
    # evaluation on all 32 basis tuples
    ok, _ = check_lts(parametric_system(2))
    assert ok
    assert parametric_system(2).c == system_table("sys2d-5-zeta2").c


def test_zero_table_is_a_system():
    zero = TernaryTable(2, ["x", "y"], {})
    ok, _ = check_lts(zero)
    assert ok
    lie, _ = lie_triple_check(zero)
    assert lie


def test_lie_triple_flags():
    expected = {
        "sys2d-1": True, "sys2d-2": True,
        "sys2d-3": False, "sys2d-4": False,
        "sys2d-5-zeta0": False, "sys2d-5-zeta1": False, "sys2d-5-zeta2": False,
    }
    for name, expect in expected.items():
        ok, _ = lie_triple_check(system_table(name))
        assert ok == expect, name


def test_check_lts_flags_non_system():
    bad = TernaryTable(2, ["x", "y"], {(0, 0, 0): [Fraction(0), Fraction(1)],
                                       (0, 1, 0): [Fraction(0), Fraction(1)],
                                       (1, 0, 0): [Fraction(0), Fraction(-1)]})
    ok, violations = check_lts(bad)
    assert not ok and violations
    # violations are (identity name, tuple) sorted by tuple order
    tuples = [t for _, t in violations]
    assert tuples == sorted(tuples)


def test_envelope_entries_from_the_product_rules():
    env1 = build_envelope(system_table("sys2d-1"))
    names = env1.basis
    assert names == ["x", "y", "xx", "xy", "yx", "yy"]
    x, xy = names.index("x"), names.index("xy")
    # x . xy = <x,x,y> - <x,y,x> = -y
    vec = env1.multiply_into([{x: 1}, {xy: 1}])
    assert vec == {names.index("y"): Fraction(-1)}
    env2 = build_envelope(system_table("sys2d-2"))
    xy2 = env2.basis.index("xy")
    vec2 = env2.multiply_into([{xy2: 1}, {xy2: 1}])
    # (xy).(xy) = <x,y,x> y - <x,y,y> x = 2 xy + 2 yx
    assert vec2 == {env2.basis.index("xy"): Fraction(2), env2.basis.index("yx"): Fraction(2)}


def test_envelope_of_zero_system():
    zero = TernaryTable(2, ["x", "y"], {})
    env = build_envelope(zero)
    assert env.dim == 6
    # degree-1 products give the pairs, everything else vanishes
    assert env.multiply_into([{0: 1}, {1: 1}]) == {env.basis.index("xy"): 1}
    for i, j in itertools.product(range(2, 6), repeat=2):
        assert not env.multiply_into([{i: 1}, {j: 1}])
    ok, _ = check_leibniz(env)
    assert ok


def test_envelope_dimension_formula():
    for n in (1, 2, 3):
        table = TernaryTable(n, [f"e{i+1}" for i in range(n)], {})
        assert build_envelope(table).dim == n * (n + 1)


def test_iterated_bracket_restriction_recovers_table():
    for name in ALL_SYSTEMS:
        table = system_table(name)
        env = build_envelope(table)
        assert iterated_bracket_table(env, table.dim).c == table.c


def test_envelope_tables_match_transcriptions():
    for name in ALL_SYSTEMS:
        assert build_envelope(system_table(name)).render_table() == envelope_golden(name)


def test_envelope_law_violations_are_the_mixed_degree_obstruction():
    # the stated product rules do not close the one-product law on the
    # chosen 6-dimensional section: violations appear exactly at triples
    # mixing two generators with one pair, never at generator-only or
    # generator-pair-pair triples
    env = build_envelope(system_table("sys2d-1"))
    ok, violations = check_leibniz(env)
    assert not ok
    patterns = {
        tuple(1 if t < 2 else 2 for t in triple) for triple in violations
    }
    assert patterns <= {(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)}
    # generator-only triples always satisfy the law
    assert all(t not in violations for t in itertools.product(range(2), repeat=3))


def _perturbed_sys2d_1() -> TernaryTable:
    """sys2d-1 with one structure constant, the y-coordinate of <x,x,y>, raised by 1."""
    c = {idx: dict(vec) for idx, vec in system_table("sys2d-1").c.items()}
    vec = c.setdefault((0, 0, 1), {})
    vec[1] = vec.get(1, 0) + Fraction(1)
    return TernaryTable(2, ["x", "y"], c)


def test_perturbed_non_system_fails_envelope_law_on_degree5_triples():
    bad = _perturbed_sys2d_1()
    ok, _ = check_lts(bad)
    assert not ok
    env = build_envelope(bad)
    ok_l, violations = check_leibniz(env)
    assert not ok_l
    # the second defining identity now fails, which shows up at
    # pair-pair-generator triples; genuine systems never violate those
    assert any(
        tuple(1 if t < 2 else 2 for t in triple) == (2, 2, 1)
        for triple in violations
    )


def _reference_check_leibniz(algebra):
    """The law check written out with explicit dense product chains."""
    n = algebra.dim
    grid = helpers.dense_grid(n, 2, algebra.c)

    def product(u, v):
        return helpers.reference_product(grid, n, u, v)

    violations = []
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b, c = ([Fraction(int(t == s)) for t in range(n)] for s in (i, j, k))
        lhs = product(product(a, b), c)
        rhs1 = product(product(a, c), b)
        rhs2 = product(a, product(b, c))
        if any(lhs[l] - rhs1[l] - rhs2[l] for l in range(algebra.dim)):
            violations.append((i, j, k))
    return (not violations), violations


def test_check_leibniz_matches_explicit_product_chains():
    tables = [system_table(name) for name in ALL_SYSTEMS]
    tables += [_perturbed_sys2d_1(), from_associative(helpers.upper_triangular_2x2())]
    tables.append(TernaryTable(2, ["x", "y"], {}))
    for table in tables:
        env = build_envelope(table)
        assert check_leibniz(env) == _reference_check_leibniz(env)
    # the sample covers both outcomes: only the zero table's envelope passes
    assert {check_leibniz(build_envelope(t))[0] for t in tables} == {True, False}


def test_binary_algebra_json_roundtrip():
    for algebra in (helpers.upper_triangular_2x2(), build_envelope(system_table("sys2d-2"))):
        payload = algebra.to_json()
        assert set(payload) == {"dim", "basis", "product"}
        again = BinaryAlgebra.from_json(json.dumps(payload))
        assert again.c == algebra.c and again.basis == algebra.basis
    with pytest.raises(AlgebraError):
        BinaryAlgebra.from_json('{"dim": 2, "basis": ["x","y"], "product": {"x,y,x": "x"}}')


def test_lts_equations_are_listed_identity_by_identity():
    # the first identity's equations come first, each in tuple order
    table = symbolic_table(2)
    expected, seen = [], set()
    for ident in (fixture("lts-a"), fixture("lts-b")):
        for _, _, out in helpers.reference_evaluations(table, [ident]):
            for _, coord in sorted(out.items()):
                if coord.normalized() not in seen:
                    seen.add(coord.normalized())
                    expected.append(coord.normalized())
    equations = lts_equations(2).equations
    assert len(equations) == 128
    assert [repr(eq) for eq in equations] == [repr(eq) for eq in expected]


@pytest.mark.parametrize("value", [0, 3, Fraction(-1, 2)])
def test_constant_sympoly_hashes_as_its_value(value):
    const = SymPoly.const(value)
    assert const == value and hash(const) == hash(value)
    assert const in {value} and value in {const}


def test_sympoly_rejects_float_scalars():
    a = SymPoly.symbol("a")
    for make in (
        lambda: SymPoly.const(0.1),
        lambda: a * 0.5,
        lambda: 0.5 * a,
    ):
        with pytest.raises(AlgebraError):
            make()
    assert SymPoly.const(Fraction(6, 3)).terms == {(): 2}
    assert (a * Fraction(1, 2)).terms == {("a",): Fraction(1, 2)}


def test_associator_construction_gives_systems():
    table = from_associative(helpers.upper_triangular_2x2())
    lie_ok, _ = lie_triple_check(table)
    lts_ok, _ = check_lts(table)
    assert lie_ok and lts_ok


def test_randomized_associator_systems_satisfy_identities():
    rng = random.Random(99)
    for _ in range(3):
        changed = helpers.random_basis_change(helpers.upper_triangular_2x2(), rng)
        table = from_associative(changed)
        lie_ok, _ = lie_triple_check(table)
        lts_ok, _ = check_lts(table)
        assert lie_ok and lts_ok


def test_quadratic_system_shape():
    qs = lts_equations(2)
    assert len(qs.unknowns) == 16
    assert qs.equations
    assert all(eq.is_homogeneous(2) for eq in qs.equations)
    assert len({frozenset(eq.terms.items()) for eq in qs.equations}) == len(qs.equations)


def test_quadratic_system_known_solutions():
    qs = lts_equations(2)
    assert qs.is_satisfied({})
    assert qs.is_satisfied({"a122": Fraction(1), "a222": Fraction(1)})
    assert qs.is_satisfied({"a122": Fraction(-1), "a222": Fraction(1)})
    z = SymPoly.symbol("zeta")
    assert qs.is_satisfied({"a122": z, "a222": 1 - z})
    # a non-system assignment fails
    assert not qs.is_satisfied({"a111": Fraction(1), "b121": Fraction(1), "b211": Fraction(-1)})


def test_parametric_family_symbolic_coordinate_evaluation():
    z = SymPoly.symbol("zeta")
    table = symbolic_table(2)
    values = {name: Fraction(0) for name in lts_equations(2).unknowns}
    values["a122"] = z
    values["a222"] = 1 - z
    assign = {}
    for vec_name, coords in (("a", ("a1", "a2")), ("b", ("b1", "b2")),
                             ("c", ("c1", "c2")), ("d", ("d1", "d2")),
                             ("e", ("e1", "e2"))):
        assign[vec_name] = {0: SymPoly.symbol(coords[0]), 1: SymPoly.symbol(coords[1])}
    family = TernaryTable(2, ["x", "y"], {
        idx: {l: x.substitute(values) for l, x in vec.items()} for idx, vec in table.c.items()
    })
    # the second term of the five-variable identity evaluates to
    # zeta (a1 zeta + a2 (1 - zeta)) b2 c2 d2 e2 in the x coordinate
    lts_b = fixture("lts-b")
    inner = family.multiply_into([assign["a"], assign["b"], assign["c"]])
    outer = family.multiply_into([inner, assign["d"], assign["e"]])
    expected_x = (
        SymPoly.symbol("a1") * z * z
        + SymPoly.symbol("a2") * z * (1 - z)
    ) * SymPoly.symbol("b2") * SymPoly.symbol("c2") * SymPoly.symbol("d2") * SymPoly.symbol("e2")
    assert outer == {0: expected_x}
    # and the whole identity vanishes symbolically for every parameter
    out = helpers.reference_evaluate(family, lts_b, {v.name: assign[v.name] for v in lts_b.variables})
    assert not out


def _fp_oracle(p, alpha122, alpha222):
    """Direct check mod p: build the integer table and evaluate identities."""
    table = TernaryTable(
        2, ["x", "y"],
        {(0, 1, 1): [Fraction(alpha122), Fraction(0)],
         (1, 1, 1): [Fraction(alpha222), Fraction(0)]},
    )
    from algforge.fixtures import FIXTURES

    for ident in (FIXTURES["lts-a"], FIXTURES["lts-b"]):
        for _, _, out in helpers.reference_evaluations(table, [ident]):
            if any(int(x) % p for x in out.values()):
                return False
    return True


def test_search_fp_matches_direct_enumeration():
    qs = lts_equations(2)
    sols = search_fp(qs, 3, ["a122", "a222"])
    got = {(s["a122"], s["a222"]) for s in sols}
    oracle = {
        (a, b)
        for a in range(3)
        for b in range(3)
        if _fp_oracle(3, a, b)
    }
    assert got == oracle
    # the one-parameter family points and the third system's point appear
    assert {(z % 3, (1 - z) % 3) for z in range(3)} <= got
    assert (1, 1) in got


def test_search_fp_error_paths():
    qs = lts_equations(2)
    with pytest.raises(AlgebraError):
        search_fp(qs, 3, [])
    with pytest.raises(AlgebraError):
        search_fp(qs, 101, qs.unknowns[:8])
    with pytest.raises(AlgebraError):
        search_fp(qs, 3, ["nope"])
    # a repeat would print each solution's one value twice
    with pytest.raises(AlgebraError, match=r"^coordinate 'a122' is named twice in the mask$"):
        search_fp(qs, 3, ["a122", "a222", "a122"])


def test_search_fp_refuses_a_coordinate_both_in_the_mask_and_fixed():
    qs = _lts2()
    # a free coordinate takes every value, so a fixed value for it could only be ignored
    with pytest.raises(AlgebraError, match=r"^coordinate 'a122' is both in the mask and fixed$"):
        search_fp(qs, 3, ["a122", "a222"], {"a122": 1})
    with pytest.raises(AlgebraError, match="'a222' is both"):
        search_fp(qs, 3, ["a122", "a222"], {"a111": 0, "a222": 0})
    assert len(search_fp(qs, 3, ["a222"], {"a122": 1})) < len(search_fp(qs, 3, ["a122", "a222"]))


@cache
def _lts2():
    return lts_equations(2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_search_fp_matches_term_by_term_evaluation(data):
    qs = _lts2()
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    free = data.draw(st.lists(st.sampled_from(qs.unknowns), min_size=1, max_size=2, unique=True),
                     label="free")
    fixed = data.draw(st.dictionaries(st.sampled_from(qs.unknowns), st.integers(-9, 9),
                                      max_size=4), label="fixed")
    # one more equation with fractional coefficients: a multiple of one
    # equation plus another, refused where p divides a denominator
    i, j = data.draw(st.tuples(*[st.integers(0, len(qs.equations) - 1)] * 2), label="i, j")
    scale = data.draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]))
    system = QuadraticSystem(qs.unknowns, [*qs.equations, qs.equations[i] * scale + qs.equations[j]])
    try:
        want = helpers.reference_search_fp(system, p, free, fixed)
    except AlgebraError as err:
        with pytest.raises(AlgebraError) as got:
            search_fp(system, p, free, fixed)
        assert str(got.value) == str(err)
    else:
        assert search_fp(system, p, free, fixed) == want


def test_search_fp_reads_a_fixed_value_as_its_residue_mod_p():
    qs = _lts2()
    mask = ["a122", "a222"]
    at_zero = search_fp(qs, 3, mask, {"a111": 0})
    assert len(at_zero) == 9
    # 3/2 is 0 mod 3, and -1/2 is 1 mod 3
    assert search_fp(qs, 3, mask, {"a111": Fraction(3, 2)}) == at_zero
    assert search_fp(qs, 3, mask, {"a111": Fraction(-1, 2)}) == search_fp(qs, 3, mask, {"a111": 1})
    with pytest.raises(AlgebraError, match=r"^value a111=1/3 not defined mod 3$"):
        search_fp(qs, 3, mask, {"a111": Fraction(1, 3)})
    with pytest.raises(AlgebraError, match="not an int or a Fraction"):
        search_fp(qs, 3, mask, {"a111": 0.0})


def test_search_fp_refuses_an_undefined_coefficient_before_it_enumerates():
    x, y = SymPoly.symbol("x"), SymPoly.symbol("y")
    # x*x + 1 is nonzero for every x mod 3, so no candidate reaches x*y/3
    system = QuadraticSystem(["x", "y"], [x * x + 1, x * y * Fraction(1, 3)])
    assert helpers.reference_search_fp(QuadraticSystem(["x", "y"], system.equations[:1]),
                                       3, ["x"], {}) == []
    with pytest.raises(AlgebraError, match="coefficient 1/3 not defined mod 3"):
        search_fp(system, 3, ["x"])


IDENTITIES = {2: ["leibniz", "jordan-right"], 3: ["lts-a", "lts-b", "l1", "l2", "l3"]}


A, B = (Monomial.leaf(v) for v in variables("ab"))
DEGREE_ONE = Identity(Polynomial({A: 2, Monomial.apply(BINARY, [A, B]): -1}))  # a bare-variable root


# subterms that repeat a variable, one of them beside a child that shares it
REPEATED = Identity(parse("(a(ba))b - 2*b(a(ab))", product=BINARY))
# a term without the first variable, whose root table serves the whole call
LACKS_FIRST = Identity(parse("(ab)c - b(cb) + 2*c(bb)", product=BINARY))
# a term without a later variable, whose entries spread over its indices
LACKS_LATER = Identity(parse("(ab)c - 2*(ab)b", product=BINARY))
# the first variable in a later child of one root, and in either order
LATER_FIRST = Identity(parse("b(ca) + (ab)c", product=BINARY), variables=variables("abc"))
LATER_FIRST_CAB = Identity(LATER_FIRST.lhs, variables=variables("cab"))
# bare-variable roots, one the first variable, beside a binary root of one size
C = Monomial.leaf(variables("c")[0])
BARE_AND_BINARY = Identity(Polynomial({
    A: 1, C: -2, Monomial.apply(BINARY, [Monomial.apply(BINARY, [A, B]), C]): 1,
}), variables=variables("abc"))


@st.composite
def tables_and_identities(draw):
    """A random sparse table of arity 2 or 3 and dimension 1-4 with int and
    Fraction constants (possibly none), some fixture identities of its arity,
    and a tuple range of at most its dimension."""
    cls = draw(st.sampled_from([BinaryAlgebra, TernaryTable]))
    dim = draw(st.integers(1, 4))
    cols = st.integers(0, dim - 1)
    scalars = st.integers(-3, 3) | COEFFS
    constants = draw(st.dictionaries(
        st.tuples(*[cols] * cls.arity), st.dictionaries(cols, scalars), max_size=12
    ))
    names = draw(st.lists(st.sampled_from(IDENTITIES[cls.arity]), min_size=1, unique=True))
    below = draw(st.integers(1, dim))
    table = cls(dim, [f"e{i + 1}" for i in range(dim)], constants)
    return table, [fixture(name) for name in names], below


@settings(max_examples=40, deadline=None)
@given(tables_and_identities())
@example((TernaryTable(2, ["x", "y"], {}), [fixture("lts-a"), fixture("lts-b")], 2))
@example((system_table("sys2d-2"), [fixture(n) for n in IDENTITIES[3]], 2))
@example((build_envelope(system_table("sys2d-1")),
          [fixture("leibniz"), fixture("jordan-right")], 6))
@example((helpers.upper_triangular_2x2(), [fixture("leibniz"), DEGREE_ONE], 3))
@example((helpers.full_2x2_matrices(), [REPEATED, fixture("jordan-right")], 4))
@example((helpers.full_2x2_matrices(), [LACKS_FIRST, fixture("leibniz")], 4))
@example((build_envelope(system_table("sys2d-2")), [LATER_FIRST, LATER_FIRST_CAB], 5))
@example((helpers.upper_triangular_2x2(), [fixture("leibniz"), BARE_AND_BINARY], 3))
@example((helpers.full_2x2_matrices(), [LACKS_LATER, fixture("leibniz")], 4))
# rows that hold columns at and above the tuple range, which a fresh leaf drops
@example((build_envelope(system_table("sys2d-1")),
          [fixture("leibniz"), LACKS_LATER, fixture("jordan-right")], 2))
@example((symbolic_table(2), [fixture("lts-a")], 2))
def test_compiled_evaluations_match_the_fold_per_tuple_oracle(case):
    table, identities, below = case
    # (identity, tuple, value) triples, compared in yield order
    got = list(evaluations(table, identities, below))
    assert got == list(helpers.reference_evaluations(table, identities, below))


def test_a_tuple_range_below_the_dimension_tables_no_index_above_it(monkeypatch):
    # the envelope's rows hold pair columns, which a bare variable over the
    # generators x, y never takes: its walk drops them, keeping the tables small
    keys = []
    products = systems._products

    def spy(*args):
        values = products(*args)
        keys.extend(values)
        return values

    monkeypatch.setattr(systems, "_products", spy)
    env = build_envelope(system_table("sys2d-1"))
    identities = [fixture("leibniz"), LACKS_LATER, fixture("jordan-right")]
    assert list(evaluations(env, identities, 2)) == list(
        helpers.reference_evaluations(env, identities, 2))
    assert keys and all(i < 2 for key in keys for i in key)


def test_evaluated_scalars_are_stored_as_a_table_stores_them():
    # an exact sum of int and Fraction terms may end as Fraction(n, 1),
    # depending on the order it adds them; every yielded scalar is its q
    rng = random.Random(1106)
    for cls, dim in itertools.product((BinaryAlgebra, TernaryTable), (2, 3)):
        choices = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)]
        constants = {
            idx: {l: rng.choice(choices) for l in range(dim) if rng.random() < 0.6}
            for idx in itertools.product(range(dim), repeat=cls.arity) if rng.random() < 0.6
        }
        table = cls(dim, [f"e{i}" for i in range(dim)], constants)
        identities = [fixture(name) for name in IDENTITIES[cls.arity]]
        got = list(evaluations(table, identities))
        assert got == list(helpers.reference_evaluations(table, identities))
        scalars = [x for _, _, value in got for x in value.values()]
        assert scalars and all(type(x) is int or x.denominator > 1 for x in scalars)


def test_evaluations_refuses_a_tuple_range_outside_the_basis():
    table = system_table("sys2d-1")
    for dim in (0, -1, 3, 5):
        with pytest.raises(AlgebraError, match=f"first {dim} basis elements of a 2-dimensional"):
            next(evaluations(table, [fixture("lts-a")], dim))
    assert len(list(evaluations(table, [fixture("lts-a")], 1))) == 1
    env = build_envelope(table)  # dimension 6
    with pytest.raises(AlgebraError, match="first 9 basis elements of a 6-dimensional"):
        iterated_bracket_table(env, 9)
    assert iterated_bracket_table(env, 6).dim == 6


def test_system_budget_counts_identity_tuple_pairs(monkeypatch):
    table = system_table("sys2d-1")  # 2 identities on 2**5 tuples: 64 pairs
    monkeypatch.setattr(systems, "SYSTEM_LIMIT", 64)
    assert check_lts(table) == (True, [])
    monkeypatch.setattr(systems, "SYSTEM_LIMIT", 63)
    with pytest.raises(AlgebraError, match="64 identity evaluations"):
        check_lts(table)
    # build_envelope counts n**4 = 16 pair products
    monkeypatch.setattr(systems, "SYSTEM_LIMIT", 16)
    assert build_envelope(table).dim == 6
    monkeypatch.setattr(systems, "SYSTEM_LIMIT", 15)
    with pytest.raises(AlgebraError, match="16 pair products"):
        build_envelope(table)


def test_check_identities_multi_degree():
    table = system_table("sys2d-1")
    ok, _ = check_identities(table, [fixture("l1"), fixture("lts-b")])
    assert ok


def test_check_identities_assigns_each_variable_once():
    # the right Jordan identity has degree 4 in two variables: one violation
    # per failing pair of basis elements, not one per degree-4 tuple
    algebra = BinaryAlgebra(2, ["x", "y"], {(0, 0): [Fraction(0), Fraction(1)],
                                            (0, 1): [Fraction(1), Fraction(1)],
                                            (1, 0): [Fraction(1), Fraction(0)]})
    ok, violations = check_identities(algebra, [fixture("jordan-right")])
    assert not ok
    assert violations == [("jordan-right", (0, 0)), ("jordan-right", (0, 1))]


def test_render_table_layout_stable():
    text = build_envelope(system_table("sys2d-1")).render_table()
    assert text.splitlines()[0].startswith(".")
    assert text == build_envelope(system_table("sys2d-1")).render_table()
