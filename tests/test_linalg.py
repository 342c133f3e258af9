"""The elimination table against its eager oracle: a table that sums each
combination from a reduction's trail gives the same pivots, answers and
kernels as one that updates every combination on every step."""

from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from algforge.consequence import MonomialBasis, kernel_of_expansion
from algforge.core import variables
from algforge.fixtures import BINARY, TERNARY
from algforge.leibniz import expand_ternary
from algforge.linalg import PivotTable

from helpers import EagerPivotTable, eager_kernel_of_expansion, typed_items

COLUMNS = 6
SCALARS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(2, 5)),
)
examples = settings(max_examples=150, deadline=None)


def _typed_pivots(table) -> list:
    return [(lead, typed_items(vec), typed_items(combo))
            for lead, (vec, combo) in table.pivots.items()]


def _typed_answer(answer) -> tuple:
    ok, combo, witness = answer
    return ok, typed_items(combo), witness


def _membership(table: PivotTable, target) -> tuple:
    """The oracle's ``membership`` answer, read off the table's reduction."""
    residual, trail = table.reduce(target)
    if residual:
        return False, {}, min(residual)
    return True, table.combination(trail), None


@st.composite
def _vectors(draw, count: int) -> list[dict]:
    """Random vectors, zero ones included, then repeats, scalings and sums of
    earlier ones, which reduce to zero."""
    vecs = draw(st.lists(st.dictionaries(st.integers(0, COLUMNS - 1), SCALARS, max_size=4),
                         min_size=1, max_size=count))
    for _ in range(draw(st.integers(0, count))):
        kind = draw(st.sampled_from(["repeat", "scale", "sum"]))
        u = draw(st.sampled_from(vecs))
        if kind == "repeat":
            vecs.insert(draw(st.integers(0, len(vecs))), dict(u))
        elif kind == "scale":
            s = draw(SCALARS)
            vecs.append({k: s * c for k, c in u.items()})
        else:
            w = draw(st.sampled_from(vecs))
            total = dict(u)
            for k, c in w.items():
                total[k] = total.get(k, 0) + c
            vecs.append({k: c for k, c in total.items() if c})
    return vecs


@examples
@given(data=st.data())
def test_trail_table_equals_the_eager_oracle(data):
    gens = data.draw(_vectors(8))
    table, oracle = PivotTable(), EagerPivotTable()
    added = [table.add(vec, tag) for tag, vec in enumerate(gens)]
    assert added == [oracle.add(vec, tag) for tag, vec in enumerate(gens)]
    assert _typed_pivots(table) == _typed_pivots(oracle)
    assert table.rank == oracle.rank

    # targets in the span (sums of scaled generators) and random ones
    targets = data.draw(st.lists(st.dictionaries(st.integers(0, COLUMNS - 1), SCALARS,
                                                 max_size=4), max_size=4))
    for _ in range(data.draw(st.integers(1, 4))):
        target: dict = {}
        for vec in data.draw(st.lists(st.sampled_from(gens), max_size=3)):
            s = data.draw(SCALARS)
            for k, c in vec.items():
                target[k] = target.get(k, 0) + s * c
        targets.append({k: c for k, c in target.items() if c})
    for target in targets:
        assert _typed_answer(_membership(table, target)) == _typed_answer(oracle.membership(target))


def _same_kernels(got, want):
    assert [typed_items(p.terms) for p in got] == [typed_items(p.terms) for p in want]


@examples
@given(data=st.data())
def test_trail_kernel_equals_the_eager_oracle(data):
    # 12 basis monomials, each sent to a drawn image; repeats and sums of
    # earlier images make kernel vectors
    basis = MonomialBasis([BINARY], 3, variables("abc"))
    images = data.draw(_vectors(len(basis.monomials)))[:len(basis.monomials)]
    images += [{}] * (len(basis.monomials) - len(images))
    image = {m: SimpleNamespace(terms=vec) for m, vec in zip(basis.monomials, images)}
    _same_kernels(kernel_of_expansion(basis, image.__getitem__),
                  eager_kernel_of_expansion(basis, image.__getitem__))


def test_degree5_ternary_kernel_equals_the_eager_oracle():
    basis = MonomialBasis([TERNARY], 5, variables("abcde"))
    kernel = kernel_of_expansion(basis, expand_ternary)
    assert len(kernel) == 240
    _same_kernels(kernel, eager_kernel_of_expansion(basis, expand_ternary))
