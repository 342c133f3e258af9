"""Span membership with certificates: is an identity a consequence?

At a fixed degree, the consequences of an identity set form the linear span
of its variable relabelings (and one-step liftings when the degree grows).
Membership is exact Gaussian elimination over rationals, and every positive
answer is an explicit combination that re-expands to the target.
"""

from algforge.consequence import MonomialBasis, SpanChecker, iter_relabelings, sets_equivalent
from algforge.core import variables
from algforge.fixtures import TERNARY, fixture
from algforge.parsing import format_polynomial

print(__doc__)
V = variables("abcde")
basis = MonomialBasis([TERNARY], 5, V)
print(f"Ambient space: {len(basis)} multilinear ternary monomials of degree 5")

gens = list(iter_relabelings(fixture("lts-a"), V)) + list(
    iter_relabelings(fixture("lts-b"), V)
)
checker = SpanChecker(gens, basis)
print(f"Instance span of the two defining identities: rank {checker.rank}")

target = fixture("lts1")
cert = checker.check(target.lhs)
print(f"\nIs lts1 a consequence? {cert.ok}")
print("Certificate (coefficient * instance):")
for line in cert.lines():
    print("  ", line)
print("Re-expands to the target:", cert.verify())

print("\nEquivalence of the two axiomatizations at degree 5:")
res = sets_equivalent(
    [fixture("lts-a"), fixture("lts-b")],
    [fixture(n) for n in ("lts1", "lts2", "lts-b", "lts3")],
    5,
    V,
)
print("  equivalent:", res.equivalent)

print("\nRedundancy: the 16-term reduced identity follows from the rest:")
gens2 = []
for n in ("inner2-skew", "inner2-cyclic", "inner3-skew", "inner3-cyclic", "lts3"):
    gens2.extend(iter_relabelings(fixture(n), V))
cert2 = SpanChecker(gens2, basis).check(fixture("derivation5-reduced").lhs)
print(f"  in span: {cert2.ok} with {len(cert2.coefficients)} certificate terms")
