"""Straightening and reduction over the linearized Jordan/Osborn identities.

Right commutativity x(uv) = x(vu) collapses the 14 binary association
shapes of degree 5 to 9 canonical types (counted with their symmetry
groups: 525 canonical words).  Expanding a ternary identity through the
permuted associator <a,b,c> = (a,c,b) and straightening either cancels
everything or leaves a polynomial that must reduce over lifted instances
of the two linearized identities.
"""

from algforge.consequence import compiled_instances
from algforge.core import variables
from algforge.fixtures import BINARY, fixture, stated_instances
from algforge.rightcomm import (
    RCBasis, RCPolynomial, build_jordan_checker, permuted_associator_expand, symmetry_order,
)

print(__doc__)
V = variables("abcde")
orders = [symmetry_order(BINARY, 5, t) for t in range(1, 10)]
print("symmetry group orders by type:", orders)
basis = RCBasis(BINARY, 5, V)
print("canonical degree-5 words:", len(basis))

print("\nPermuted-associator expansions:")
for name in ("lts1", "lts2"):
    print(f"  {name}: {permuted_associator_expand(fixture(name))}")
eb = permuted_associator_expand(fixture("lts-b"))
print(f"  lts-b: {len(eb.terms)} terms, first two: "
      + ", ".join(f"{'+' if c > 0 else '-'}{w.render()}" for w, c in eb.sorted_terms()[:2]))

lifted = dict(compiled_instances([fixture("rj"), fixture("ro")], V))
stated = RCPolynomial.linear_image(stated_instances("lts-b"), lambda t: basis.normal(lifted[t]))
print("\nThe stated eight-instance combination straightens to the same thing:", stated == eb)

checker = build_jordan_checker(fixture("rj"), fixture("ro"), V, BINARY)
print(f"\nLifted-instance table: {len(checker.generators)} generators, rank {checker.rank}")
cert = checker.check(eb)
print(f"lts-b expansion reduces: {cert.ok}; certificate support:")
for line in cert.lines():
    print("  ", line)
