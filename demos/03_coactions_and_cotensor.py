"""The coideal coactions and the cotensor identity that glues them.

The right coaction lives on the subalgebra generated by EK^-1, F, K^-1 and
the Casimir; the left one on E, FK, K and the Casimir.  Both satisfy the
comodule axioms, and the Casimir's coproduct sits in the cotensor product
of the two coideals: hitting it with either coaction gives the same
three-leg element.  That identity is what makes the ascending and
descending constructions interchangeable.
"""

from awbi.pbw import EdgeElem
from awbi.uq_engine import AW

print("right coaction on the alphabet letters:")
for g in AW.alphabets["R"].letters:
    t = EdgeElem.letter(AW, "R", g).tau_r().finalize()
    print(f"  tau_R({g}) has {t.term_count()} terms")

print("\ncomodule axioms, letter by letter:")
for g in AW.alphabets["R"].letters:
    x = EdgeElem.letter(AW, "R", g)
    t = x.tau_r()
    coassoc = t.tau_r().finalize() == t.delta_mid(1).finalize()
    counit = t.counit_mid(1).finalize() == x.finalize()
    print(f"  {g}: (1 x tau)tau == (Delta x 1)tau: {coassoc}, "
          f"(eps x 1)tau == id: {counit}")

seed = EdgeElem.casimir_delta(AW)
print("\nCasimir coproduct, with both legs kept in the coideal alphabets:")
for gl, gr, c in AW.casimir_delta:
    print(f"  {gl} (x) {gr}   coeff {c.pretty()}")

lhs = seed.tau_r().finalize()
rhs = seed.tau_l().finalize()
print(f"\ncotensor identity (1 x tau_R) Delta(C) == (tau_L x 1) Delta(C): "
      f"{lhs == rhs}")
print(f"both sides have {lhs.term_count()} terms at three legs")
