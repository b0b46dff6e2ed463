"""The super side: the q-anticommutator family in osp_q(1|2) tensor powers.

The same construction runs with the parity generator P carrying all the
signs (the tensor product itself stays ungraded).  The rank-one relations
use the q-anticommutator, the empty set gets the scalar -1/(q^1/2+q^-1/2),
and every structural theorem transfers verbatim.
"""

from awbi.extension import derive_empty_scalar, generator
from awbi.osp_engine import BI
from awbi.pbw import AlgElem
from awbi.relations import check_star, scan

gam = AlgElem.casimir(BI)
print("Casimir normal form (parity exponent is 1 on every term):")
print(gam.pretty())

print("\nempty-set scalar, solved from the disjoint pair at two legs:")
c = derive_empty_scalar(BI)
print(f"  {c.pretty()}")
print(f"  equals the Casimir counit: {c == BI.casimir_counit}")

print("\nrank-one q-anticommutator relations at three legs:")
for A, B in (((1, 2), (2, 3)), ((2, 3), (1, 3)), ((1, 3), (1, 2))):
    rep = check_star(A, B, 3, BI)
    print(f"  {{G{set(A)}, G{set(B)}}}_q relation: "
          f"{'holds' if rep.holds_star else 'FAILS'}")

print("\nfull n=3 scan on this backend:")
reports, summary = scan(3, BI)
print(f"  {summary['star_holds']}/{summary['pairs']} pairs satisfy the "
      f"standard relation, {len(summary['pattern_disagreements'])} "
      f"pattern disagreements")

g13 = generator(BI, 3, (1, 3))
print(f"\nthe hole generator at three legs has {g13.term_count()} terms")
