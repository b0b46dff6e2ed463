"""Cross-validation in exact rational representations.

The symbolic engine decides equality by normal forms; the oracle
evaluates both sides of an identity as exact rational matrices in
finite-dimensional weight modules at two rational parameter values and
compares entrywise.  A holding relation's sides are one normal form, so
they agree by construction; the multiplicativity audit at the end, a
product of separately evaluated generators, is what audits the
straightening.
"""

from fractions import Fraction

from awbi import uq_engine as uq
from awbi.extension import generator
from awbi.numoracle import RepSpec, crosscheck_points, evaluate, rep_matrices
from awbi.pbw import AlgElem
from awbi.relations import star_sides

q = Fraction(9, 4)
print("two-dimensional module at q = 9/4:")
M = rep_matrices(2, q)
print(f"  K  = diag{tuple(M['K'][i][i] for i in range(2))}")

spec = RepSpec((2,), Fraction(3, 2))
cas = evaluate(AlgElem.casimir(uq.AW), spec)
print(f"  Casimir acts as the scalar {cas[0][0]} "
      f"(= q^2 + q^-2 = {q**2 + q**-2})")

print("\nrank-one relation evaluated on the 2x2x2 module at two points:")
lhs, rhs = star_sides((1, 2), (2, 3), 3, uq.AW)
print(f"  sides agree: {crosscheck_points(lhs, rhs, (2, 2, 2))}")

print("\nnegative control (left side perturbed by +1):")
print(f"  detected as unequal: "
      f"{not crosscheck_points(lhs + AlgElem.one(uq.AW, 3), rhs, (2, 2, 2))}")

print("\nmultiplicativity audit: matrix of a product == product of matrices")
x = generator(uq.AW, 2, (1, 2))
y = generator(uq.AW, 2, (2,))
s2 = RepSpec((2, 2), Fraction(5, 7))
mx, my, mxy = evaluate(x, s2), evaluate(y, s2), evaluate(x * y, s2)
from awbi.numoracle import mat_mul
print(f"  holds: {mat_mul(mx, my) == mxy}")
