"""Cohomology rings of quotients as invariants modulo an annihilator.

The ring of the torus quotient is a finite polynomial quotient; the elements
every Weyl generator fixes form the invariant subring, and killing the
annihilator of the root-and-unipotent Euler class leaves the ring of the
full quotient.  Graded dimensions are all exact linear algebra.
"""

from nrquot import (
    GradedRingPresentation,
    GroupData,
    MultiPoly,
    annihilator_dims,
    euler_class_nonreductive,
    graded_dims,
    invariant_basis,
    quotient_presentation_betti,
)

z0, z1 = (MultiPoly.variable(2, i) for i in range(2))

# the torus quotient behind Gr(2, 3): a product of two projective planes
ring = GradedRingPresentation.polynomial_quotient(2, [z0 ** 3, z1 ** 3], 4)
print("torus-quotient ring Q[z1,z2]/(z1^3, z2^3)")
print("  graded dims:     ", graded_dims(ring))

weyl = (((1, 0),), 2)  # the swap of the two Chern roots
inv = invariant_basis(ring, weyl)
print("  invariant dims:  ", tuple(len(inv[d]) for d in sorted(inv)))

group = GroupData(rank=2, positive_roots=[[1, -1]], weyl_generators=[(1, 0)], weyl_order=2)
e = euler_class_nonreductive(group)
print("  Euler factor:    ", e)
print("  annihilator dims:", annihilator_dims(ring, e))

series = quotient_presentation_betti(ring, weyl, group)
print("  quotient series: ", series, " (the projective plane, as it must be)")

# the same machinery on the Gr(2, 4) torus quotient
ring24 = GradedRingPresentation.polynomial_quotient(2, [z0 ** 4, z1 ** 4], 6)
print()
print("torus-quotient ring Q[z1,z2]/(z1^4, z2^4)")
print("  quotient series: ", quotient_presentation_betti(ring24, weyl, group))
print("  (the Poincare polynomial of Gr(2, 4))")

# a univariate sanity case: P^2 // C* is a weighted projective line
tiny = GradedRingPresentation.polynomial_quotient(1, [MultiPoly.variable(1, 0) ** 2], 1)
trivial = GroupData(rank=1, weyl_order=1)
print()
print("P^2 // C* ring series:", quotient_presentation_betti(tiny, ((), 1), trivial))
