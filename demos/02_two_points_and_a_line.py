"""Two points and a line in the plane, modulo the Borel of SL(3).

The configuration space is X = P^2 x P^2 x (P^2)* with the upper-triangular
Borel B = U x| T of SL(3) acting diagonally.  The unipotent radical U is
graded by a circle lambda chosen near the extreme weight of the action, and
the whole Betti computation runs on weight combinatorics:

  * check that lambda grades Lie(U) positively,
  * pick a character shift in the admissible interval,
  * read off the quotient series from the minimal fixed locus,
  * peel off the unstable strata of the residual circle action and divide
    by the equivariant circle factor to land on the series of X//B.
"""

from fractions import Fraction

from nrquot import (
    GroupData,
    LinearForm,
    QuotientDims,
    StratumDatum,
    TruncSeries,
    check_grading,
    check_well_adapted,
    morse_assemble,
    poincare_uhat,
    weighted_projective_poincare,
)

# adjoint weights of the strictly upper-triangular 3 x 3 matrices, and the
# grading circle near the extreme weight of the hexagon of torus weights
unipotent = [LinearForm([1, -1, 0]), LinearForm([1, 0, -1]), LinearForm([0, 1, -1])]
grading = (Fraction(5, 3), Fraction(-1, 3), Fraction(-4, 3))
group = GroupData(rank=3, unipotent_weights=unipotent, grading=grading)

check_grading(group)  # raises at the first weight that pairs nonpositively
pairings = [w(group.grading) for w in unipotent]
print("grading pairings on Lie(U):", [str(v) for v in pairings])
print("internally graded:", min(pairings) > 0)

# circle weights of the extreme fixed point and its neighbours, projected
# onto the grading ray; a well-adapted shift sits just above the minimum
projections = sorted(pairings)
print("weight projections onto the grading ray:", [str(p) for p in projections])
weights = [Fraction(-3), Fraction(-1), Fraction(2)]
shift = Fraction(-29, 10)
adapted = check_well_adapted(weights, shift)
print(
    "shift %s lies in the admissible interval (%s, %s): %s"
    % (shift, adapted.interval[0], adapted.interval[1], bool(adapted))
)

# the minimal fixed locus is a single point, the swept stratum has
# codimension d = dim X - dim U - dim Z_min = 6 - 3 - 0 = 3
bound = 12
dims = QuotientDims(dim_x=6, dim_u=3, dim_zmin=0)
quotient_series = poincare_uhat(TruncSeries.one(bound), dims)
print()
print("P_t of the quotient by U x| lambda(C*):", quotient_series)
print("matches a weighted projective plane:",
      quotient_series == weighted_projective_poincare([2, 3, 3], bound))

# residual circle action on that quotient: two unstable strata, of
# codimension 1 (a projective line) and codimension 2 (a point)
unstable = morse_assemble(
    [
        StratumDatum(1, TruncSeries([1, 0, 1], bound)),
        StratumDatum(2, TruncSeries.one(bound)),
    ]
)
print("unstable strata contribute:", unstable)

ambient = TruncSeries.from_dict({0: 1, 6: -1}, bound).geom_div(2)
full_quotient = (ambient - unstable).geom_div(2)
print("P_t of X//B:", full_quotient)

# the same answer through the fibration form of the quotient series
print("fibration route:", poincare_uhat(TruncSeries.one(bound), QuotientDims(6, 3, 1)))

# the n-points generalisation: n points and a line, same Borel
print()
print("n points and a line:")
for n in range(2, 7):
    ub = 8 * n
    u_series = poincare_uhat(TruncSeries.one(ub), QuotientDims(2 * n + 2, 3, 0))
    h_series = poincare_uhat(TruncSeries.one(ub), QuotientDims(2 * n + 2, 3, 1))
    print("  n=%d:  X//U-hat top degree t^%d,  X//B top degree t^%d"
          % (n, u_series.degree(), h_series.degree()))
