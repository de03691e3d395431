"""Additive-allowance minimality of losange refinements.

A losange returns to the double value zero at both ends, so intervals that
span one whole losange have a zero-energy minimizer: no multiplicative
factor can work, and the excess must be charged to an additive allowance
c r^(alpha - 1).  With alpha = 1/2 the constant 2 suffices at every level,
and a single losange on [0, 1] pins the deficiency sqrt(2) exactly.
"""

from qvlab import (
    CantorConstruction,
    almost_deficiency,
    audit_intervals,
    cantor_level,
    make_losange,
    quasi_k_ratio,
)


def main():
    single = make_losange(0.0, 1.0)
    report = almost_deficiency(single, 0.5, [(0.5, 0.5)])
    print(f"single losange, ball (1/2, 1/2): deficiency = {report.supremum:.12f} = sqrt(2)")

    quasi = quasi_k_ratio(single, [(0.0, 1.0)])
    print(f"same interval under the multiplicative audit: ratio = {quasi.supremum} (no finite factor works)")

    print("\nlosange refinement levels, alpha = 1/2, depth-9 interval family:")
    for level in range(1, 7):
        u = cantor_level(CantorConstruction(level, "losange"))
        rep = almost_deficiency(u, 0.5, audit_intervals(u, depth=9))
        print(f"  level {level}: smallest certified c = {rep.supremum:.9f}  (stays below 2)")


if __name__ == "__main__":
    main()
