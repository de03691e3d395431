"""A bounded-factor minimizer with a fractal collision set.

Placing diamonds above the removed middle thirds of [0, 1] and slope-one
double lines elsewhere yields two-branch functions whose energy on every
interval is within a factor 4 of the interval minimizer.  The factor
survives refinement, while the set where the branches collide thins out to
the ternary limit set.
"""

from qvlab import CantorConstruction, audit_intervals, cantor_level, cantor_limit, quasi_k_ratio


def main():
    print("level   intervals audited   sup (b-a) Dir / G^2   witness interval")
    for level in range(1, 7):
        u = cantor_level(CantorConstruction(level, "diamond"))
        family = audit_intervals(u, depth=9)
        report = quasi_k_ratio(u, family)
        w = report.witness
        print(
            f"  {level}        {report.record_count:7d}          {report.supremum:.9f}"
            f"        ({w.center - w.radius:.4f}, {w.center + w.radius:.4f})"
        )
    print("\nthe factor stays at 2 here and below 4 always (slopes are 0/1 mixtures)")

    approx, bound = cantor_limit("diamond", 8)
    print(f"\nlevel-8 stand-in for the limit: uniform error bound {bound:.3e}")
    print("value drift between levels is geometric with ratio 2/3: each added")
    print("diamond lowers everything beyond it by half the removed length.")
    for level in (2, 4, 6):
        u = cantor_level(CantorConstruction(level, "diamond"))
        v = cantor_level(CantorConstruction(level + 1, "diamond"))
        drift = abs(u.branches[0, -1] - v.branches[0, -1])
        print(f"  level {level} -> {level + 1}: drift at x=1 is {drift:.6f} = 2^{level - 2} 3^-{level + 1}")


if __name__ == "__main__":
    main()
