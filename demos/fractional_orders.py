# Fractionally integrated panels and the rank rule calibrated for them.
#
# The plain ratio rule compares trailing eigenvalues against n * lambda_p,
# which is calibrated to the n^2 eigenvalue growth of unit-root components.
# When the nonstationary components only have long memory of order
# d in (1/2, 3/4), their eigenvalues grow like n^(4d-2) — slower than n —
# and the plain threshold swallows them.  The fractional variant replaces
# the factor n with n^(d_min + delta - 1), a threshold calibrated to a
# known lower bound d_min on the memory order.
#
# Run from the repository root:  python3 demos/fractional_orders.py

from dataclasses import replace

import numpy as np

from eigencoint import frac_coeffs, gen_arfima, rank_ratio, rank_ratio_fractional
from eigencoint.baselines import derive_stream
from eigencoint.ranksel import fit
from eigencoint.simgen import ScenarioSpec, gen_panel

# Longer lag windows stabilize the eigenvalue split when memory is weak.
J0 = 20
D = 0.7
N = 1000


def weak_memory_design():
    return ScenarioSpec(
        name="frac_weak",
        p=4,
        r=1,
        stationary_law={"kind": "uniform", "low": -0.5, "high": 0.5},
        nonstationary_blocks=({"count": 3, "d": D},),
    )


def main():
    # The expansion coefficients behind the truncated fractional filter:
    # alpha = 1 is a plain cumulative sum; smaller alpha decays, larger
    # alpha grows.
    print("fractional filter coefficients a_j(alpha), j = 0..7:")
    for alpha in (0.4, 1.0, 1.4):
        coeffs = frac_coeffs(alpha, 7)
        print(f"  alpha={alpha}: {np.round(coeffs, 4)}")

    # Persistence rises smoothly with the integration order.
    print("\nsample standard deviation of one simulated path (n=1000):")
    for d in (0.4, 0.7, 1.0, 1.4):
        x = gen_arfima(N, d, rng=derive_stream(7))
        print(f"  d={d}: sd={np.std(x):8.2f}")

    # One seeded panel: 3 components with memory d=0.7 plus 1 stationary,
    # mixed through a dense random matrix.  The eigenvalue gap is there,
    # but it is far smaller than n.
    design = weak_memory_design()
    panel = gen_panel(replace(design, n=N, seed=5))
    eigen = fit(panel.y, J0).eigen
    lam = eigen.values
    print(f"\nweak-memory panel (d={D}, true r=1): eigenvalues {np.round(lam, 2)}")
    print(f"  plain threshold      n * lambda_p          = {N * lam[-1]:10.1f}")
    print(f"  fractional threshold n^(d_min+delta-1) * lambda_p = {N ** 0.05 * lam[-1]:10.1f}")
    r_plain = rank_ratio(eigen, N)
    r_frac = rank_ratio_fractional(eigen, N, d_min=D, delta=0.35)
    print(f"  plain ratio rule:      r = {r_plain}  (absorbs slow-growth components)")
    print(f"  fractional ratio rule: r = {r_frac}")

    # Over 30 seeded panels the picture is systematic.  The price of the
    # conservative threshold shows up in designs with strong memory and
    # several stationary directions, where the plain rule is the better
    # finite-sample choice; calibration to d_min is what buys validity here.
    hits_plain = hits_frac = 0
    for panel in gen_panel([replace(design, n=N, seed=seed) for seed in range(30)]):
        eigen = fit(panel.y, J0).eigen
        hits_plain += rank_ratio(eigen, N) == 1
        hits_frac += rank_ratio_fractional(eigen, N, d_min=D, delta=0.35) == 1
    print(f"\ncorrect-rank count over 30 panels: plain {hits_plain}/30, fractional {hits_frac}/30")


if __name__ == "__main__":
    main()
