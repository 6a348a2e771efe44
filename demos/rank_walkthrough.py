# End-to-end walkthrough: simulate a mixed panel, eyeball the eigenvalue
# profile, estimate the cointegration rank three ways, and compare the
# estimated cointegration space against the generating truth.
#
# Run from the repository root:  python3 demos/rank_walkthrough.py

from dataclasses import replace

import numpy as np

from eigencoint import (
    PenaltySpec,
    dist_d1,
    fit,
    gen_panel,
    penalty,
    rank_ic,
    rank_ratio,
    split,
)
from eigencoint.harness import preset_template

N = 1000
J0 = 5
SEED = 42


def acf1(series):
    x = series - series.mean()
    return float(x[1:] @ x[:-1] / (x @ x))


def main():
    # Built-in benchmark design: 6 observed series that mix 4 independent
    # random walks with 2 stationary AR(1) components, through a dense
    # random matrix.  The true cointegration rank is therefore 2.
    panel = gen_panel(replace(preset_template("example2", 6, 2), n=N, seed=SEED))
    y = panel.y  # mixed from the latents on each read: bind it once
    print(f"panel: n={y.shape[0]}, p={y.shape[1]}, true rank r={panel.true_r}")

    fitted = fit(y, J0)
    lam = fitted.eigen.values
    print("\neigenvalue profile (log10):", np.round(np.log10(lam), 1))
    print("nonstationary directions carry eigenvalues that grow like n^2;")
    print("stationary ones stay bounded, so the profile splits into tiers.")

    # Ratio rule: count trailing eigenvalues that are small relative to
    # n * lambda_p.
    r_hat = rank_ratio(fitted.eigen, N)
    print(f"\nratio rule:              r = {r_hat}")

    # Information criterion under two penalty weights.
    for variant in ("omega1", "omega2"):
        omega = penalty(PenaltySpec(variant=variant), N, lam[-1])
        print(f"IC with {variant}:         r = {rank_ic(fitted.eigen, omega)}")

    # The last r_hat eigenvector columns span the estimated cointegration
    # space; compare it to the generating truth (scale-free, in [0, 1]).
    _, a2_hat = split(fitted, r_hat)
    print(f"\ndistance to true space:  D1 = {dist_d1(a2_hat, panel.b2):.2e}")

    # Transformed panel: the trailing columns of x_hat are the estimated
    # cointegrating errors and should look much less persistent than the
    # leading (near-integrated) columns.
    print("\nlag-1 autocorrelation of transformed series x_hat:")
    for k in range(fitted.x_hat.shape[1]):
        tag = "stationary" if k >= 6 - r_hat else "integrated"
        print(f"  column {k + 1}: {acf1(fitted.x_hat[:, k]):7.4f}   ({tag})")


if __name__ == "__main__":
    main()
