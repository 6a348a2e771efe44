# Desk-scale benchmark run: a subset of the six-dimensional design at
# 100 replicates per cell, comparing the ratio rule with the information
# criterion.  Finishes in a few seconds and prints the same CSV the
# `eigencoint simulate` command writes.
#
# Run from the repository root:  python3 demos/benchmark_small.py

from eigencoint.harness import emit_report, preset_plan, run_plan


def main():
    plan = preset_plan(
        "example2",
        reps=100,
        cells=((6, 2), (6, 4)),
        n_grid=(300, 1000),
        estimators=("ratio", "ic_omega2"),
    )
    report = run_plan(plan)

    print("correct-rank frequency by cell:")
    print(f"  {'scenario':<10} {'n':>5}  {'ratio':>6} {'ic_omega2':>9}")
    cells = {(c.scenario, c.n, c.estimator): c for c in report.cells}
    for scenario in ("p6_r2", "p6_r4"):
        for n in (300, 1000):
            freqs = [
                cells[(scenario, n, est)].freq_correct
                for est in ("ratio", "ic_omega2")
            ]
            print(f"  {scenario:<10} {n:>5}  {freqs[0]:>6.3f} {freqs[1]:>9.3f}")

    print("\nfrequencies rise with n for both rules; the IC is the stronger")
    print("of the two when the true rank is large relative to p.")

    print("\nfull report CSV:")
    print(emit_report(report))


if __name__ == "__main__":
    main()
