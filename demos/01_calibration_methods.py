#!/usr/bin/env python3
"""Compare global calibration methods on systematically miscalibrated scores.

A synthetic model reports margins that are both over-scaled and shifted
relative to the truth. Every method is fitted on a held-out calibration
split and scored on a test split.
"""

import numpy as np

from clustercal.calibrators import ALL_METHODS, fit, nll_of_probs
from clustercal.metrics import ece, reliability_data
from clustercal.scores import ScoreSet, sigmoid


def main():
    rng = np.random.default_rng(0)
    n = 4000
    true_logit = rng.normal(scale=1.5, size=n)
    y = (rng.uniform(size=n) < sigmoid(true_logit)).astype(int)
    margins = 2.5 * true_logit + 0.8  # overconfident and biased
    scores = ScoreSet.from_margins(margins)

    cal, te = np.arange(n // 2), np.arange(n // 2, n)
    cal_s, y_cal = scores.take(cal), y[cal]
    te_scores = scores.take(te)

    print(f"{'method':<14}{'test NLL':>10}{'test ECE':>10}")
    base_nll = nll_of_probs(te_scores.probabilities, y[te])
    base_ece = ece(te_scores.probabilities, y[te])[0]
    print(f"{'(uncalibrated)':<14}{base_nll:>10.4f}{base_ece:>10.4f}")
    for method in ALL_METHODS:
        if method == "constant":
            continue
        model = fit(method, cal_s, y_cal)
        p = model.apply(te_scores)
        print(f"{method:<14}{nll_of_probs(p, y[te]):>10.4f}{ece(p, y[te])[0]:>10.4f}")

    print("\nreliability diagram data (temperature scaling):")
    p = fit("temperature", cal_s, y_cal).apply(te_scores)
    rows, _ = reliability_data(p, y[te], 10)
    for r in rows:
        if r["count"]:
            bar = "#" * int(40 * r["obs_rate"])
            print(f"  bin {r['bin']:>2} pred={r['mean_pred']:.2f} "
                  f"obs={r['obs_rate']:.2f} n={r['count']:>4} {bar}")


if __name__ == "__main__":
    main()
