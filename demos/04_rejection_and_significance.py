#!/usr/bin/env python3
"""Selective prediction and paired significance testing.

Accepting only low-uncertainty samples (u = 2*min(p, 1-p) below a
threshold) trades coverage for accuracy; better-calibrated probabilities
make that trade-off sharper. The paired resampling test quantifies
whether the clustered ensemble's ECE advantage is systematic.
"""

import numpy as np

from clustercal.calibrators import fit
from clustercal.data import SyntheticSpec, gen_synthetic_full, split
from clustercal.ensemble import train_clustered
from clustercal.harness import paired_resample_test, rejection_selection
from clustercal.representation import assign, fit_kmeans
from clustercal.scores import ScoreSet


def main():
    spec = SyntheticSpec(3, 800, 2, (0.2, 0.5, 0.8), (2.0, -2.0, 1.0),
                         noise=1.0, seed=3)
    ds, margins, _ = gen_synthetic_full(spec)
    sp = split(ds, (0.6, 0.2, 0.2), 3)
    scores = ScoreSet.from_margins(margins)
    fit_idx = np.sort(np.concatenate([sp.train, sp.calibration]))
    cm = fit_kmeans(ds.features[fit_idx], 3, 3)

    cal_s, te_s = scores.take(sp.calibration), scores.take(sp.test)
    y_cal, y_te = ds.labels[sp.calibration], ds.labels[sp.test]
    uni = fit("platt", cal_s, y_cal)
    ccl = train_clustered(cal_s, y_cal, assign(cm, ds.features[sp.calibration]), cm, "platt",
                          uni)
    p_uni = uni.apply(te_s)
    p_ccl, _ = ccl.infer(te_s, ds.features[sp.test])

    print("rejection sweep (error among accepted samples):")
    rows = rejection_selection({"unified": p_uni, "clustered": p_ccl}, y_te)
    print(f"{'threshold':>10}{'unified':>10}{'clustered':>11}  winner")
    for r in rows:
        print(f"{r['threshold']:>10.1f}{r['errors']['unified']:>10.4f}"
              f"{r['errors']['clustered']:>11.4f}  {','.join(r['winners'])}")

    res = paired_resample_test(p_ccl, p_uni, y_te, "ece",
                               fraction=0.3, iterations=30, seed=0)
    print(f"\npaired resampling test on ECE (clustered vs unified):")
    print(f"  mean difference {res.differences.mean():+.5f}  t = {res.t_stat:.2f}")
    print(f"  one-sided p = {res.p_one_sided:.2e} (H1: clustered has lower ECE)")
    print(f"  two-sided p = {res.p_two_sided:.2e}")


if __name__ == "__main__":
    main()
