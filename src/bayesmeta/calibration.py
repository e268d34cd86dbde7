"""Expected and maximum calibration error over equal-width confidence bins."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def ece_mce(probs: np.ndarray, labels: np.ndarray, n_bins: int = 10
            ) -> Dict[str, float]:
    """Calibration metrics from predictive class probabilities.

    probs: (N, C) predicted probabilities per example; labels: (N,) true
    class indices. Confidence is the max probability, a prediction is correct
    when its argmax matches the label. Bins are equal-width on (0, 1]; empty
    bins contribute nothing (ECE weights them by zero, MCE skips them).

    ECE = sum_b (n_b / N) |acc_b - conf_b|, MCE = max_b |acc_b - conf_b|.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("probs must be (N, C) matching labels")
    n = probs.shape[0]
    if n == 0:
        raise ValueError("no predictions")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    # bin index in 0..n_bins-1; confidence 1.0 lands in the top bin
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    ece = 0.0
    mce = 0.0
    any_bin = False
    for b in range(n_bins):
        mask = idx == b
        n_b = int(mask.sum())
        if n_b == 0:
            continue
        any_bin = True
        gap = abs(correct[mask].mean() - conf[mask].mean())
        ece += (n_b / n) * gap
        mce = max(mce, gap)
    if not any_bin:
        raise ValueError("all calibration bins are empty")
    return {"ece": float(ece), "mce": float(mce), "n": n, "n_bins": n_bins}


def posterior_predictive_probs(model, v, data, mc_budget: int, seed: int
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Validation-split class probabilities averaged over posterior samples.

    Returns (probs (N, C), labels (N,)).
    """
    x, y = data.split("val")
    theta, _, _ = model._sample(v.mean[None], v.log_var[None], mc_budget,
                                [seed])
    out, _, _ = model._forward(theta[0], x)  # (S, C, N)
    z = out - out.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    probs = p.mean(axis=0).T  # (N, C)
    return probs, y.astype(int)
