"""Instance builders shared by the test modules."""

import numpy as np

from bayesmeta import PriorParams, TaskData


def small_task(p=4, n=8, seed=0, sigma=0.3):
    """A linear-regression task with p features and n points per split."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(p, n))
    theta = rng.normal(size=p)
    return TaskData(x_tr=x, y_tr=x.T @ theta + sigma * rng.normal(size=n),
                    x_val=rng.normal(size=(p, n)), y_val=rng.normal(size=n),
                    noise_sigma=sigma)


def random_prior(p, seed=0):
    rng = np.random.default_rng(seed)
    return PriorParams(rng.normal(size=p), rng.uniform(-1, 0.5, p))
