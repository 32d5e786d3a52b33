"""Closed-form references that the tests check the library against."""

import numpy as np


def fejer_delta(gamma0, k_max, theta):
    """Nonnegative kernel ``sum_{|k|<=K} (1 - |k|/K) e^{ik(theta - gamma0)}``.

    Peaks at ``theta = gamma0`` with value ``K``; its mean over the circle
    is 1 (only the zero frequency survives integration).
    """
    x = np.asarray(theta) - gamma0
    k = np.arange(1, k_max + 1)
    weights = 1.0 - k / k_max
    return 1.0 + 2.0 * np.cos(np.multiply.outer(x, k)) @ weights
