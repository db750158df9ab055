"""Set-based support metrics used as a reference oracle for the mask-based ones.

A copy of the formulas that ``metrics.fdr_power``, ``metrics.pooled_fdr_power``
and ``screening.symm_diff_ratio`` replaced: each support is a set of unit
indices, and the pooled metric counts sets of ``(factor, unit)`` cells. It
shares no code with the package.
"""

import numpy as np


def mask(n, *columns):
    """The n x len(columns) boolean mask whose column k holds the units in ``columns[k]``."""
    out = np.zeros((n, len(columns)), dtype=bool)
    for k, units in enumerate(columns):
        out[list(units), k] = True
    return out


def column_sets(mask):
    """The supports of an N x r boolean mask, one frozenset of row indices per column."""
    return [frozenset(i for i, row in enumerate(mask) if row[k]) for k in range(len(mask[0]))]


def fdr_power(true_support, est_support):
    s, sh = frozenset(true_support), frozenset(est_support)
    fdp = len(sh - s) / max(len(sh), 1)
    power = len(sh & s) / max(len(s), 1)
    return fdp, power


def pooled_fdr_power(true_supports, est_supports):
    s = {(k, i) for k, sup in enumerate(true_supports) for i in sup}
    sh = {(k, i) for k, sup in enumerate(est_supports) for i in sup}
    fdp = len(sh - s) / max(len(sh), 1)
    power = len(sh & s) / max(len(s), 1)
    return fdp, power


def symm_diff_ratio(true_support, est_support, alpha, n):
    return len(frozenset(true_support) ^ frozenset(est_support)) / n**alpha
