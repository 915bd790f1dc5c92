"""Exact moments of the copy chain in `citecopy.copychain`, used as test oracles.

Citation i is misprinted (X_i = 1) when its own transcription is corrupted
(probability M), or when it is not corrupted, copies (probability 1 - R;
citation 0 always reads) and its uniformly chosen earlier citation is
misprinted.  With a = (1 - M)(1 - R) this gives the linear recursions

    f_0 = M,   f_i = P(X_i) = M + a * (f_0 + ... + f_{i-1}) / i,
    P(X_i X_j) = M f_i + a * (P(X_i X_0) + ... + P(X_i X_{j-1})) / j,  i < j,

since the choices made for citation j are independent of X_i.  E[T] is the
sum of the f_i.  D counts the corruption events, so it is Binomial(N, M)
and E[D] = M N.
"""

from __future__ import annotations

import math

import numpy as np

from citecopy import MisprintTally

# ensemble checks accept deviations up to this many standard deviations
Z = 4.0


def misprint_probs(n: int, read_prob: float, misprint_prob: float) -> np.ndarray:
    """f_i = P(citation i is misprinted) for i = 0 .. n-1."""
    a = (1.0 - misprint_prob) * (1.0 - read_prob)
    f = np.empty(n)
    total = 0.0
    for i in range(n):
        f[i] = misprint_prob + (a * total / i if i else 0.0)
        total += f[i]
    return f


def expected_tally(n: int, read_prob: float, misprint_prob: float) -> MisprintTally:
    """(E[D], E[T], N) rounded to counts.  At the paper's point the rounding
    moves the corrected estimate by under 0.001."""
    expected_t = float(misprint_probs(n, read_prob, misprint_prob).sum())
    return MisprintTally(round(misprint_prob * n), round(expected_t), n)


def _joint_columns(n: int, read_prob: float, misprint_prob: float):
    """Yield (j, col) for j = 1 .. n-1, where col[i] = P(X_i X_j), i < j."""
    a = (1.0 - misprint_prob) * (1.0 - read_prob)
    f = misprint_probs(n, read_prob, misprint_prob)
    # row[i] = P(X_i X_0) + ... + P(X_i X_{j-1}) at step j, for i < j
    row = np.empty(n)
    row[0] = f[0]
    for j in range(1, n):
        col = misprint_prob * f[:j] + (a / j) * row[:j]
        yield j, col
        row[:j] += col
        row[j] = col.sum() + f[j]


def joint_probs(n: int, read_prob: float, misprint_prob: float) -> np.ndarray:
    """The n x n matrix of P(X_i X_j), with f_i on the diagonal."""
    joint = np.diag(misprint_probs(n, read_prob, misprint_prob))
    for j, col in _joint_columns(n, read_prob, misprint_prob):
        joint[:j, j] = joint[j, :j] = col
    return joint


def pooled_moments(
    n: int, read_prob: float, misprint_prob: float, trials: int
) -> tuple[float, float, float, float]:
    """Mean and standard deviation of D and of T summed over `trials`
    independent chains of n citations.  The spread of T costs O(n^2)."""
    f = misprint_probs(n, read_prob, misprint_prob)
    second = f[0]  # E[T^2] = sum of P(X_i X_j) over all ordered pairs
    for j, col in _joint_columns(n, read_prob, misprint_prob):
        second += 2.0 * col.sum() + f[j]
    mean_t = float(f.sum())
    return (
        trials * n * misprint_prob,
        math.sqrt(trials * n * misprint_prob * (1.0 - misprint_prob)),
        trials * mean_t,
        math.sqrt(trials * (second - mean_t**2)),
    )
