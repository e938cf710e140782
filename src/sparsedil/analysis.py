"""Exact distribution of challenge-sum coefficients and byte-overflow odds.

Each coefficient of c*s is a sum of tau independent uniforms on [-eta, eta]
(a discrete Irwin-Hall distribution). Counts are kept as exact Python
integers out of (2*eta+1)^tau equally likely outcomes, so tail masses are
exact rationals; `float()` of one is a single correctly-rounded step.
`monte_carlo_overflow` counts the same tail on seeded samples, as a
cross-check of the exact figure.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class CoeffDistribution:
    """Exact occurrence counts of the sum, indexed from `offset`."""

    offset: int          # value of the first bucket (== -tau*eta)
    counts: tuple        # arbitrary-precision integer counts

    @property
    def total(self) -> int:
        return sum(self.counts)


def exact_sum_distribution(eta: int, tau: int) -> CoeffDistribution:
    """Distribution of a sum of tau uniforms on [-eta, eta], by exact convolution."""
    if eta < 1 or tau < 1:
        raise ValueError("eta and tau must be positive")
    # np.convolve over an object array adds Python ints: exact at any size
    base = counts = np.ones(2 * eta + 1, dtype=object)
    for _ in range(tau - 1):
        counts = np.convolve(counts, base)
    return CoeffDistribution(offset=-tau * eta, counts=tuple(counts))


def tail_fraction(dist: CoeffDistribution, bound: int) -> Fraction:
    """Exact P(|u| > bound)."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    total = dist.total
    mass = sum(c for i, c in enumerate(dist.counts) if abs(i + dist.offset) > bound)
    return Fraction(mass, total)


def signature_failure_probability(p: float, count: int = 256) -> float:
    """1 - (1-p)^count, evaluated stably for tiny p via log1p/expm1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if p == 1.0:
        return 1.0
    return -math.expm1(count * math.log1p(-p))


def monte_carlo_overflow(eta: int, tau: int, bound: int, trials: int, seed: int) -> int:
    """Number of sampled tau-sums with |sum| > bound; deterministic in seed.

    The draws run in chunks of at most 2^15 sums, so memory stays bounded.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    seen = 0
    for start in range(0, trials, 1 << 15):
        sums = rng.integers(-eta, eta + 1, size=(min(trials - start, 1 << 15), tau)).sum(axis=1)
        seen += int(np.count_nonzero(np.abs(sums) > bound))
    return seen


@dataclass(frozen=True)
class OverflowReport:
    """Probability that byte-lane products wrap, at several aggregation levels.

    `per_coeff` is the exact P(|u| >= magnitude) for one coefficient,
    i.e. the chance one signed-byte lane cannot hold the value. The
    per-polynomial complement 1-(1-p)^256 is reported twice: evaluated
    directly in binary64 (`per_poly_direct`, where rounding 1-p to a
    double shifts a 1e-13-sized p by roughly 1e-4 relative) and in the
    numerically exact expm1/log1p form (`per_poly_stable`). Downstream
    comparisons against previously computed constants should use the
    direct form; new estimates should use the stable one.
    """

    per_coeff_fraction: Fraction
    per_coeff: float
    per_poly_direct: float
    per_poly_stable: float
    per_vector_stable: float | None


def overflow_report(eta: int, tau: int, magnitude: int = 128,
                    vector_len: int | None = None) -> OverflowReport:
    """Full wrap-probability analysis for byte lanes holding c*s sums.

    A signed byte holds [-128, 127]; `magnitude` is the smallest absolute
    value that no longer fits, so the per-coefficient event is
    |u| >= magnitude, equivalently |u| > magnitude - 1.
    """
    dist = exact_sum_distribution(eta, tau)
    frac = tail_fraction(dist, magnitude - 1)
    p = float(frac)
    return OverflowReport(
        per_coeff_fraction=frac,
        per_coeff=p,
        per_poly_direct=1.0 - (1.0 - p) ** 256,
        per_poly_stable=signature_failure_probability(p, 256),
        per_vector_stable=(signature_failure_probability(p, 256 * vector_len)
                           if vector_len else None),
    )
