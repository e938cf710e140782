import math
from fractions import Fraction

import numpy as np
import pytest

from sparsedil import analysis

# frozen published constants for (eta=4, tau=49) byte-lane wrap analysis
WRAP_PER_COEFF = 6.706350411547372e-14
WRAP_PER_POLY = 1.716671249596402e-11


def test_single_draw_distribution():
    d = analysis.exact_sum_distribution(1, 1)
    assert d.offset == -1
    assert d.counts == (1, 1, 1)


def test_two_draw_convolution_by_hand():
    d = analysis.exact_sum_distribution(1, 2)
    assert d.offset == -2
    assert d.counts == (1, 2, 3, 2, 1)
    assert Fraction(d.counts[0 - d.offset], d.total) == Fraction(3, 9)


def _three_loop_counts(eta, tau):
    """The plain convolution of tau uniforms on [-eta, eta]: the counts' oracle."""
    counts = [1] * (2 * eta + 1)
    for _ in range(tau - 1):
        new = [0] * (len(counts) + 2 * eta)
        for i, c in enumerate(counts):
            for j in range(2 * eta + 1):
                new[i + j] += c
        counts = new
    return tuple(counts)


@pytest.mark.parametrize("eta, tau", [(1, 1), (1, 2), (2, 39), (4, 49), (2, 60)])
def test_counts_match_the_three_loop_convolution(eta, tau):
    d = analysis.exact_sum_distribution(eta, tau)
    assert d.counts == _three_loop_counts(eta, tau)
    # Python ints, not fixed-width integers, so the counts cannot overflow
    assert all(type(c) is int for c in d.counts)


def test_mass_conservation_and_symmetry():
    for eta, tau in ((2, 39), (4, 49), (2, 60)):
        d = analysis.exact_sum_distribution(eta, tau)
        assert d.total == (2 * eta + 1) ** tau
        assert d.counts == d.counts[::-1]
        assert len(d.counts) == 2 * eta * tau + 1


def test_tail_trivials():
    d = analysis.exact_sum_distribution(2, 10)
    assert analysis.tail_fraction(d, 20) == 0        # support bound
    assert analysis.tail_fraction(d, 25) == 0
    complement = 1 - Fraction(d.counts[0 - d.offset], d.total)
    assert analysis.tail_fraction(d, 0) == complement


def test_tail_monotone_nonincreasing():
    d = analysis.exact_sum_distribution(2, 12)
    tails = [analysis.tail_fraction(d, b) for b in range(0, 25)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        analysis.exact_sum_distribution(0, 5)
    d = analysis.exact_sum_distribution(1, 1)
    with pytest.raises(ValueError):
        analysis.tail_fraction(d, -1)
    with pytest.raises(ValueError):
        analysis.signature_failure_probability(1.5)
    with pytest.raises(ValueError):
        analysis.monte_carlo_overflow(1, 1, 1, 0, 0)


def test_failure_probability_trivials():
    assert analysis.signature_failure_probability(0.0) == 0.0
    assert analysis.signature_failure_probability(1.0) == 1.0
    # tiny p: complement stays accurate where naive evaluation would not
    p = 1e-300
    assert analysis.signature_failure_probability(p, 256) == pytest.approx(256 * p, rel=1e-12)


def test_wrap_figures_reproduced():
    rep = analysis.overflow_report(4, 49, 128, vector_len=5)
    assert rep.per_coeff == pytest.approx(WRAP_PER_COEFF, rel=1e-9)
    assert rep.per_poly_direct == pytest.approx(WRAP_PER_POLY, rel=1e-6)
    # the stable evaluation of the same expression lands 9e-5 away, on the
    # 256*p side as expected for p of this size
    assert rep.per_poly_stable == pytest.approx(256 * rep.per_coeff, rel=1e-9)
    assert abs(rep.per_poly_stable - rep.per_poly_direct) / rep.per_poly_direct < 1e-4
    assert rep.per_vector_stable == pytest.approx(
        analysis.signature_failure_probability(rep.per_coeff, 256 * 5), rel=1e-12)


def test_wrap_magnitude_semantics():
    # |u| >= 128 is the byte-wrap event; strict tail at 128 is smaller
    d = analysis.exact_sum_distribution(4, 49)
    assert analysis.tail_fraction(d, 127) == analysis.overflow_report(4, 49, 128).per_coeff_fraction
    assert float(analysis.tail_fraction(d, 128)) < float(analysis.tail_fraction(d, 127))


def test_monte_carlo_small_case_matches_exact():
    trials = 200000
    seen = analysis.monte_carlo_overflow(1, 2, 1, trials, seed=7)
    p = 2 / 9
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(seen - trials * p) <= 5 * sigma


def test_monte_carlo_deterministic():
    a = analysis.monte_carlo_overflow(2, 39, 60, 50000, seed=123)
    b = analysis.monte_carlo_overflow(2, 39, 60, 50000, seed=123)
    assert a == b
    # at bound 20 about 2% of sums exceed it: three seeds agreeing on the count
    # would mean the seed is ignored
    counts = {analysis.monte_carlo_overflow(2, 39, 20, 50000, seed=s) for s in (123, 124, 125)}
    assert len(counts) > 1


def test_monte_carlo_no_exceedances_at_wrap_bound():
    # p ~ 6.7e-14: one million samples should never reach |u| >= 128
    assert analysis.monte_carlo_overflow(4, 49, 127, 10**6, seed=0) == 0


def test_histogram_agrees_with_exact_within_5_sigma():
    eta, tau, trials = 2, 5, 200000
    d = analysis.exact_sum_distribution(eta, tau)
    sums = np.random.default_rng(11).integers(-eta, eta + 1, size=(trials, tau)).sum(axis=1)
    hist = dict(zip(*(a.tolist() for a in np.unique(sums, return_counts=True))))
    checked = 0
    for value in range(d.offset, -d.offset + 1):
        p = float(Fraction(d.counts[value - d.offset], d.total))
        expected = trials * p
        if expected < 10:
            continue
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hist.get(value, 0) - expected) <= 5 * sigma, value
        checked += 1
    assert checked >= 10
