import numpy as np

from sparsedil.params import D, LEVELS, Q, param_set
from sparsedil.ring import center
from sparsedil.rounding import (decompose, highbits, hint_weight, make_hint,
                                norm_inf_exceeds, power2round, use_hint)
from sparsedil.sparse import r0_check

ALPHAS = sorted({param_set(lv).alpha for lv in LEVELS})


def test_power2round_examples():
    assert tuple(int(v) for v in power2round(0)) == (0, 0)
    assert tuple(int(v) for v in power2round(1 << D)) == (1, 0)


def test_power2round_random_reconstruction():
    rng = np.random.default_rng(0)
    r = rng.integers(0, Q, 100000)
    r1, r0 = power2round(r)
    assert np.array_equal(r1 * (1 << D) + r0, r)
    assert np.all((r0 > -(1 << (D - 1))) & (r0 <= 1 << (D - 1)))


def test_decompose_examples():
    for alpha in ALPHAS:
        r1, r0 = decompose(np.array([0]), alpha)
        assert (int(r1[0]), int(r0[0])) == (0, 0)
        # q-1 lands exactly on the fold-down branch
        r1, r0 = decompose(np.array([Q - 1]), alpha)
        assert int(r1[0]) == 0
        assert (Q - 1 - int(r0[0])) % Q in (0, Q - 1)


def test_decompose_boundary_region():
    # brute scan around the top of the range where the fold-down applies
    for alpha in ALPHAS:
        r = np.arange(Q - alpha, Q, dtype=np.int64)
        r1, r0 = decompose(r, alpha)
        assert np.all((r1 * alpha + r0 - r) % Q == 0)
        assert np.all((r0 >= -alpha // 2 - 1) & (r0 <= alpha // 2))
        assert np.all((r1 >= 0) & (r1 < (Q - 1) // alpha))


def test_decompose_random_reconstruction():
    rng = np.random.default_rng(1)
    for alpha in ALPHAS:
        r = rng.integers(0, Q, 100000)
        r1, r0 = decompose(r, alpha)
        assert np.all((r1 * alpha + r0 - r) % Q == 0)
        # the fold-down branch may push r0 one below its open bound
        assert np.all((r0 > -alpha // 2 - 2) & (r0 <= alpha // 2))
        assert np.all((r1 >= 0) & (r1 < (Q - 1) // alpha))


def test_hint_zero_perturbation():
    rng = np.random.default_rng(2)
    for alpha in ALPHAS:
        r = rng.integers(0, Q, 1000)
        h = make_hint(np.zeros_like(r), r, alpha)
        assert not h.any()
        assert np.array_equal(use_hint(h, r, alpha), highbits(r, alpha))


def test_hint_boundary_crossing():
    for alpha in ALPHAS:
        gamma2 = alpha // 2
        base = 5 * alpha + gamma2          # r0 at the very top of its range
        perturbed = base + 1               # crosses into the next bucket
        h = make_hint(np.array([-1]), np.array([perturbed]), alpha)
        assert h.tolist() == [1]
        assert use_hint(h, np.array([perturbed]), alpha).tolist() == highbits(
            np.array([base]), alpha).tolist()


def test_hint_recovery_random():
    rng = np.random.default_rng(3)
    for alpha in ALPHAS:
        gamma2 = alpha // 2
        r = rng.integers(0, Q, 100000)
        z0 = rng.integers(-gamma2, gamma2 + 1, 100000)
        perturbed = (r + z0) % Q
        h = make_hint(-z0, perturbed, alpha)
        assert np.array_equal(use_hint(h, perturbed, alpha), highbits(r, alpha))


def _two_highbits_hint(z, r, alpha):
    """The definition: a hint where adding z moves the high part of r."""
    return (highbits(r, alpha) != highbits((r + z) % Q, alpha)).astype(np.uint8)


def _hint_grids(rng, alpha):
    """(z, r) pairs with |z| <= alpha, the widest z that make_hint takes.

    First random pairs, then every bucket edge and centre +-3 (q-1 = m*alpha,
    the fold, is a centre) against z at and near 0, +-gamma2 and +-alpha.
    """
    gamma2 = alpha // 2
    yield rng.integers(-alpha, alpha + 1, 200000), rng.integers(0, Q, 200000)
    edges = np.arange(0, Q + alpha, alpha)[:, None] + [-gamma2, 0, gamma2]
    r = np.unique((edges.reshape(-1, 1) + np.arange(-3, 4)) % Q)
    z = np.concatenate([np.arange(-3, 4), np.arange(-gamma2 - 3, -gamma2 + 4),
                        np.arange(gamma2 - 3, gamma2 + 4), np.arange(-alpha, -alpha + 4),
                        np.arange(alpha - 3, alpha + 1)])
    z, r = np.meshgrid(z, r)
    yield z.reshape(-1), r.reshape(-1)


def test_make_hint_matches_two_highbits_definition():
    # the reference rule on LowBits(r) + z is exact up to |z| = alpha, past
    # the signer's |c*t0 - c*s2| <= gamma2 + beta, whether make_hint
    # decomposes r or is given low = LowBits(r) and reads r only at ties
    rng = np.random.default_rng(12)
    for alpha in ALPHAS:
        gamma2 = alpha // 2
        for z, r in _hint_grids(rng, alpha):
            want = _two_highbits_hint(z, r, alpha)
            r1, r0 = decompose(r, alpha)
            assert np.array_equal(make_hint(z, r, alpha), want)
            assert np.array_equal(make_hint(z, r, alpha, low=r0), want)
        # the edge grid, the last one, holds ties LowBits(r) + z == -gamma2
        # in the q-1 fold bucket, in bucket 0 and in the others
        tie = r0 + z == -gamma2
        assert np.any(tie & (r >= Q - gamma2)) and np.any(tie & (r <= gamma2))
        assert np.any(tie & (r1 != 0))


def test_make_hint_decomposes_at_most_once(monkeypatch):
    from sparsedil import rounding
    calls = []
    real = rounding.decompose

    def counted(r, alpha):
        calls.append(np.size(r))
        return real(r, alpha)

    monkeypatch.setattr(rounding, "decompose", counted)
    alpha = ALPHAS[0]
    gamma2 = alpha // 2
    r = np.array([gamma2 + 5, 3 * alpha, Q - 2, 7])        # Q - 2 is in the fold
    r0 = real(r, alpha)[1]
    tied = np.array([-gamma2 - r0[0], 0, -gamma2 - r0[2], 0])
    for z, want in ((np.zeros_like(r), []), (tied, [2])):
        calls.clear()
        h = make_hint(z, r, alpha, low=r0)
        assert calls == want            # with low, r is decomposed at the ties alone
        calls.clear()
        assert np.array_equal(make_hint(z, r, alpha), h)
        assert calls == [4]             # without, all of r once; its r1 serves the ties
    assert h.tolist() == [1, 0, 0, 0]   # the fold's tie keeps HighBits 0: no hint


def _dense_use_hint(h, r, alpha):
    """The full-size formula: every coefficient moves, then h picks the moved ones."""
    m = (Q - 1) // alpha
    r1, r0 = decompose(r, alpha)
    return np.where(np.asarray(h, dtype=bool), np.where(r0 > 0, (r1 + 1) % m, (r1 - 1) % m), r1)


def test_use_hint_matches_dense_formula():
    rng = np.random.default_rng(8)
    for lv in LEVELS:
        p = param_set(lv)
        r = rng.integers(0, Q, (p.k, 256))
        # the q-1 fold (r1 folds to 0 with r0 <= 0, so a hint moves it to m - 1)
        # and both ends of each bucket; the all-ones mask hints every one of them
        edges = np.array([Q - 1, Q - 2, Q - p.gamma2, Q - p.gamma2 - 1, 0, 1,
                          p.gamma2, p.gamma2 + 1, p.alpha, p.alpha - 1])
        r[0, :len(edges)] = edges
        masks = [np.zeros_like(r, dtype=np.uint8), np.ones_like(r, dtype=np.uint8)]
        for weight in range(p.omega + 1):
            h = np.zeros(r.size, dtype=np.uint8)
            h[rng.choice(r.size, weight, replace=False)] = 1
            masks.append(h.reshape(r.shape))
        for h in masks:
            h_before, r_before = h.copy(), r.copy()
            got = use_hint(h, r, p.alpha)
            assert got.shape == r.shape
            assert np.array_equal(got, _dense_use_hint(h, r, p.alpha)), (lv, int(h.sum()))
            assert np.array_equal(h, h_before) and np.array_equal(r, r_before)


def _bit_trick_decompose(r, alpha):
    """Independent decompose oracle built from shift/mask identities."""
    a1 = (r + 127) >> 7
    if alpha == 2 * ((Q - 1) // 32):
        a1 = (a1 * 1025 + (1 << 21)) >> 22
        a1 &= 15
    else:
        a1 = (a1 * 11275 + (1 << 23)) >> 24
        a1 ^= ((43 - a1) >> 63) & a1
    a0 = r - a1 * alpha
    a0 -= (((Q - 1) // 2 - a0) >> 63) & Q
    return a1, a0


def test_decompose_matches_bit_trick_oracle_exhaustively():
    # every r in [0, q), as 1-d chunks and as the (rows, 256) stacks the signer passes
    chunk = 1 << 21
    for alpha in ALPHAS:
        for start in range(0, Q, chunk):
            r = np.arange(start, min(start + chunk, Q), dtype=np.int64)
            w1, w0 = _bit_trick_decompose(r, alpha)
            for shape in ((-1,), (-1, 256) if r.size % 256 == 0 else (-1, r.size)):
                m1, m0 = decompose(r.reshape(shape), alpha)
                assert m1.shape == m0.shape == r.reshape(shape).shape
                assert np.array_equal(w1, m1.reshape(-1)) and np.array_equal(w0, m0.reshape(-1)), (
                    alpha, start, shape)


def test_r0_check_matches_lowbits_of_difference_exhaustively():
    """|LowBits(w) - d| decides as |LowBits(w - d)| for every w and every |d| <= beta.

    The signer passes LowBits(w) itself, which r0_check takes as it is;
    given w or LowBits(w), it must decide alike.
    """
    rng = np.random.default_rng(6)
    r = np.arange(Q, dtype=np.int64)
    for lv in LEVELS:
        p = param_set(lv)
        bound = p.gamma2 - p.beta           # the signer's r0 bound
        exceeds = np.concatenate([np.abs(decompose(part, p.alpha)[1]) >= bound
                                  for part in np.array_split(r, 4)])

        def rejects(w, d):
            return not r0_check(w, np.broadcast_to(d, w.shape), p.gamma2, bound).ok

        for d in (-p.beta, -p.beta + 1, -1, 0, 1, p.beta - 1, p.beta):
            want = np.roll(exceeds, d)      # want[r] = exceeds[(r - d) mod q]
            for start in range(0, Q, 1 << 21):
                w, out = r[start:start + (1 << 21)], want[start:start + (1 << 21)]
                for given in (w, decompose(w, p.alpha)[1]):
                    # one call accepts every in-bound w; each out-of-bound w rejects alone
                    assert not rejects(given[~out], np.int16(d)), (lv, d, start)
                    assert all(rejects(x, np.int16(d)) for x in given[out, None]), (lv, d, start)
        # a seeded sample of every other offset, one per w
        w = rng.integers(0, Q, 1 << 18)
        d = rng.integers(-p.beta, p.beta + 1, w.size)
        want = exceeds[(w - d) % Q]
        for given in (w, decompose(w, p.alpha)[1]):
            assert not rejects(given[~want], d[~want]), lv
            assert all(rejects(given[i:i + 1], d[i:i + 1]) for i in np.flatnonzero(want)), lv
        # one w per call, so every accepted w is also the worst coefficient:
        # each w within beta + 2 of a multiple of gamma2 or of q - gamma2
        g = p.gamma2
        near = np.arange(-p.beta - 2, p.beta + 3)
        w = np.concatenate([j + near for j in (g, 2 * g, 3 * g, Q - g)] + [Q - 1 - near[near >= 0]])
        for d in (-p.beta, 0, p.beta):
            for given in (w, decompose(w, p.alpha)[1]):
                got = [rejects(x, np.int16(d)) for x in given[:, None]]
                assert got == exceeds[(w - d) % Q].tolist(), (lv, d)
    # the q-1 fold pushes exactly r = q - bound over the bound
    assert rejects(np.array([Q - bound]), 0)
    assert not rejects(np.array([Q - bound + 1]), 0)
    assert rejects(decompose(np.array([Q - bound]), p.alpha)[1], 0)


def test_lowbits_is_the_identity_on_its_range():
    # r0_check takes a w inside [-gamma2, gamma2] as LowBits(w) already; every
    # LowBits output, the -gamma2 of the q-1 fold included, lies there and
    # decomposes to itself
    r = np.arange(Q, dtype=np.int64)
    for alpha in ALPHAS:
        r0 = decompose(r, alpha)[1]
        assert r0.min() == -alpha // 2 and r0.max() == alpha // 2
        assert np.array_equal(decompose(r0 % Q, alpha)[1], r0)


def test_lowbits_matches_decompose():
    # LowBits is decompose's second part: r - HighBits(r) * alpha, centered mod q
    rng = np.random.default_rng(4)
    r = np.concatenate((rng.integers(0, Q, 1000), np.arange(Q - 2 * max(ALPHAS), Q)))
    for alpha in ALPHAS:
        r1, r0 = decompose(r, alpha)
        assert np.array_equal(center(r - r1 * alpha), r0)
        assert np.array_equal(highbits(r, alpha), r1)


def test_norm_inf_exceeds():
    assert not norm_inf_exceeds(np.zeros(10, dtype=np.int64), 1)
    v = np.zeros(10, dtype=np.int64)
    v[3] = 7
    assert norm_inf_exceeds(v, 7)          # boundary is rejected
    assert not norm_inf_exceeds(v, 8)
    # a negative coefficient counts by its magnitude
    v[3] = -7
    assert norm_inf_exceeds(v, 7)
    assert not norm_inf_exceeds(v, 8)


def test_norm_matches_direct_max():
    rng = np.random.default_rng(5)
    half = (Q - 1) // 2
    for _ in range(200):
        v = rng.integers(-half, half + 1, 512)
        bound = int(rng.integers(1, Q // 2))
        direct = int(np.max(np.abs(v)))
        assert norm_inf_exceeds(v, bound) == (direct >= bound)


def test_norm_inf_exceeds_matches_centered_magnitude():
    half = (Q - 1) // 2
    rng = np.random.default_rng(7)
    cases = [np.array(v, dtype=dt) for dt in (np.int8, np.int32, np.int64)
             for v in ([0, 5, -7], [-128, 127], [-1, 0, 1])]
    cases += [np.array(v, dtype=dt) for dt in (np.int32, np.int64)
              for v in ([half, 3], [-half, 3], [-half, half], [1 - half, 0], [0, half - 1])]
    cases += [rng.integers(-half, half + 1, 300), rng.integers(-half, half + 1, 300).astype(np.int32),
              rng.integers(-half, -half // 2, 300)]      # all negative
    for v in cases:
        top = int(np.max(np.abs(v.astype(np.int64))))
        for bound in {1, 7, 128, top - 1, top, top + 1, half, half + 1}:
            if bound >= 1:
                assert norm_inf_exceeds(v, bound) == (top >= bound), (v, bound)
    # +-bound itself is rejected, one inside is not, in every lane type
    for dt in (np.int8, np.int32, np.int64):
        for sign in (1, -1):
            v = np.array([0, sign * 100], dtype=dt)
            assert norm_inf_exceeds(v, 100) and not norm_inf_exceeds(v, 101)
    assert not norm_inf_exceeds(np.zeros(0, dtype=np.int64), 1)


def test_hint_weight():
    h = np.zeros((4, 256), dtype=np.uint8)
    h[1, 10] = 1
    h[3, 200] = 1
    assert hint_weight(h) == 2
