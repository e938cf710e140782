import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_challenge, random_secret
from sparsedil import instrumentation, ring, sparse
from sparsedil.params import LEVELS, N, Q, param_set
from sparsedil.ring import Poly
from sparsedil.rounding import lowbits, norm_inf_exceeds


def lift(prod8):
    return prod8.astype(np.int64) % Q


# ---------------------------------------------------------------------------
# challenge encoding

def test_encode_trace_examples():
    c = np.zeros(N, dtype=np.int8)
    c[3], c[7] = 1, -1
    assert list(sparse.encode_challenge(c, 2)) == [1, 3, 7]
    c = np.zeros(N, dtype=np.int8)
    c[0] = 1
    assert list(sparse.encode_challenge(c, 1)) == [1, 0]


def test_encode_all_positive():
    c = np.zeros(N, dtype=np.int8)
    c[10:49] = 1
    idx = sparse.encode_challenge(c, 39)
    assert idx[0] == 39
    assert list(idx[1:]) == list(range(10, 49))


def test_encode_negatives_fill_tail_in_scan_order():
    c = np.zeros(N, dtype=np.int8)
    c[[4, 9]] = -1
    c[2] = 1
    idx = sparse.encode_challenge(c, 3)
    # slot tau holds the first-scanned negative index
    assert list(idx) == [1, 2, 9, 4]


def test_encode_rejects_bad_inputs():
    c = np.zeros(N, dtype=np.int8)
    c[0] = 2
    with pytest.raises(ValueError, match="-1, 0, 1"):
        sparse.encode_challenge(c, 1)
    c[0] = 1
    with pytest.raises(ValueError, match="weight"):
        sparse.encode_challenge(c, 2)


def test_decode_trace_examples():
    c = sparse.decode_challenge(np.array([1, 3, 7], dtype=np.uint8), 2)
    assert c[3] == 1 and c[7] == -1 and np.count_nonzero(c) == 2
    c = sparse.decode_challenge(np.array([0, 5], dtype=np.uint8), 1)
    assert c[5] == -1 and np.count_nonzero(c) == 1


def test_decode_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        sparse.decode_challenge(np.array([1, 3, 3], dtype=np.uint8), 2)


def test_roundtrip_random_challenges():
    rng = np.random.default_rng(0)
    for lv in LEVELS:
        tau = param_set(lv).tau
        for _ in range(10000 // len(LEVELS)):
            c = random_challenge(rng, tau)
            idx = sparse.encode_challenge(c, tau)
            assert int(idx[0]) == int(np.count_nonzero(c == 1))
            assert np.array_equal(sparse.decode_challenge(idx, tau), c)


# ---------------------------------------------------------------------------
# extended secret

def test_extend_secret_cases():
    zero = np.zeros(N, dtype=np.int8)
    assert np.all(sparse.extend_secret(zero, 2) == 0)
    basis = np.zeros(N, dtype=np.int8)
    basis[0] = 1
    ext = sparse.extend_secret(basis, 2)
    assert ext[0] == -1 and ext[256] == 1 and np.count_nonzero(ext) == 2


def test_extend_secret_negation_property():
    rng = np.random.default_rng(1)
    for eta in (2, 4):
        s = random_secret(rng, eta)
        ext = sparse.extend_secret(s, eta)
        assert np.all(ext[:N].astype(np.int16) + ext[N:] == 0)
        assert np.all(np.abs(ext) <= eta)


def test_extend_secret_range_check():
    s = np.zeros(N, dtype=np.int8)
    s[5] = 3
    with pytest.raises(ValueError, match=r"\[-2, 2\]"):
        sparse.extend_secret(s, 2)


# ---------------------------------------------------------------------------
# index-based multiplication (mid-level oracle)

def test_indexed_unit_challenges():
    rng = np.random.default_rng(2)
    a = Poly(rng.integers(0, Q, N))
    plus = np.zeros(N, dtype=np.int8)
    plus[0] = 1
    assert np.array_equal(sparse.sparse_mul_indexed(plus, a).coeffs, a.coeffs)
    minus = np.zeros(N, dtype=np.int8)
    minus[0] = -1
    assert np.array_equal(sparse.sparse_mul_indexed(minus, a).coeffs,
                          (-a.coeffs.astype(np.int64)) % Q)


def test_indexed_matches_schoolbook():
    rng = np.random.default_rng(3)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(200):
            c = random_challenge(rng, p.tau)
            a = Poly(rng.integers(0, Q, N))
            want = ring.schoolbook_negacyclic(Poly(c.astype(np.int64) % Q), a)
            assert np.array_equal(sparse.sparse_mul_indexed(c, a).coeffs, want.coeffs)


# ---------------------------------------------------------------------------
# packed lanes

def test_packed_lane_examples():
    assert sparse.packed_add_lanes(0, 0) == 0
    assert sparse.packed_add_lanes(0x04030201, 0x08070605) == 0x0C0A0806
    assert sparse.packed_sub_lanes(0x0C0A0806, 0x08070605) == 0x04030201
    # lane overflow wraps without touching neighbours
    assert sparse.packed_add_lanes(0x007F0000, 0x00010000) == 0x00800000
    assert sparse.packed_sub_lanes(0x00800000, 0x00010000) == 0x007F0000


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_packed_lanes_match_scalar_bytes(x, y):
    xa = np.uint32(x).tobytes()
    ya = np.uint32(y).tobytes()
    add = int(sparse.packed_add_lanes(x, y)) & 0xFFFFFFFF
    sub = int(sparse.packed_sub_lanes(x, y)) & 0xFFFFFFFF
    for lane in range(4):
        assert (add >> (8 * lane)) & 0xFF == (xa[lane] + ya[lane]) % 256
        assert (sub >> (8 * lane)) & 0xFF == (xa[lane] - ya[lane]) % 256


def test_packed_lanes_numpy_dtype():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 1 << 32, 1000, dtype=np.uint32)
    y = rng.integers(0, 1 << 32, 1000, dtype=np.uint32)
    out = sparse.packed_add_lanes(x, y)
    assert out.dtype == np.uint32
    want = (x.view(np.uint8).astype(np.int64) + y.view(np.uint8)) % 256
    assert np.array_equal(out.view(np.uint8), want.astype(np.uint8))


# ---------------------------------------------------------------------------
# branchless multiplication

def test_branchless_unit_challenges():
    rng = np.random.default_rng(5)
    s = random_secret(rng, 2)
    ext = sparse.extend_secret(s, 2)
    plus = np.array([1, 0], dtype=np.uint8)      # c = +x^0, tau = 1
    assert np.array_equal(sparse.sparse_mul_branchless(plus, ext, 1), s)
    minus = np.array([0, 0], dtype=np.uint8)     # c = -x^0
    assert np.array_equal(sparse.sparse_mul_branchless(minus, ext, 1), -s)


def test_branchless_matches_indexed():
    rng = np.random.default_rng(6)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(300):
            c = random_challenge(rng, p.tau)
            s = random_secret(rng, p.eta)
            idx = sparse.encode_challenge(c, p.tau)
            ext = sparse.extend_secret(s, p.eta)
            got = lift(sparse.sparse_mul_branchless(idx, ext, p.tau))
            want = sparse.sparse_mul_indexed(c, Poly(s.astype(np.int64) % Q)).coeffs
            if p.challenge_fits_int8:
                assert np.array_equal(got, want)
            else:
                diff = (want - got) % Q
                assert np.all((diff == 0) | (diff % 256 == 0))


def test_branchless_every_window_offset():
    # exercises every unaligned window start, including 0 and 255
    rng = np.random.default_rng(8)
    s = random_secret(rng, 4)
    ext = sparse.extend_secret(s, 4)
    for pos in (0, 1, 2, 3, 128, 253, 254, 255):
        c = np.zeros(N, dtype=np.int8)
        c[pos] = 1
        idx = sparse.encode_challenge(c, 1)
        got = lift(sparse.sparse_mul_branchless(idx, ext, 1))
        want = sparse.sparse_mul_indexed(c, Poly(s.astype(np.int64) % Q)).coeffs
        assert np.array_equal(got, want), f"offset {pos}"


def test_branchless_step_count_is_sign_independent():
    rng = np.random.default_rng(9)
    p = param_set(2)
    s = random_secret(rng, p.eta)
    ext = sparse.extend_secret(s, p.eta)
    counts = {}
    for name, signs in (("all_plus", 1), ("all_minus", -1), ("mixed", None)):
        c = np.zeros(N, dtype=np.int8)
        chosen = rng.choice(N, p.tau, replace=False)
        c[chosen] = signs if signs else rng.choice([-1, 1], p.tau)
        idx = sparse.encode_challenge(c, p.tau)
        with instrumentation.counting() as cn:
            sparse.sparse_mul_branchless(idx, ext, p.tau)
        counts[name] = cn.swar_steps
    assert counts["all_plus"] == counts["all_minus"] == counts["mixed"] == p.tau * (N // 4)


def test_level3_wrap_is_byte_exact():
    # constructed worst case: 49 aligned +1 windows over an all-4 secret
    p = param_set(3)
    c = np.zeros(N, dtype=np.int8)
    c[:p.tau] = 1
    s = np.full(N, 4, dtype=np.int8)
    idx = sparse.encode_challenge(c, p.tau)
    ext = sparse.extend_secret(s, p.eta)
    got = sparse.sparse_mul_branchless(idx, ext, p.tau)
    exact = sparse.sparse_mul_indexed(c, Poly(s.astype(np.int64) % Q)).coeffs
    centered = np.where(exact > Q // 2, exact - Q, exact)
    # where the true value is 196, the byte lane holds 196 - 256 = -60
    assert np.any(centered == 196)
    assert np.all(got[centered == 196] == -60)
    fits = np.abs(centered) <= 127
    assert np.array_equal(got[fits], centered[fits])


def swar_product(index, ext_rows, tau):
    """The paper's kernel: accumulate each window in packed 4-lane words."""
    poscnt = int(index[0])
    acc = np.zeros((ext_rows.shape[0], N // 4), dtype=np.uint32)
    for t in range(1, tau + 1):
        k = int(index[t])
        win = np.ascontiguousarray(ext_rows[:, 256 - k: 512 - k]).view(np.uint32)
        lane_op = sparse.packed_add_lanes if t <= poscnt else sparse.packed_sub_lanes
        acc = lane_op(acc, win)
    return acc.view(np.int8)


def test_gather_kernel_matches_swar_lanes():
    rng = np.random.default_rng(16)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(100):
            c = random_challenge(rng, p.tau)
            idx = sparse.encode_challenge(c, p.tau)
            exts = np.stack([sparse.extend_secret(random_secret(rng, p.eta), p.eta)
                             for _ in range(p.k)])
            got = sparse.sparse_mul_branchless_vec(idx, exts, p.tau)
            assert got.dtype == np.int8
            assert np.array_equal(got, swar_product(idx, exts, p.tau))


def test_gather_kernel_matches_swar_lanes_on_level3_wrap():
    p = param_set(3)
    c = np.zeros(N, dtype=np.int8)
    c[:p.tau] = 1
    idx = sparse.encode_challenge(c, p.tau)
    exts = np.stack([sparse.extend_secret(np.full(N, v, dtype=np.int8), p.eta)
                     for v in (4, -4, 3)])
    got = sparse.sparse_mul_branchless_vec(idx, exts, p.tau)
    want = swar_product(idx, exts, p.tau)
    assert np.array_equal(got, want)
    assert np.any(want[0] == -60)            # a true 196 held as 196 - 256


# ---------------------------------------------------------------------------
# fused operations

def _setup_vectors(rng, level, m):
    p = param_set(level)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    secrets = np.stack([random_secret(rng, p.eta) for _ in range(m)])
    exts = np.stack([sparse.extend_secret(s, p.eta) for s in secrets])
    cs = np.stack([sparse.sparse_mul_branchless(idx, e, p.tau).astype(np.int64)
                   for e in exts])
    return p, c, idx, secrets, exts, cs


def test_fused_z_zero_secret():
    rng = np.random.default_rng(10)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = np.zeros((p.l, 2 * N), dtype=np.int8)
    bound = p.gamma1 - p.beta
    y = rng.integers(-bound + 1, bound, (p.l, N))
    res = sparse.fused_z(idx, exts, y, bound)
    assert not res.rejected
    assert np.array_equal(res.z, y)
    assert res.blocks == p.l * (N // 16)


def test_fused_z_boundary_rejects():
    rng = np.random.default_rng(11)
    p, c, idx, secrets, exts, cs = _setup_vectors(rng, 2, param_set(2).l)
    bound = p.gamma1 - p.beta
    y = np.zeros((p.l, N), dtype=np.int64)
    # place the boundary value where the product contribution is >= 0
    i, j = 0, int(np.flatnonzero(cs[0] >= 0)[0])
    y[i, j] = bound - cs[0, j]
    res = sparse.fused_z(idx, exts, y, bound)
    assert res.rejected


def test_fused_r0_zero_secret():
    rng = np.random.default_rng(12)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = np.zeros((p.k, 2 * N), dtype=np.int8)
    w = rng.integers(0, Q, (p.k, N))
    res = sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta)
    direct = not norm_inf_exceeds(lowbits(w, p.alpha), p.gamma2 - p.beta)
    assert res.ok == direct
    if res.ok:
        assert np.all(res.cs2 == 0)


def test_fused_r0_constructed_boundary():
    rng = np.random.default_rng(13)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = np.zeros((p.k, 2 * N), dtype=np.int8)
    w = np.zeros((p.k, N), dtype=np.int64)
    w[0, 0] = p.gamma2 - p.beta          # LowBits == gamma2 - beta exactly
    res = sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta)
    assert not res.ok
    assert res.blocks == N // 16        # stopped after the first of k polynomials


def test_fused_paths_match_unfused_reference():
    rng = np.random.default_rng(14)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(1000 // len(LEVELS) + 1):
            m = 2
            _, c, idx, secrets, exts, cs = _setup_vectors(rng, lv, m)
            zbound = p.gamma1 - p.beta
            y = rng.integers(-p.gamma1 + 1, p.gamma1 + 1, (m, N))
            res = sparse.fused_z(idx, exts, y, zbound)
            ref_z = y + cs
            ref_rejected = norm_inf_exceeds(ref_z, zbound)
            assert res.rejected == ref_rejected
            if not res.rejected:
                assert np.array_equal(res.z, ref_z)

            w = rng.integers(0, Q, (m, N))
            r0bound = p.gamma2 - p.beta
            resr = sparse.fused_r0(idx, exts, w, p.gamma2, r0bound)
            ref_r0 = lowbits((w - cs) % Q, p.alpha)
            ref_ok = not norm_inf_exceeds(ref_r0, r0bound)
            assert resr.ok == ref_ok
            if resr.ok:
                assert np.array_equal(resr.cs2, cs)


def test_fused_early_exit_saves_blocks():
    rng = np.random.default_rng(15)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = np.zeros((p.l, 2 * N), dtype=np.int8)
    y = np.zeros((p.l, N), dtype=np.int64)
    y[0, 0] = p.gamma1 - p.beta           # first poly fails
    res = sparse.fused_z(idx, exts, y, p.gamma1 - p.beta)
    assert res.rejected and res.blocks == N // 16
