import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_challenge, random_secret
from sparsedil import ring, sparse
from sparsedil.params import LEVELS, N, Q, param_set
from sparsedil.ring import Poly
from sparsedil.rounding import decompose, norm_inf_exceeds


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


def test_roundtrip_random_challenges():
    rng = np.random.default_rng(0)
    for lv in LEVELS:
        tau = param_set(lv).tau
        for _ in range(10000 // len(LEVELS)):
            c = random_challenge(rng, tau)
            idx = sparse.encode_challenge(c, tau)
            poscnt = int(idx[0])
            assert poscnt == int(np.count_nonzero(c == 1))
            assert len(set(idx[1:].tolist())) == tau
            rebuilt = np.zeros(N, dtype=np.int8)
            rebuilt[idx[1:1 + poscnt]] = 1
            rebuilt[idx[1 + poscnt:]] = -1
            assert np.array_equal(rebuilt, c)


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
    # a whole vector in one call equals widening it row by row
    rows = random_secret(rng, 4, (6, N))
    ext = sparse.extend_secret(rows, 4)
    assert ext.shape == (6, 2 * N) and ext.dtype == np.int8
    assert np.array_equal(ext, np.stack([sparse.extend_secret(r, 4) for r in rows]))


def test_extend_secret_range_check():
    s = np.zeros(N, dtype=np.int8)
    s[5] = 3
    with pytest.raises(ValueError, match=r"\[-2, 2\]"):
        sparse.extend_secret(s, 2)
    s[5] = -128                          # |-128| wraps to -128 in int8
    with pytest.raises(ValueError, match=r"\[-2, 2\]"):
        sparse.extend_secret(s, 2)


def test_signing_layout_matches_extend_secret():
    # signing_layout trusts its input's range (unpack_eta checked it) and
    # otherwise builds the layout that extend_secret builds, in the lane width
    rng = np.random.default_rng(15)
    for lv in LEVELS:
        p = param_set(lv)
        s = rng.integers(-p.eta, p.eta + 1, (p.l + p.k, N))
        s[0, :2] = (-p.eta, p.eta)
        got = sparse.signing_layout(s, p.eta, p.tau)
        assert got.dtype == (np.int8 if p.challenge_fits_int8 else np.int16)
        assert np.array_equal(got, sparse.extend_secret(s, p.eta))
        # one row and a stack of stacks are window-major too
        for rows in (s[0], s.reshape(1, -1, N)):
            layout = sparse.signing_layout(rows, p.eta, p.tau)
            assert layout.T.flags.c_contiguous
            assert np.array_equal(layout, sparse.extend_secret(rows, p.eta))


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["row", "rows", "stack"])
def test_built_rows_are_read_in_place(shape):
    # both builders return rows whose .T is C-contiguous, so the gather's
    # window view is taken without a copy, in every lane width
    rng = np.random.default_rng(16)
    s = random_secret(rng, 2, shape + (N,))
    built = [sparse.extend_secret(s, 2)]
    built += [sparse.signing_layout(s, bound, 39) for bound in (2, 4, 1 << 12)]
    assert [ext.dtype for ext in built] == [np.int8, np.int8, np.int16, np.int32]
    for ext in built:
        assert ext.shape == shape + (2 * N,) and ext.T.flags.c_contiguous
        assert np.shares_memory(sparse._window_view(ext), ext)
        assert np.array_equal(ext, np.concatenate((-s, s), axis=-1))


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
        cases = [(random_challenge(rng, p.tau), random_secret(rng, p.eta)) for _ in range(300)]
        if not p.challenge_fits_int8:
            # the negative worst case: aligned -1s over an all-eta secret give -196,
            # held in a byte lane as 60
            worst = np.zeros(N, dtype=np.int8)
            worst[:p.tau] = -1
            cases.append((worst, np.full(N, p.eta, dtype=np.int8)))
        for c, s in cases:
            idx = sparse.encode_challenge(c, p.tau)
            ext = sparse.extend_secret(s, p.eta)
            got = lift(sparse.sparse_mul_branchless(idx, ext, p.tau))
            want = sparse.sparse_mul_indexed(c, Poly(s.astype(np.int64) % Q)).coeffs
            if p.challenge_fits_int8:
                assert np.array_equal(got, want)
            else:
                # a wrapped lane is off by 256 either way
                assert np.all(np.isin(ring.center(want - got), (-256, 0, 256)))
        # the same kernel takes a (rows, 512) stack, row for row the one-row results
        secrets = np.stack([s for _, s in cases])
        exts = sparse.extend_secret(secrets, p.eta)
        rows = np.stack([sparse.sparse_mul_branchless(idx, sparse.extend_secret(s, p.eta), p.tau)
                         for s in secrets])
        assert np.array_equal(sparse.sparse_mul_branchless(idx, exts, p.tau), rows)


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


def test_window_view_of_non_contiguous_stack():
    rng = np.random.default_rng(9)
    ext = sparse.extend_secret(random_secret(rng, 2, (6, N)), 2)
    view = sparse._window_view(ext)
    # window-major: one (256, rows) block per window start
    assert view.shape == (N + 1, N, 6)
    assert np.array_equal(view[N - 5], ext[:, N - 5:2 * N - 5].T)    # window of index 5
    assert not view.flags.writeable
    # rows whose .T is C-contiguous are viewed in place; row-major and strided rows
    # are refused, not copied
    assert np.shares_memory(view, ext)
    for rows in (np.ascontiguousarray(ext), ext[::2], ext[0]):
        with pytest.raises(ValueError, match="window-major"):
            sparse._window_view(rows)
    # a (2, 3) stack is viewed as its six rows, last axis first
    ext = sparse.extend_secret(random_secret(rng, 2, (2, 3, N)), 2)
    stack = sparse._window_view(ext)
    assert stack.shape == (N + 1, N, 6)
    assert np.array_equal(stack[N - 5].T.reshape(3, 2, N).transpose(1, 0, 2),
                          ext[..., N - 5:2 * N - 5])


# lanes and coefficient bound of each signing layout: secrets at levels 2 and 5,
# at level 3, and t0
_LANES = [(2, np.int8, 2), (3, np.int16, 4), (5, np.int8, 2), (2, np.int32, 1 << 12)]


@given(st.sampled_from(_LANES), st.sampled_from([(), (3,), (2, 3)]),
       st.integers(0, 2**32 - 1))
def test_kernel_bytes_do_not_depend_on_memory_order(lanes, shape, seed):
    level, dtype, bound = lanes
    tau = param_set(level).tau
    rng = np.random.default_rng(seed)
    c = random_challenge(rng, tau)
    idx = sparse.encode_challenge(c, tau)
    s = rng.integers(-bound, bound + 1, shape + (N,))
    ext = sparse.signing_layout(s, bound, tau)
    prod = sparse.sparse_mul_branchless_vec(idx, ext, tau)
    assert ext.dtype == prod.dtype == dtype and prod.shape == shape + (N,)
    want = [sparse.sparse_mul_indexed(c, Poly(row % Q)).coeffs for row in s.reshape(-1, N)]
    assert np.array_equal(lift(prod).reshape(-1, N), want)
    # strided rows, and row-major stacks (one row is both orders), are refused
    strided = np.zeros(shape + (4 * N,), dtype)[..., ::2]
    strided[...] = ext
    for rows in [strided] + ([np.ascontiguousarray(ext)] if shape else []):
        with pytest.raises(ValueError, match="window-major"):
            sparse.sparse_mul_branchless_vec(idx, rows, tau)


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
            exts = sparse.extend_secret(np.stack([random_secret(rng, p.eta)
                                                  for _ in range(p.k)]), p.eta)
            got = sparse.sparse_mul_branchless_vec(idx, exts, p.tau)
            assert got.dtype == np.int8
            assert np.array_equal(got, swar_product(idx, exts, p.tau))


def test_gather_kernel_matches_swar_lanes_on_level3_wrap():
    p = param_set(3)
    c = np.zeros(N, dtype=np.int8)
    c[:p.tau] = 1
    idx = sparse.encode_challenge(c, p.tau)
    exts = sparse.extend_secret(np.stack([np.full(N, v, dtype=np.int8) for v in (4, -4, 3)]),
                                p.eta)
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
    exts = sparse.extend_secret(secrets, p.eta)
    cs = np.stack([sparse.sparse_mul_branchless(idx, sparse.extend_secret(s, p.eta), p.tau)
                   .astype(np.int64) for s in secrets])
    return p, c, idx, secrets, exts, cs


def test_fused_z_zero_secret():
    rng = np.random.default_rng(10)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = sparse.extend_secret(np.zeros((p.l, N), dtype=np.int8), p.eta)
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
    exts = sparse.extend_secret(np.zeros((p.k, N), dtype=np.int8), p.eta)
    w = rng.integers(0, Q, (p.k, N))
    res = sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta)
    direct = not norm_inf_exceeds(decompose(w, p.alpha)[1], p.gamma2 - p.beta)
    assert res.ok == direct
    if res.ok:
        assert np.all(res.cs2 == 0)


def test_fused_r0_constructed_boundary():
    rng = np.random.default_rng(13)
    p = param_set(2)
    c = random_challenge(rng, p.tau)
    idx = sparse.encode_challenge(c, p.tau)
    exts = sparse.extend_secret(np.zeros((p.k, N), dtype=np.int8), p.eta)
    w = np.zeros((p.k, N), dtype=np.int64)
    w[0, 0] = p.gamma2 - p.beta          # LowBits == gamma2 - beta exactly
    res = sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta)
    assert not res.ok
    assert res.blocks == p.k * (N // 16)    # the whole vector is checked at once
    # one below the bound passes; the bound in the last row alone fails
    w[0, 0] -= 1
    assert sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta).ok
    w[-1, -1] = p.alpha + p.gamma2 - p.beta
    assert not sparse.fused_r0(idx, exts, w, p.gamma2, p.gamma2 - p.beta).ok


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
            ref_r0 = decompose((w - cs) % Q, p.alpha)[1]
            ref_ok = not norm_inf_exceeds(ref_r0, r0bound)
            assert resr.ok == ref_ok
            if resr.ok:
                assert np.array_equal(resr.cs2, cs)


# ---------------------------------------------------------------------------
# refused input forms: the gather takes only the builders' rows and
# encode_challenge's lists, and the builders only what a lane holds

def _level2_rows(rng):
    p = param_set(2)
    idx = sparse.encode_challenge(random_challenge(rng, p.tau), p.tau)
    return p, idx, sparse.extend_secret(random_secret(rng, p.eta, (p.l, N)), p.eta)


def test_gather_refuses_plus_count_above_tau():
    p, idx, exts = _level2_rows(np.random.default_rng(17))
    idx[0] = p.tau + 1                   # every window would be read as +1
    with pytest.raises(ValueError, match="count"):
        sparse.sparse_mul_branchless_vec(idx, exts, p.tau)


def test_gather_refuses_index_list_not_uint8():
    p, idx, exts = _level2_rows(np.random.default_rng(18))
    wide = idx.astype(np.int64)
    wide[1] = 300                        # a uint8 cast would read window 44
    with pytest.raises(ValueError, match="uint8"):
        sparse.sparse_mul_branchless_vec(wide, exts, p.tau)


def test_fused_checks_refuse_truncated_index_list():
    p = param_set(2)
    c = np.zeros(N, dtype=np.int8)
    c[:20], c[20:p.tau] = 1, -1          # 20 +1 entries, more than the 9 left
    idx = sparse.encode_challenge(c, p.tau)[:10]
    rng = np.random.default_rng(19)
    s = sparse.extend_secret(random_secret(rng, p.eta, (p.k, N)), p.eta)
    with pytest.raises(ValueError, match="count"):
        sparse.fused_z(idx, s[:p.l], np.zeros((p.l, N), np.int64), p.gamma1 - p.beta)
    with pytest.raises(ValueError, match="count"):
        sparse.fused_r0(idx, s, np.zeros((p.k, N), np.int64), p.gamma2, p.gamma2 - p.beta)


def test_extend_secret_refuses_non_integer_secret():
    with pytest.raises(ValueError, match="integer"):
        sparse.extend_secret(np.full(N, 1.5), 2)


def test_signing_layout_refuses_lanes_past_int32():
    # tau * bound = 2^32: no lane holds the sums
    with pytest.raises(ValueError, match="int32"):
        sparse.signing_layout(np.full(N, 1 << 20), 1 << 20, 4096)


def test_gather_refuses_row_major_rows():
    p, idx, exts = _level2_rows(np.random.default_rng(20))
    with pytest.raises(ValueError, match="window-major"):
        sparse.sparse_mul_branchless_vec(idx, np.ascontiguousarray(exts), p.tau)
