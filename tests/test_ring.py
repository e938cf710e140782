import numpy as np
import pytest

from sparsedil import instrumentation, ring
from sparsedil.params import LEVELS, N, Q, ROOT_OF_UNITY, param_set
from sparsedil.ring import Domain, Poly


def rand_poly(rng, lo=0, hi=Q):
    return Poly(rng.integers(lo, hi, N))


def test_domain_tags_enforced():
    rng = np.random.default_rng(0)
    p = rand_poly(rng)
    hat = ring.ntt(p)
    assert hat.domain == Domain.NTT
    with pytest.raises(ValueError, match="standard"):
        ring.ntt(hat)
    with pytest.raises(ValueError, match="NTT"):
        ring.inv_ntt(p)
    with pytest.raises(ValueError, match="NTT"):
        ring.pointwise_mul(p, p)
    with pytest.raises(ValueError, match="domain mismatch"):
        ring.pointwise_mul(hat, p)


def test_ntt_zero_and_basis():
    zero = Poly(np.zeros(N, dtype=np.int64))
    assert np.all(ring.ntt(zero).coeffs == 0)
    basis = np.zeros(N, dtype=np.int64)
    basis[0] = 1
    one = Poly(basis)
    assert np.array_equal(ring.inv_ntt(ring.ntt(one)).coeffs, one.coeffs)


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = rand_poly(rng)
        assert np.array_equal(ring.inv_ntt(ring.ntt(p)).coeffs, p.coeffs)


def test_inv_ntt_linearity():
    rng = np.random.default_rng(2)
    a, b = rng.integers(0, Q, (2, N))
    ah, bh = ring.ntt_values(a), ring.ntt_values(b)
    lhs = ring.intt_values((ah + bh) % Q)
    rhs = (ring.intt_values(ah) + ring.intt_values(bh)) % Q
    assert np.array_equal(lhs, rhs)


def test_pointwise_identity():
    rng = np.random.default_rng(3)
    one = np.zeros(N, dtype=np.int64)
    one[0] = 1
    one_hat = ring.ntt(Poly(one))
    p = rand_poly(rng)
    out = ring.inv_ntt(ring.pointwise_mul(ring.ntt(p), one_hat))
    assert np.array_equal(out.coeffs, p.coeffs)


def test_negacyclic_wrap():
    # x * x^255 == -1 in R_q
    x = np.zeros(N, dtype=np.int64)
    x[1] = 1
    xtop = np.zeros(N, dtype=np.int64)
    xtop[255] = 1
    out = ring.inv_ntt(ring.pointwise_mul(ring.ntt(Poly(x)), ring.ntt(Poly(xtop))))
    want = np.zeros(N, dtype=np.int64)
    want[0] = Q - 1
    assert np.array_equal(out.coeffs, want)


def test_schoolbook_identity_and_rotation():
    rng = np.random.default_rng(4)
    a = rand_poly(rng)
    one = np.zeros(N, dtype=np.int64)
    one[0] = 1
    assert np.array_equal(ring.schoolbook_negacyclic(a, Poly(one)).coeffs, a.coeffs)
    x = np.zeros(N, dtype=np.int64)
    x[1] = 1
    rotated = ring.schoolbook_negacyclic(a, Poly(x)).coeffs
    want = np.roll(a.coeffs.astype(np.int64), 1)
    want[0] = (-want[0]) % Q       # the wrapped coefficient picks up the sign
    assert np.array_equal(rotated, want % Q)


def test_schoolbook_commutes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        assert np.array_equal(ring.schoolbook_negacyclic(a, b).coeffs,
                              ring.schoolbook_negacyclic(b, a).coeffs)


def test_schoolbook_matches_naive_loops():
    # guards the convolution-based oracle with a from-first-principles one
    rng = np.random.default_rng(6)
    for _ in range(3):
        a, b = rand_poly(rng), rand_poly(rng)
        t = [0] * (2 * N)
        for i in range(N):
            ai = int(a.coeffs[i])
            for j in range(N):
                t[i + j] += ai * int(b.coeffs[j])
        want = [(t[i] - t[i + N]) % Q for i in range(N)]
        assert list(ring.schoolbook_negacyclic(a, b).coeffs) == want


def test_ntt_mul_matches_schoolbook():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        via_ntt = ring.inv_ntt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
        assert np.array_equal(via_ntt.coeffs, ring.schoolbook_negacyclic(a, b).coeffs)


def test_ntt_mul_matches_schoolbook_bulk():
    # 1e4 random pairs, transforms batched for speed
    rng = np.random.default_rng(77)
    m = 10000
    a = rng.integers(0, Q, (m, N))
    b = rng.integers(0, Q, (m, N))
    prod_hat = ring.ntt_values(a) * ring.ntt_values(b) % Q
    got = ring.intt_values(prod_hat)
    for i in range(m):
        want = ring.schoolbook_negacyclic(Poly(a[i]), Poly(b[i])).coeffs
        assert np.array_equal(got[i], want), i


def test_center_range():
    rng = np.random.default_rng(9)
    v = rng.integers(0, Q, 4096)
    c = ring.center(v)
    assert np.all(np.abs(c) <= (Q - 1) // 2)
    assert np.all((c - v) % Q == 0)


def test_poly_stack_shares_domain():
    rng = np.random.default_rng(10)
    vec = Poly(rng.integers(0, Q, (3, N)))
    hat = ring.ntt(vec)
    assert hat.domain == Domain.NTT and hat.coeffs.shape == (3, N)
    back = ring.inv_ntt(hat)
    assert np.array_equal(back.coeffs, vec.coeffs)


HALF = (Q - 1) // 2
INV_N = pow(N, -1, Q)


def _brv(i):
    return int(f"{i:08b}"[::-1], 2)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + int(c)) % Q
    return acc


def _ntt_by_definition(a, i):
    """Output i of the forward NTT: a evaluated at zeta^(2*brv(i) + 1)."""
    return _horner(a, pow(ROOT_OF_UNITY, 2 * _brv(i) + 1, Q))


def _intt_by_definition(fhat, i):
    """Output i of the inverse: 256^-1 * sum_k fhat_k * zeta^(-(2*brv(k) + 1)*i)."""
    poly = [0] * (2 * N)
    for k, v in enumerate(fhat):
        poly[2 * _brv(k) + 1] = int(v)
    return INV_N * _horner(poly, pow(ROOT_OF_UNITY, -i, Q)) % Q


def _centered_sign(v):
    return 1 if v % Q <= HALF else -1


def test_ntt_matches_definition():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, Q, (3, N))
    got = ring.ntt_values(rows)
    for r, row in enumerate(rows):
        assert [int(v) for v in got[r]] == [_ntt_by_definition(row, i) for i in range(N)]
    back = ring.intt_values(rows[0])
    assert [int(v) for v in back] == [_intt_by_definition(rows[0], i) for i in range(N)]


def test_intt_inverts_ntt_on_full_range():
    # integer values up to +-(2^49 - 1), the range every transform takes, as
    # int64 and as float64: each transform matches the definition, and the
    # other one inverts it
    rng = np.random.default_rng(12)
    top = 2**49 - 1
    x = rng.integers(-top, top, (64, N), endpoint=True)
    x[0, :4] = [-top, top, -1, 0]
    for given in (x, x.astype(np.float64)):
        for fn, inverse, definition in ((ring.ntt_values, ring.intt_values, _NTT_DEF),
                                        (ring.intt_values, ring.ntt_values, _INTT_DEF)):
            got = fn(given)
            assert np.array_equal(got, _by_definition(x, definition)), (given.dtype, fn)
            assert np.array_equal(inverse(got), x % Q), (given.dtype, fn)
    for const in (0, 1, HALF, HALF + 1, Q - 1):
        row = np.full(N, const)
        assert np.array_equal(ring.intt_values(ring.ntt_values(row)), row)


def test_every_input_dtype_transforms_as_int64():
    # int8 and int16 enter the first stage as they are, and so do int32 and
    # int64 rows within +-(q-1)/2; other int32, int64 and float64 rows are
    # centered in float64, exact below 2^49: each
    # integer dtype's full range, float64 to 2^49 - 1, and rows on either
    # side of the pass-through bound
    rng = np.random.default_rng(13)
    inputs = []
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        x = rng.integers(info.min, info.max, (3, N), endpoint=True, dtype=dtype)
        x[0, :2] = info.min, info.max
        inputs.append(x)
    top = 2**49 - 1
    x = rng.integers(-top, top, (3, N), endpoint=True).astype(np.float64)
    x[0, :4] = -top, top, -Q * (2**25), Q * (2**25) + (Q - 1) // 2
    inputs.append(x)
    for dtype in (np.int32, np.int64):
        for edges in ((-HALF, HALF), (-HALF - 1, HALF), (-HALF, HALF + 1), (0, Q - 1)):
            x = rng.integers(-HALF, HALF + 1, (3, N)).astype(dtype)
            x[0, :2] = edges
            inputs.append(x)
    for x in inputs:
        ref = x.astype(np.int64)
        for fn, definition in ((ring.ntt_values, _NTT_DEF), (ring.intt_values, _INTT_DEF)):
            got = fn(x)
            assert got.dtype == np.int64 and np.array_equal(got, fn(ref)), (x.dtype, fn)
            if x.dtype != np.float64:
                assert np.array_equal(got, _by_definition(ref, definition)), (x.dtype, fn)


@pytest.mark.parametrize("level", LEVELS)
def test_inverse_of_unreduced_products_matches_definition(level):
    # the ntt backend's c*s goes intt_values(ntt_product(c_hat, s_hat)): int64
    # products up to (q-1)^2, centered by _reduce. Operands at q - 1, and rows
    # of 0 and q - 1 that cross, checked against the int64 definition
    k = param_set(level).k
    rng = np.random.default_rng(level)
    full = np.full((k, N), Q - 1)
    mixed = np.where((np.arange(k) % 2 == 1)[:, None], full, 0)
    alternating = np.where(np.arange(N) % 2 == 1, Q - 1, 0)
    for a, b in ((full[0], full), (full[0], mixed), (alternating, full), (alternating, mixed),
                 (rng.integers(0, Q, N), rng.integers(0, Q, (k, N)))):
        for bb in (b, np.stack((b, b[::-1]))):          # (k, 256) and (2, k, 256)
            prod = ring.ntt_product(a, bb)
            assert prod.dtype == np.int64 and prod.max() <= (Q - 1) ** 2
            got = ring.intt_values(prod)
            assert got.shape == bb.shape
            assert np.array_equal(got, _by_definition(a * bb % Q, _INTT_DEF)), (a[:2], bb.shape)
    assert ring.ntt_product(full[0], full).max() == (Q - 1) ** 2


def test_transforms_leave_their_input_unchanged():
    # inputs are never mutated: float64 sums such as matvec_hat's, and the
    # uncentered int32 and int64 rows, are centered into fresh arrays
    rng = np.random.default_rng(17)
    a = rng.integers(0, Q, (2, 3, N))
    inputs = [ring.matvec_hat(a.astype(np.float64), rng.integers(0, Q, (2, 3, N))),
              rng.integers(-2**31, 2**31, (2, N)).astype(np.int32),
              rng.integers(0, Q, (2, N)),
              rng.integers(-2**40, 2**40, (2, N)).astype(np.float64)]
    for x in inputs:
        before = x.copy()
        for fn in (ring.ntt_values, ring.intt_values):
            fn(x)
            assert np.array_equal(x, before), (x.dtype, fn)


@pytest.mark.parametrize("i", [0, 1, 2, 127, 128, 200, 255])
@pytest.mark.parametrize("m", [HALF, HALF - 1], ids=["half", "odd"])
def test_worst_case_magnitude_is_exact(i, m):
    # x_j = +-m with the sign of x_j's centered weight in output i: every
    # term of output i's defining sum adds with the same sign, near 2^52 in
    # all. (q-1)/2 = 1023 * 2^12 leaves the low 12 bits of every product
    # zero; the odd m - 1 leaves none free. The stage sums themselves are
    # driven to their 2^48 bound by test_stage_sum_at_its_bound_is_exact.
    root = pow(ROOT_OF_UNITY, 2 * _brv(i) + 1, Q)
    x = np.array([m * _centered_sign(pow(root, j, Q)) for j in range(N)])
    assert int(ring.ntt_values(x)[i]) == _ntt_by_definition(x, i)
    fhat = np.array([m * _centered_sign(INV_N * pow(ROOT_OF_UNITY, -(2 * _brv(k) + 1) * i, Q))
                     for k in range(N)])
    assert int(ring.intt_values(fhat)[i]) == _intt_by_definition(fhat, i)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=str)
def test_transform_shapes_and_range(shape):
    rng = np.random.default_rng(13)
    x = rng.integers(-(1 << 40), 1 << 40, shape + (N,))
    for f in (ring.ntt_values, ring.intt_values):
        out = f(x)
        assert out.shape == x.shape and out.dtype == np.int64
        assert out.min() >= 0 and out.max() < Q
        assert np.array_equal(out.reshape(-1, N), f(x.reshape(-1, N)))


def test_transform_matrices_are_read_only():
    for m in (ring._FWD1, ring._FWD2, ring._INV1, ring._INV2):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[(0,) * m.ndim] = 0.0


def _definition_matrix(inverse=False):
    """The transform as one int64 matrix M, applied exactly as (x mod q) @ M mod q.

    Forward M[j, i] = zeta^((2*brv(i) + 1)*j); inverse M[k, i] =
    256^-1 * zeta^(-(2*brv(k) + 1)*i). Products stay below 2^46 and sums of
    256 of them below 2^54, so int64 holds them.
    """
    odd = np.array([2 * _brv(i) + 1 for i in range(N)])
    powers = np.array([pow(ROOT_OF_UNITY, e, Q) for e in range(2 * N)], dtype=np.int64)
    if inverse:
        return powers[np.outer(odd, -np.arange(N)) % (2 * N)] * INV_N % Q
    return powers[np.outer(np.arange(N), odd) % (2 * N)]


_NTT_DEF, _INTT_DEF = _definition_matrix(), _definition_matrix(inverse=True)


def _by_definition(x, m):
    x = np.asarray(x, dtype=np.int64)
    return ((x % Q).reshape(-1, N) @ m % Q).reshape(x.shape)


def test_definition_matrices_match_horner():
    rng = np.random.default_rng(14)
    x = rng.integers(0, Q, N)
    for i in (0, 1, 77, 128, 255):
        assert _by_definition(x, _NTT_DEF)[i] == _ntt_by_definition(x, i)
        assert _by_definition(x, _INTT_DEF)[i] == _intt_by_definition(x, i)


@pytest.mark.parametrize("level", LEVELS)
def test_transforms_match_definition_at_every_row_count(level):
    # the row counts the program transforms at once: the ntt backend's ntt(c),
    # k rows (keygen's t; on ntt s2, t0 and the INTT of c*s2 or c*t0), l rows
    # (keygen's s1), verify's 1 + k + l, and the 2l forward and 2k inverse
    # rows of w = A*y for a block of two masks
    p = param_set(level)
    rng = np.random.default_rng(level)
    for rows in (1, p.k, p.l, 1 + p.k + p.l, 2 * p.l, 2 * p.k):
        for x in (rng.integers(0, Q, (rows, N)), rng.integers(-HALF, HALF + 1, (rows, N))):
            assert np.array_equal(ring.ntt_values(x), _by_definition(x, _NTT_DEF))
            assert np.array_equal(ring.intt_values(x), _by_definition(x, _INTT_DEF))
    c = rng.integers(-1, 2, N).astype(np.int8)              # sign's 1-D ntt(c)
    assert np.array_equal(ring.ntt_values(c), _by_definition(c, _NTT_DEF))
    a_hat = rng.integers(0, Q, (p.k, p.l, N))
    y = rng.integers(-p.gamma1 + 1, p.gamma1 + 1, (2, p.l, N))
    want = _by_definition((a_hat * _by_definition(y, _NTT_DEF)[:, None]).sum(axis=2) % Q,
                          _INTT_DEF)
    assert np.array_equal(_w_chain(a_hat.astype(np.float64), y.astype(np.int32)), want)


def _stage_input(stage, m):
    """An input to `stage`'s transform that drives its largest stage sums.

    Each driven sum is sum(+-m * weight) with the sign of each weight, so
    about m * sum|weights|. The first stages are driven directly. A second
    stage is driven through the first: the input is built back from the
    outputs that the sign-aligned first-stage results give (each 16 x 16
    stage is invertible mod q), so the first stage reduces to exactly them.
    """
    def aligned(weights):
        # for odd m, one size at an odd weight drops to m - 1 when that is
        # needed to make the sum odd, so that it has low bits to lose
        x = np.where(weights > 0, m, -m).astype(np.int64)
        w = np.abs(weights).astype(np.int64)
        if m % 2 and m * w.sum() % 2 == 0:
            j = np.flatnonzero(w % 2)[0]
            x[j] -= np.sign(x[j])
        return x

    fwd1, fwd2, inv1, inv2 = (np.abs(x) for x in (ring._FWD1, ring._FWD2, ring._INV1, ring._INV2))
    if stage == "forward1":           # sums (j2, p) over j1; input 16*j1 + j2
        p = np.argmax(fwd1.sum(axis=1).max(axis=0))
        return ring.ntt_values, np.stack([aligned(w) for w in ring._FWD1[:, :, p]], axis=1).ravel()
    if stage == "forward2":           # sums (p, s) over j2 of first-stage results
        s = np.argmax(fwd2.sum(axis=0))
        ntt_2d = np.zeros((16, 16), dtype=np.int64)
        ntt_2d[5] = aligned(ring._FWD2[:, s]) @ ring._FWD2.astype(np.int64) % Q
        return ring.ntt_values, ring.intt_values(ntt_2d.ravel())
    if stage == "inverse1":           # sums (i2, p) over s; input 16*p + s
        i2 = np.argmax(inv1.sum(axis=1))
        return ring.intt_values, np.tile(aligned(ring._INV1[i2]), 16)
    i2, i1 = np.unravel_index(np.argmax(inv2.sum(axis=1)), (16, 16))    # sums (i2, i1) over p
    std_2d = np.zeros((16, 16), dtype=np.int64)                          # output 16*i1 + i2
    std_2d[:, i2] = aligned(ring._INV2[i2, :, i1]) @ ring._INV2[i2].astype(np.int64) % Q
    return ring.intt_values, ring.ntt_values(std_2d.ravel())


@pytest.mark.parametrize("stage", ["forward1", "forward2", "inverse1", "inverse2"])
@pytest.mark.parametrize("m", [HALF, HALF - 1], ids=["half", "odd"])
def test_stage_sum_at_its_bound_is_exact(stage, m, monkeypatch):
    # the largest stage sums that the centered stage matrices allow, between
    # 2^47 and the 2^48 bound; the odd m leaves low bits set
    fn, x = _stage_input(stage, m)
    sums = []

    def recording(a, b):
        out = np.matmul(a, b)
        sums.append(np.abs(out).max())
        return out

    monkeypatch.setattr(ring, "_product", recording)
    got = fn(x)
    largest = sums[stage.endswith("2")]
    assert 2**47 < largest < 2**48
    assert largest % 2 == m % 2
    assert np.array_equal(got, _by_definition(x, _NTT_DEF if fn is ring.ntt_values else _INTT_DEF))


def _w_chain(a_hat, y):
    """w = INTT(A o NTT(y)) as keygen, sign and verify compute it."""
    return ring.intt_values(ring.matvec_hat(a_hat, ring.ntt_values(y)))


def _matvec_by_int64(a_hat, y):
    """The int64 reference for the w chain: transform, product mod q, inverse, per vector."""
    a64 = np.asarray(a_hat, dtype=np.int64)
    return np.stack([ring.intt_values((a64 * ring.ntt_values(v)).sum(axis=1) % Q) for v in y])


@pytest.mark.parametrize("k, l, gamma1", [(4, 4, 1 << 17), (6, 5, 1 << 19), (8, 7, 1 << 19)],
                         ids=["level2", "level3", "level5"])
def test_w_chain_matches_int64_path_at_worst_case(k, l, gamma1):
    rng = np.random.default_rng(k * 10 + l)
    half = (Q - 1) // 2
    sign = rng.choice([-1, 1], (k, l, N))
    a_hat = sign * half % Q                               # centered +-(q-1)/2
    y = [rng.choice([-gamma1, gamma1], (l, N)),
         np.full((l, N), gamma1), np.full((l, N), -gamma1)]
    # y whose transform is +-(q-1)/2 with the sign of A's first row: every
    # product of that row adds (q-1)^2/4, the largest pointwise sum
    y.append(ring.center(ring.intt_values(sign[0] * half % Q)))
    y = np.stack(y).astype(np.int32)          # the signer's mask dtype
    a_float = ring.center(a_hat).astype(np.float64)
    with instrumentation.counting() as cn:
        got = _w_chain(a_float, y)
    with instrumentation.counting() as ref_cn:
        want = _matvec_by_int64(a_hat, y)
    assert got.dtype == np.int64 and got.shape == (len(y), k, N)
    assert np.array_equal(got, want)
    # the butterfly model: the reference's transforms plus k*l pointwise products
    assert cn.modmul == ref_cn.modmul + len(y) * k * l * N
    for a in (np.full((k, l, N), half), np.full((k, l, N), Q - half)):
        assert np.array_equal(_w_chain(ring.center(a).astype(np.float64), y),
                              _matvec_by_int64(a, y))
    # the signer passes A as sampled, in [0, q): q - 1 is the largest entry
    for a in (np.full((k, l, N), Q - 1), a_hat):
        assert np.array_equal(_w_chain(a.astype(np.float64), y), _matvec_by_int64(a, y))
    # keygen and verify pass A as sampled and v_hat as ntt_values returns it,
    # both uncentered: at q - 1 each sum of l = 7 products reaches 7(q-1)^2 ~ 2^48.8
    top = np.full((k, 7, N), Q - 1)
    for a, v in ((top, np.full((7, N), Q - 1)), (top, np.full((2, 7, N), Q - 1)),
                 (a_hat, ring.ntt_values(y))):
        with instrumentation.counting() as cn:
            got = ring.matvec_hat(a.astype(np.int32), v)
        want = (a * v[..., None, :, :]).sum(axis=-2)         # unreduced, int64
        assert got.dtype == np.float64 and got.shape == v.shape[:-2] + (k, N)
        assert np.array_equal(got, want)
        assert cn.modmul == a.size * (v.size // a[0].size)      # k*l*256 per vector
    # verify's c*t1 chain: A o z_hat - c_hat o t1_hat, both unreduced, into the
    # inverse transform. Rows of A and of t1_hat that are 0 or q - 1 cross, so
    # the operand reaches 7(q-1)^2 (A row q - 1, t1 row 0, l = 7) and -(q-1)^2
    # (A row 0, t1 row q - 1)
    rows = np.arange(k)
    for ll in sorted({l, 7}):
        full = np.full((k, ll, N), Q - 1)
        a_mixed = np.where((rows % 2 == 1)[:, None, None], full, 0)
        t1_mixed = np.where((rows // 2 % 2 == 1)[:, None], Q - 1, np.zeros((k, N), np.int64))
        c_mixed = np.where(np.arange(N) % 2 == 1, Q - 1, 0)
        lo = hi = 0
        for a, c_hat, t1_hat in ((full, full[0, 0], full[:, 0]), (a_mixed, full[0, 0], t1_mixed),
                                 (full, c_mixed, t1_mixed)):
            z_hat = full[0]
            with instrumentation.counting() as cn:
                prod = ring.ntt_product(c_hat, t1_hat.astype(np.int32))
            assert cn.modmul == k * N and np.array_equal(prod, c_hat * t1_hat)
            operand = ring.matvec_hat(a.astype(np.int32), z_hat) - prod
            lo, hi = min(lo, operand.min()), max(hi, operand.max())
            want = ((a * z_hat).sum(axis=1) - c_hat * t1_hat) % Q     # int64 reference
            assert np.array_equal(ring.intt_values(operand), ring.intt_values(want))
            hat = ring.pointwise_mul(Poly(np.broadcast_to(c_hat, (k, N)), Domain.NTT),
                                     Poly(t1_hat, Domain.NTT)).coeffs
            assert 0 <= hat.min() and hat.max() < Q
            assert np.array_equal(hat, c_hat * t1_hat % Q)
        assert (lo, hi) == (-(Q - 1) ** 2, ll * (Q - 1) ** 2)


def test_w_chain_random_blocks():
    rng = np.random.default_rng(21)
    for b in (1, 2, 3):
        a_hat = rng.integers(0, Q, (3, 2, N))
        y = rng.integers(-((Q - 1) // 2), (Q - 1) // 2 + 1, (b, 2, N))
        got = _w_chain(ring.center(a_hat).astype(np.float64), y)
        assert np.array_equal(got, _matvec_by_int64(a_hat, y))
