"""Command-line front end: key and signature files, self-tests, benchmarks,
and the byte-overflow probability analysis.

Exit codes: 0 success / signature accepted, 1 signature rejected,
2 usage or I/O error, 3 self-test failure.

`sign` signs on the default backend, sparse_fused; every backend signs the
same bytes. Status lines go to stderr, so a key or signature written to `-`
(stdout) is only its bytes.
"""

import argparse
import binascii
import os
import sys
import traceback

import numpy as np

from . import analysis, bench, codec, ring, rounding, scheme, sparse
from .params import D, LEVELS, N, Q, ROOT_OF_UNITY, param_set
from .scheme import Backend

_BACKEND_CHOICES = tuple(b.value.replace("_", "-") for b in Backend)


class CliError(Exception):
    """Operational failure reported with exit code 2."""


def _read_file(path: str, hex_mode: bool) -> bytes:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as e:
        raise CliError(str(e))
    if hex_mode:
        try:
            data = binascii.unhexlify(data.strip())
        except (binascii.Error, ValueError) as e:
            raise CliError(f"invalid hex in {path}: {e}")
    return data


def _write_file(path: str, data: bytes, hex_mode: bool) -> None:
    payload = binascii.hexlify(data) + b"\n" if hex_mode else data
    try:
        if path == "-":
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            with open(path, "wb") as fh:
                fh.write(payload)
    except OSError as e:
        raise CliError(str(e))


def _require_parent_dirs(*paths: str) -> None:
    for p in paths:
        if p == "-":
            continue
        parent = os.path.dirname(os.path.abspath(p))
        if not os.path.isdir(parent):
            raise CliError(f"output directory does not exist: {parent}")


def cmd_keygen(args) -> int:
    params = param_set(args.level)
    if args.seed is not None:
        try:
            seed = binascii.unhexlify(args.seed)
        except binascii.Error as e:
            raise CliError(f"invalid hex seed: {e}")
        if len(seed) != 32:
            raise CliError(f"seed must be 32 bytes (64 hex chars), got {len(seed)}")
    else:
        seed = os.urandom(32)
    _require_parent_dirs(args.pk, args.sk)
    pk, sk = scheme.keygen(params, seed)
    _write_file(args.pk, pk, args.hex)
    _write_file(args.sk, sk, args.hex)
    print(f"level {args.level}: wrote {len(pk)}-byte public key to {args.pk}, "
          f"{len(sk)}-byte secret key to {args.sk}", file=sys.stderr)
    if args.seed is None:
        print(f"seed: {seed.hex()}", file=sys.stderr)
    return 0


def cmd_sign(args) -> int:
    sk = _read_file(args.sk, args.hex)
    level = codec.level_for_sk(sk)
    params = param_set(level)
    message = _read_file(args.msg, hex_mode=False)
    _require_parent_dirs(args.out)
    sig = scheme.sign(params, sk, message, randomized=args.randomized)
    _write_file(args.out, sig, args.hex)
    print(f"level {level} / {scheme.default_backend(level).value}: "
          f"wrote {len(sig)}-byte signature to {args.out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    pk = _read_file(args.pk, args.hex)
    level = codec.level_for_pk(pk)
    params = param_set(level)
    message = _read_file(args.msg, hex_mode=False)
    sig = _read_file(args.sig, args.hex)
    if scheme.verify(params, pk, message, sig):
        print("signature OK")
        return 0
    print("signature REJECTED", file=sys.stderr)
    return 1


def _selftest_sections(levels, trials, rng):
    """Yield (name, callable) pairs; each callable raises on failure."""

    def swar_exhaustive():
        a = np.arange(256, dtype=np.uint32)
        x, y = np.meshgrid(a, a)
        added = sparse.packed_add_lanes(x, y) & 0xFF
        subbed = sparse.packed_sub_lanes(x, y) & 0xFF
        want_add = (x.astype(np.int64) + y) % 256
        want_sub = (x.astype(np.int64) - y) % 256
        if not (np.array_equal(added, want_add) and np.array_equal(subbed, want_sub)):
            raise AssertionError("single-lane packed add/sub mismatch")
        words = rng.integers(0, 1 << 32, size=(100000, 2), dtype=np.uint64).astype(np.uint32)
        got = sparse.packed_add_lanes(words[:, 0], words[:, 1])
        lanes = words.view(np.int8).reshape(-1, 2, 4)
        want = (lanes[:, 0].astype(np.int16) + lanes[:, 1]).astype(np.int8)
        if not np.array_equal(got.view(np.int8).reshape(-1, 4), want):
            raise AssertionError("4-lane packed add mismatch")

    yield "swar-lanes", swar_exhaustive

    def ntt_exactness():
        # Each transform runs two 16-point stages (see ring). Inputs of size
        # (q-1)/2 or one less, signed like their first-stage weights, drive 16
        # first-stage sums toward the 2^48 bound, exact only if every product
        # keeps all 53 bits; the random odd sizes leave low bits to lose. The
        # outputs that those sums feed are compared with their definition.
        half, inv_n = (Q - 1) // 2, pow(N, -1, Q)
        zeta = [pow(ROOT_OF_UNITY, e, Q) for e in range(2 * N)]
        brv4 = [int(f"{k:04b}"[::-1], 2) for k in range(16)]
        brv = [brv4[i // 16] + 16 * brv4[i % 16] for i in range(N)]

        def aligned(weights):
            sizes = half - rng.integers(0, 2, N)
            return [int(m) if w <= half else -int(m) for w, m in zip(weights, sizes)]

        for g in (1, 6, 15):
            # forward: x_j, j = 16*j1 + j2, adds zeta^((2*brv4(g) + 1)*j) to the
            # first-stage sum (j2, g), which feeds outputs 16*g + s
            x = aligned([zeta[(2 * brv4[g] + 1) * j % (2 * N)] for j in range(N)])
            # inverse: input 16*p + s adds zeta^(-32*brv4(s)*g) to the
            # first-stage sum (g, p), which feeds outputs 16*i1 + g
            f = aligned([zeta[-32 * brv4[k % 16] * g % (2 * N)] for k in range(N)])
            for name, fn, v, outputs, weight in (
                    ("ntt", ring.ntt_values, x, range(16 * g, 16 * g + 16),
                     lambda i, j: zeta[(2 * brv[i] + 1) * j % (2 * N)]),
                    ("intt", ring.intt_values, f, range(g, N, 16),
                     lambda i, k: inv_n * zeta[-(2 * brv[k] + 1) * i % (2 * N)])):
                got = fn(np.array(v))
                for i in outputs:
                    if got[i] != sum(a * weight(i, j) for j, a in enumerate(v)) % Q:
                        raise AssertionError(f"{name} output {i} differs from its definition")

    yield "ntt-exactness", ntt_exactness

    for level in levels:
        p = param_set(level)

        def oracle_chain(p=p):
            for t in range(trials + 1):
                c = np.zeros(N, dtype=np.int8)
                if t == trials:
                    # the largest product: tau aligned +1s over an all-eta secret
                    c[:p.tau] = 1
                    s = np.full(N, p.eta, dtype=np.int8)
                else:
                    pos = rng.choice(N, p.tau, replace=False)
                    c[pos] = rng.choice([-1, 1], p.tau)
                    s = rng.integers(-p.eta, p.eta + 1, N).astype(np.int8)
                a = ring.Poly(s.astype(np.int64) % Q)
                want = ring.schoolbook_negacyclic(ring.Poly(c.astype(np.int64) % Q), a).coeffs
                got_ntt = ring.inv_ntt(ring.pointwise_mul(
                    ring.ntt(ring.Poly(c.astype(np.int64) % Q)), ring.ntt(a))).coeffs
                if not np.array_equal(want, got_ntt):
                    raise AssertionError("ntt product disagrees with schoolbook")
                got_idx = sparse.sparse_mul_indexed(c, a).coeffs
                if not np.array_equal(want, got_idx):
                    raise AssertionError("index-based product disagrees with schoolbook")
                idx = sparse.encode_challenge(c, p.tau)
                # the lanes the signer multiplies must be exact at every level
                signing = codec.signing_layout(s, p.eta, p)
                got = sparse.sparse_mul_branchless(idx, signing, p.tau).astype(np.int64) % Q
                if not np.array_equal(want, got):
                    raise AssertionError(
                        "branchless product on the signing layout disagrees with schoolbook")
                # the paper's int8 lanes: exact where tau*eta fits a byte, else wrap-bounded
                ext = sparse.extend_secret(s, p.eta)
                got8 = sparse.sparse_mul_branchless(idx, ext, p.tau).astype(np.int64) % Q
                if p.challenge_fits_int8:
                    if not np.array_equal(want, got8):
                        raise AssertionError("branchless product disagrees with index-based")
                else:
                    # a wrapped lane is off by 256 either way
                    if not np.all(np.isin(ring.center(want - got8), (-256, 0, 256))):
                        raise AssertionError("branchless product differs beyond byte wrap")
                if t == trials:
                    # the signer's t0 lanes at t0 = 2^12: tau*2^12 is beyond int16
                    t0 = ring.Poly(np.full(N, 1 << (D - 1)))
                    want = ring.schoolbook_negacyclic(ring.Poly(c.astype(np.int64) % Q), t0).coeffs
                    got = sparse.sparse_mul_branchless(
                        idx, codec.signing_layout(t0.coeffs, 1 << (D - 1), p), p.tau)
                    if not np.array_equal(want, got.astype(np.int64) % Q):
                        raise AssertionError("t0 lane product disagrees with schoolbook")

        yield f"oracle-chain-level{level}", oracle_chain

        def codec_roundtrip(p=p):
            # each image is also compared with its definition, since a bug that an
            # encoder shares with its decoder passes a roundtrip
            w1_top, half = (Q - 1) // p.alpha - 1, 1 << 12
            eta_w, z_w, w1_w = (2 * p.eta).bit_length(), p.gamma1.bit_length(), w1_top.bit_length()
            t1, t0 = rng.integers(0, 1024, (p.k, N)), rng.integers(1 - half, half + 1, (p.k, N))
            s, w1 = rng.integers(-p.eta, p.eta + 1, (p.l, N)), rng.integers(0, w1_top + 1, (p.k, N))
            z = rng.integers(1 - p.gamma1, p.gamma1 + 1, (p.l, N))
            for name, v, fields, width, image, unpack in (
                    ("t1", t1, t1, 10, codec.pack_t1(t1), lambda b: codec.unpack_t1(b, p.k)),
                    ("t0", t0, half - t0, 13, codec.pack_t0(t0), lambda b: codec.unpack_t0(b, p.k)),
                    ("eta", s, p.eta - s, eta_w, codec.pack_eta(s, p.eta),
                     lambda b: codec.unpack_eta(b, p.l, p.eta)),
                    ("z", z, p.gamma1 - z, z_w, codec.pack_z(z, p), lambda b: codec.unpack_z(b, p)),
                    ("w1", w1, w1, w1_w, codec.pack_w1(w1, p),
                     lambda b: codec.unpack_bits(b, w1_w, w1.size))):
                want = sum(f << (i * width) for i, f in enumerate(fields.reshape(-1).tolist()))
                if image != want.to_bytes((v.size * width + 7) // 8, "little"):
                    raise AssertionError(f"{name} byte image differs from its definition")
                # the unpacker alone, on bytes no packer wrote; an odd count ends mid-byte
                count = v.size - 1
                raw = rng.bytes((count * width + 7) // 8)
                x = int.from_bytes(raw, "little")
                if codec.unpack_bits(raw, width, count).tolist() != [
                        (x >> (i * width)) & ((1 << width) - 1) for i in range(count)]:
                    raise AssertionError(f"unpack_bits differs from a bit reader at width {width}")
                if not np.array_equal(unpack(image).reshape(v.shape), v):
                    raise AssertionError(f"{name} codec roundtrip failed")
            h = np.zeros((p.k, N), dtype=np.uint8)
            h.flat[rng.choice(p.k * N, rng.integers(p.omega // 2, p.omega), replace=False)] = 1
            layout = [j for i in range(p.k) for j in range(N) if h[i, j]]
            layout += [0] * (p.omega - len(layout)) + [int(h[:i + 1].sum()) for i in range(p.k)]
            sig = codec.sig_encode(bytes(32), z, h, p)
            if sig[-len(layout):] != bytes(layout):
                raise AssertionError("hint section differs from the round-3 layout")
            if not np.array_equal(codec.sig_decode(sig, p)[2], h):
                raise AssertionError("hint codec roundtrip failed")

        yield f"codec-level{level}", codec_roundtrip

        def hint_recovery(p=p):
            r = rng.integers(0, Q, 10000)
            z0 = rng.integers(-p.gamma2, p.gamma2 + 1, 10000)
            perturbed = (r + z0) % Q
            h = rounding.make_hint(-z0, perturbed, p.alpha)
            got = rounding.use_hint(h, perturbed, p.alpha)
            want = rounding.highbits(r, p.alpha)
            if not np.array_equal(got, want):
                raise AssertionError("hint recovery failed")
            # low = LowBits(r) gives the definition's bits up to |z| = alpha
            w1, w0 = rounding.decompose(r, p.alpha)
            z = rng.integers(-p.alpha, p.alpha + 1, r.size)
            moved = rounding.highbits((r + z) % Q, p.alpha) != w1
            if not np.array_equal(rounding.make_hint(z, r, p.alpha, low=w0), moved):
                raise AssertionError("hint from LowBits(r) differs from its definition")
            # the signer's form, r = w and z = c*t0 - c*s2 up to gamma2 + beta, on
            # attempts that pass the r0 check: the verifier's w + z recovers w1
            cs2 = rng.integers(-p.beta, p.beta + 1, r.size)
            ct0 = rng.integers(-p.gamma2 + 1, p.gamma2, r.size)
            ok = np.abs(w0 - cs2) < p.gamma2 - p.beta
            w, w0, w1, z = r[ok], w0[ok], w1[ok], (ct0 - cs2)[ok]
            h = rounding.make_hint(z, w, p.alpha, low=w0)
            if not np.array_equal(h, rounding.make_hint(z, w, p.alpha)):
                raise AssertionError("hint from LowBits(w) differs from the decomposing form")
            if not np.array_equal(rounding.use_hint(h, (w + z) % Q, p.alpha), w1):
                raise AssertionError("hint recovery of the signer's form failed")

        yield f"hint-recovery-level{level}", hint_recovery

        def sign_smoke(p=p):
            pk, sk = scheme.keygen(p, rng.integers(0, 256, 32, dtype=np.uint8).tobytes())
            sigs = set()
            for backend in Backend:
                sig = scheme.sign(p, sk, b"selftest", backend=backend)
                if not scheme.verify(p, pk, b"selftest", sig):
                    raise AssertionError(f"verify failed for backend {backend.value}")
                sigs.add(sig)
            if len(sigs) != 1:
                raise AssertionError("backends produced different signatures")

        yield f"sign-verify-level{level}", sign_smoke


def cmd_selftest(args) -> int:
    levels = [args.level] if args.level else list(LEVELS)
    rng = np.random.default_rng(args.seed_int)
    failures = 0
    for name, fn in _selftest_sections(levels, args.trials, rng):
        try:
            fn()
        except Exception as e:
            # a section that raises is a failed section; the others still run
            print(f"[FAIL] {name}: {type(e).__name__}: {e}")
            if not isinstance(e, AssertionError):
                traceback.print_exc(file=sys.stderr)
            failures += 1
            continue
        print(f"[ok] {name} (trials={args.trials})")
    if failures:
        print(f"{failures} self-test section(s) failed")
        return 3
    print("all self-tests passed")
    return 0


def cmd_bench(args) -> int:
    rows = bench.run_bench(args.level, backends=args.backend, iterations=args.iterations)
    if args.format == "csv":
        print(bench.format_csv(rows))
    else:
        print(bench.format_table(rows))
        print("\ntimings are wall-clock milliseconds; cs-modmul counts modular "
              "multiplications inside c*s1/c*s2 (0 for byte-lane backends)")
    return 0


def cmd_analyze(args) -> int:
    eta, tau = args.eta, args.tau
    # the signature vector length of the level whose (eta, tau) these are, if any
    vec_len = next((p.l for p in map(param_set, LEVELS) if (p.eta, p.tau) == (eta, tau)), None)
    dist = analysis.exact_sum_distribution(eta, tau)
    strict = analysis.tail_fraction(dist, args.bound)
    print(f"sum of tau={tau} uniforms on [-{eta}, {eta}]; support [-{tau*eta}, {tau*eta}]")
    print(f"P(|u| > {args.bound})  exact = {strict}")
    print(f"                float = {float(strict)!r}")
    rep = analysis.overflow_report(eta, tau, magnitude=args.bound, vector_len=vec_len)
    print(f"P(|u| >= {args.bound}) exact = {rep.per_coeff_fraction}")
    print(f"                float = {rep.per_coeff!r}")
    print(f"wrap per 256-coefficient polynomial: direct binary64 = {rep.per_poly_direct!r}")
    print(f"                                     stable          = {rep.per_poly_stable!r}")
    if rep.per_vector_stable is not None:
        print(f"wrap per signature vector (l={vec_len}): {rep.per_vector_stable!r}")
    if args.trials is not None:
        seen = analysis.monte_carlo_overflow(eta, tau, args.bound - 1,
                                             args.trials, args.seed_int)
        print(f"monte carlo: {seen} of {args.trials} samples reached |u| >= {args.bound} "
              f"(seed {args.seed_int})")
    return 0


def _count(text: str) -> int:
    """argparse type of a count: below 1, a self-test, bench or analysis would check nothing."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsedil",
        description="Dilithium signatures with a branchless sparse signing path")
    sub = ap.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--level", type=int, choices=LEVELS, required=True)
    kg.add_argument("--seed", help="32-byte hex seed for reproducible keys")
    kg.add_argument("--pk", required=True, help="public key output path")
    kg.add_argument("--sk", required=True, help="secret key output path")
    kg.add_argument("--hex", action="store_true", help="write hex instead of raw bytes")
    kg.set_defaults(fn=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file ('-' reads stdin)")
    sg.add_argument("--sk", required=True)
    sg.add_argument("--in", dest="msg", required=True, help="message path or '-'")
    sg.add_argument("--out", required=True, help="signature output path or '-'")
    sg.add_argument("--randomized", action="store_true",
                    help="hedge the per-signature randomness (non-deterministic)")
    sg.add_argument("--hex", action="store_true", help="keys/signature files in hex")
    sg.set_defaults(fn=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature; exit 0 iff accepted")
    vf.add_argument("--pk", required=True)
    vf.add_argument("--in", dest="msg", required=True)
    vf.add_argument("--sig", required=True)
    vf.add_argument("--hex", action="store_true")
    vf.set_defaults(fn=cmd_verify)

    st = sub.add_parser("selftest", help="run the oracle-chain self tests")
    st.add_argument("--level", type=int, choices=LEVELS)
    st.add_argument("--trials", type=_count, default=200)
    st.add_argument("--seed-int", type=int, default=0, dest="seed_int")
    st.set_defaults(fn=cmd_selftest)

    bn = sub.add_parser("bench", help="benchmark keygen/sign/verify")
    bn.add_argument("--level", type=int, choices=LEVELS, required=True)
    bn.add_argument("--backend", action="append", choices=_BACKEND_CHOICES,
                    help="repeatable; default is all backends")
    bn.add_argument("--iterations", type=_count, default=50,
                    help="timed runs per procedure and backend (default: %(default)s)")
    bn.add_argument("--format", choices=("text", "csv"), default="text")
    bn.set_defaults(fn=cmd_bench)

    an = sub.add_parser("analyze", help="byte-overflow probability analysis")
    an.add_argument("--eta", type=_count, default=4)
    an.add_argument("--tau", type=_count, default=49)
    an.add_argument("--bound", type=_count, default=128,
                    help="smallest magnitude that no longer fits the lane")
    an.add_argument("--trials", type=_count,
                    help="Monte Carlo confirmation sample count (default: no Monte Carlo)")
    an.add_argument("--seed-int", type=int, default=0, dest="seed_int")
    an.set_defaults(fn=cmd_analyze)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
