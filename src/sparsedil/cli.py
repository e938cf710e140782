"""Command-line front end: key and signature files, self-tests, benchmarks,
and the byte-overflow probability analysis.

Exit codes: 0 success / signature accepted, 1 signature rejected,
2 usage or I/O error, 3 self-test failure.

The default signing backend is sparse_fused for levels 2 and 5 and ntt for
level 3; the SPARSEDIL_BACKEND environment variable overrides it when no
--backend flag is given.
"""

import argparse
import binascii
import os
import sys

import numpy as np

from . import analysis, bench, codec, ring, rounding, scheme, sparse
from .params import LEVELS, N, Q, param_set
from .scheme import Backend

ENV_BACKEND = "SPARSEDIL_BACKEND"

_BACKEND_CHOICES = ("ntt", "sparse", "sparse-fused")


class CliError(Exception):
    """Operational failure reported with exit code 2."""


def _backend_from(args) -> Backend | None:
    name = getattr(args, "backend", None) or os.environ.get(ENV_BACKEND)
    if name is None:
        return None
    try:
        return scheme._coerce_backend(name)
    except ValueError:
        raise CliError(f"unknown backend {name!r}; choose from {_BACKEND_CHOICES}")


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
          f"{len(sk)}-byte secret key to {args.sk}")
    if args.seed is None:
        print(f"seed: {seed.hex()}")
    return 0


def cmd_sign(args) -> int:
    sk = _read_file(args.sk, args.hex)
    try:
        level = codec.level_for_sk(sk)
    except codec.DecodeError as e:
        raise CliError(str(e))
    params = param_set(level)
    message = _read_file(args.msg, hex_mode=False)
    _require_parent_dirs(args.out)
    backend = _backend_from(args) or scheme.default_backend(level)
    sig = scheme.sign(params, sk, message, backend=backend,
                      randomized=args.randomized)
    _write_file(args.out, sig, args.hex)
    print(f"level {level} / {backend.value}: wrote {len(sig)}-byte signature to {args.out}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    pk = _read_file(args.pk, args.hex)
    try:
        level = codec.level_for_pk(pk)
    except codec.DecodeError as e:
        raise CliError(str(e))
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

    for level in levels:
        p = param_set(level)

        def oracle_chain(p=p):
            for _ in range(trials):
                c = np.zeros(N, dtype=np.int8)
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
                ext = sparse.extend_secret(s, p.eta)
                got8 = sparse.sparse_mul_branchless(idx, ext, p.tau).astype(np.int64) % Q
                if p.challenge_fits_int8:
                    if not np.array_equal(want, got8):
                        raise AssertionError("branchless product disagrees with index-based")
                else:
                    diff = (want - got8) % Q
                    if not np.all((diff == 0) | (diff % 256 == 0)):
                        raise AssertionError("branchless product differs beyond byte wrap")

        yield f"oracle-chain-level{level}", oracle_chain

        def codec_roundtrip(p=p):
            t1 = rng.integers(0, 1024, (p.k, N))
            if not np.array_equal(codec.unpack_t1(codec.pack_t1(t1), p.k), t1):
                raise AssertionError("t1 codec roundtrip failed")
            t0 = rng.integers(-(1 << 12) + 1, (1 << 12) + 1, (p.k, N))
            if not np.array_equal(codec.unpack_t0(codec.pack_t0(t0), p.k), t0):
                raise AssertionError("t0 codec roundtrip failed")
            s = rng.integers(-p.eta, p.eta + 1, (p.l, N))
            if not np.array_equal(codec.unpack_eta(codec.pack_eta(s, p.eta), p.l, p.eta), s):
                raise AssertionError("eta codec roundtrip failed")
            z = rng.integers(-p.gamma1 + 1, p.gamma1 + 1, (p.l, N))
            if not np.array_equal(codec.unpack_z(codec.pack_z(z, p), p).reshape(p.l, N), z):
                raise AssertionError("z codec roundtrip failed")

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

        yield f"hint-recovery-level{level}", hint_recovery

        def sign_smoke(p=p, level=level):
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
        except AssertionError as e:
            print(f"[FAIL] {name}: {e}")
            failures += 1
            continue
        print(f"[ok] {name} (trials={args.trials})")
    if failures:
        print(f"{failures} self-test section(s) failed")
        return 3
    print("all self-tests passed")
    return 0


def cmd_bench(args) -> int:
    backends = args.backend or list(_BACKEND_CHOICES)
    rows = bench.run_bench(args.level, backends=backends, iterations=args.iterations)
    if args.format == "csv":
        print(bench.format_csv(rows))
    else:
        print(bench.format_table(rows))
        print("\ntimings are wall-clock milliseconds; cs-modmul counts modular "
              "multiplications inside c*s1/c*s2 (0 for byte-lane backends)")
    return 0


def cmd_analyze(args) -> int:
    eta, tau, vec_len = args.eta, args.tau, None
    if args.level is not None:
        p = param_set(args.level)
        eta, tau, vec_len = p.eta, p.tau, p.l
    elif (eta, tau) == (4, 49):
        vec_len = param_set(3).l
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
    if args.trials:
        seen = analysis.monte_carlo_overflow(eta, tau, args.bound - 1,
                                             args.trials, args.seed_int)
        print(f"monte carlo: {seen} of {args.trials} samples reached |u| >= {args.bound} "
              f"(seed {args.seed_int})")
    return 0


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
    sg.add_argument("--backend", choices=_BACKEND_CHOICES)
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
    st.add_argument("--trials", type=int, default=200)
    st.add_argument("--seed-int", type=int, default=0, dest="seed_int")
    st.set_defaults(fn=cmd_selftest)

    bn = sub.add_parser("bench", help="benchmark keygen/sign/verify")
    bn.add_argument("--level", type=int, choices=LEVELS, required=True)
    bn.add_argument("--backend", action="append", choices=_BACKEND_CHOICES,
                    help="repeatable; default is all backends")
    bn.add_argument("--iterations", type=int, default=50,
                    help="timed runs per procedure and backend (default: %(default)s)")
    bn.add_argument("--format", choices=("text", "csv"), default="text")
    bn.set_defaults(fn=cmd_bench)

    an = sub.add_parser("analyze", help="byte-overflow probability analysis")
    an.add_argument("--eta", type=int, default=4)
    an.add_argument("--tau", type=int, default=49)
    an.add_argument("--bound", type=int, default=128,
                    help="smallest magnitude that no longer fits the lane")
    an.add_argument("--level", type=int, choices=LEVELS,
                    help="take eta/tau/vector length from a parameter set")
    an.add_argument("--trials", type=int, default=0,
                    help="optional Monte Carlo confirmation sample count")
    an.add_argument("--seed-int", type=int, default=0, dest="seed_int")
    an.set_defaults(fn=cmd_analyze)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
