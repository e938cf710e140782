"""Closed-loop benchmark of sparsedil keygen, sign and verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread issues each operation after the previous one has
returned, with the default backend of each level. Workloads are described
in perfbench/README.md and perfbench/workloads.py.

--trace 0 measures the end-to-end metrics with no instrumentation active,
scaled to a reference host speed by an interleaved calibration unit (see
perfbench/calibration.py); the unscaled figures are printed as well.
--trace 1 runs the same workload with spans and counters around every call
scheme makes into another layer, then a backend sweep and a kernel sweep,
and reports the per-layer metrics; spans are written under .perfbench/.

Every output is checked: keys and signatures have their encoded sizes,
every signature verifies, every tampered pool entry is rejected, and the
first signatures of each level are byte-identical under all three backends.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when no
check failed.
"""

import os

# One thread: pin every BLAS/OpenMP pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 9                 # spread evenly over a --trace 0 run
DIGEST_PER_LEVEL = 100           # signatures per level covered by the digest
CROSS_CHECK_PER_LEVEL = 3        # first signatures re-made with the other backends
TRACED_SHARE = 0.55              # of --seconds, for the traced workload loop
SWEEP_SHARE = 0.25               # of --seconds, for the backend sweep


def load_program():
    """Import sparsedil from this checkout's src/, and from nowhere else."""
    pkg = SRC / "sparsedil"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparsedil package at {pkg}")
    sys.path.insert(0, str(SRC))
    import sparsedil
    if Path(sparsedil.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported sparsedil from {sparsedil.__file__}, not {pkg}")


load_program()

import calibration  # noqa: E402
import workloads  # noqa: E402  (needs sparsedil on the path)


def warm_up() -> None:
    """One keygen, sign and verify per level, on fixed warm-up inputs."""
    from sparsedil import scheme
    from sparsedil.params import param_set
    for lv in workloads.LEVELS:
        p = param_set(lv)
        pk, sk = scheme.keygen(p, bytes([lv]) * 32)
        if not scheme.verify(p, pk, b"warm-up", scheme.sign(p, sk, b"warm-up")):
            raise RuntimeError(f"warm-up signature on level {lv} does not verify")


def setup_probe() -> float:
    """Time from spawning a fresh interpreter to its first timed operation.

    The probe imports sparsedil and warms up every level, then reports the
    CLOCK_MONOTONIC time at which it would start timing.
    """
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, __file__, "--setup-probe"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.split()[-1]) - t0


class Client:
    """Issues operations one at a time, times them and checks their outputs."""

    def __init__(self, seconds: float, tracer=None):
        from sparsedil import codec, scheme
        from sparsedil.params import param_set
        self.scheme, self.codec = scheme, codec
        self.params = {lv: param_set(lv) for lv in workloads.LEVELS}
        self.seconds = seconds
        self.tracer = tracer
        self.latency = defaultdict(list)     # (kind, level) -> (start, seconds) per operation
        self.attempted = 0
        self.failed = 0
        self.exact = True
        self.digest = hashlib.sha256()
        self.digested = Counter()
        self.first = {lv: [] for lv in workloads.LEVELS}
        # Set-up probes run between rounds of an untraced run, spread over
        # it, so that setup_s sees the machine over the same span as the
        # other metrics.
        self.setup = None if tracer else []
        self.calibration = None if tracer else calibration.Calibration()
        self.start = time.perf_counter()

    def rounds(self, minimum: int):
        deadline = self.start + self.seconds
        r = 0
        while r < minimum or time.perf_counter() < deadline:
            self.exact = r < minimum
            self.probe_setup()
            yield r
            r += 1
        self.exact = False
        self.probe_setup(finished=True)

    def probe_setup(self, finished: bool = False) -> None:
        """Run the set-up probes that are due; once the loop has finished, all that are left."""
        if self.setup is None:
            return
        while len(self.setup) < SETUP_PROBES and (finished or time.perf_counter() >= (
                self.start + self.seconds * (len(self.setup) + 0.5) / SETUP_PROBES)):
            self.setup.append((time.perf_counter(), setup_probe()))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED: {what}", file=sys.stderr)

    def _op(self, kind, level, *args):
        fn = getattr(self.scheme, kind)
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(self.params[level], *args)
        else:
            out = self.tracer.run_op(kind, level, self.exact, fn, self.params[level], *args)
        self.latency[kind, level].append((t0, time.perf_counter() - t0))
        if self.calibration:
            self.calibration.between_ops()
        return out

    def keygen(self, level, seed):
        pk, sk = self._op("keygen", level, seed)
        p = self.params[level]
        self.check(len(pk) == self.codec.pk_size(p) and len(sk) == self.codec.sk_size(p),
                   f"level {level} keygen output sizes")
        return pk, sk

    def sign(self, level, sk, msg):
        sig = self._op("sign", level, sk, msg)
        self.check(len(sig) == self.codec.sig_size(self.params[level]),
                   f"level {level} signature size")
        if self.digested[level] < DIGEST_PER_LEVEL:
            self.digest.update(bytes([level]) + sig)
            self.digested[level] += 1
        if len(self.first[level]) < CROSS_CHECK_PER_LEVEL:
            self.first[level].append((sk, msg, sig))
        return sig

    def verify(self, level, pk, msg, sig, expect):
        ok = self._op("verify", level, pk, msg, sig)
        self.check(ok is expect, f"level {level} verify returned {ok}, expected {expect}")
        return ok

    def cross_check(self) -> None:
        """Re-sign the first messages of each level with the non-default backends."""
        for lv, signed in self.first.items():
            default = self.scheme.default_backend(lv)
            for sk, msg, sig in signed:
                for b in self.scheme.Backend:
                    if b is not default:
                        again = self.scheme.sign(self.params[lv], sk, msg, backend=b)
                        self.check(again == sig, f"level {lv} {b.value} signature differs")


def end_to_end(client: Client, scale_at=lambda t: 1.0) -> dict:
    """Every time is multiplied by the scale at its start; rates use the scaled times."""
    def rate(lat):
        return len(lat) / sum(lat)

    def scaled(kind, levels):
        return [dt * scale_at(t) for lv in levels for t, dt in client.latency[kind, lv]]

    signs = {lv: scaled("sign", [lv]) for lv in workloads.LEVELS}
    verifies = scaled("verify", workloads.LEVELS)
    keygens = scaled("keygen", workloads.LEVELS)
    m = {"setup_s": (statistics.median(dt * scale_at(t) for t, dt in client.setup), "s")}
    for lv, lat in signs.items():
        m[f"sign_per_s.l{lv}"] = (rate(lat), "1/s")
    for lv, lat in signs.items():
        m[f"sign_p50_ms.l{lv}"] = (statistics.median(lat) * 1e3, "ms")
    for lv, lat in signs.items():
        m[f"sign_p90_ms.l{lv}"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms")
    m["verify_per_s"] = (rate(verifies), "1/s")
    m["keygen_per_s"] = (rate(keygens), "1/s")
    m["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return m


def per_layer(args, client: Client) -> dict:
    import spans
    import sweeps
    tracer = client.tracer
    with tracer.installed():
        workloads.WORKLOADS[args.workload](client, args.seed)
    client.cross_check()
    deadline = time.perf_counter() + SWEEP_SHARE * args.seconds
    backend_m, probe = sweeps.backend_sweep(client, args.seed, deadline)
    kernel_m = sweeps.kernel_sweep(client, probe.captured, args.seed)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return spans.layer_metrics(tracer) | backend_m | kernel_m


def main() -> int:
    if sys.argv[1:] == ["--setup-probe"]:
        warm_up()
        print(time.monotonic())
        return 0

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    warm_up()
    if args.trace:
        import spans
        client = Client(TRACED_SHARE * args.seconds, spans.Tracer())
    else:
        client = Client(args.seconds)
    metrics = {}
    try:
        if args.trace:
            metrics = per_layer(args, client)
        else:
            workloads.WORKLOADS[args.workload](client, args.seed)
            scale_at = client.calibration.scale_at()
            unscaled = end_to_end(client)
            metrics = end_to_end(client, scale_at)
            print(f"calibration: {len(client.calibration.samples)} units; unscaled: "
                  + " ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items()))
            client.cross_check()
    except Exception:
        traceback.print_exc()
        client.check(False, "exception raised")

    counts = " ".join(f"l{lv}={len(client.latency['sign', lv])}" for lv in workloads.LEVELS)
    print(f"sign samples per level: {counts}")
    print(f"signature digest: {client.digest.hexdigest()} "
          f"(first {DIGEST_PER_LEVEL} signatures of each level)")
    print(f"failed_op_ratio: {client.failed}/{client.attempted}")
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
