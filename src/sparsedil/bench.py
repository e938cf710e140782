"""Wall-clock benchmark harness with operation-count evidence.

Timing alone cannot support structural claims in interpreted code, so each
sign row also reports the modular-multiplication count attributable to the
c*s1/c*s2 products (zero for the byte-lane backends), XOF bytes consumed,
and the mean restart count. Times are monotonic-clock seconds; the first
WARMUP calls of each procedure are not reported. The verify rows check the
signatures the sign rows made, so each message is signed once. The public
matrix expansion is cached per seed, so sign/verify rows reflect
steady-state operation with a resident key.
"""

import statistics
import time
from dataclasses import dataclass, fields

from . import instrumentation, scheme
from .params import param_set
from .scheme import Backend, SignTrace

WARMUP = 2      # calls per procedure run before the reported ones


@dataclass
class BenchRow:
    procedure: str
    backend: str
    iterations: int
    median_ms: float
    mean_ms: float
    restarts: float        # mean restarts per sign (0 for keygen/verify)
    cs_modmuls: float      # mean modular mults in c*s1/c*s2 per sign
    xof_bytes: float       # mean XOF output consumed per call


_CSV_FIELDS = tuple(f.name for f in fields(BenchRow))


def _measure(procedure: str, backend: Backend, iterations: int, call):
    """Run call(i, trace) for i < WARMUP + iterations, each timed and counted.

    Returns the row of the calls after the warm-up and every call's result;
    `trace` is a fresh SignTrace per call, which only sign fills in.
    """
    results, times, stats = [], [], []
    for i in range(WARMUP + iterations):
        tr = SignTrace()
        with instrumentation.counting() as cn:
            t0 = time.perf_counter()
            result = call(i, tr)
            dt = time.perf_counter() - t0
        results.append(result)
        if i >= WARMUP:
            times.append(dt)
            stats.append((tr.restarts, tr.cs1_modmuls + tr.cs2_modmuls, cn.xof_bytes))
    restarts, cs_modmuls, xof = map(statistics.fmean, zip(*stats))
    row = BenchRow(procedure, backend.value, iterations, statistics.median(times) * 1e3,
                   statistics.fmean(times) * 1e3, restarts, cs_modmuls, xof)
    return row, results


def run_bench(level: int, backends=None, *, iterations: int) -> list[BenchRow]:
    """Measure keygen/sign/verify for each backend at one security level."""
    params = param_set(level)
    if backends is None:
        backends = list(Backend)
    # a Backend, its value, or the CLI's spelling of it ("sparse-fused")
    backends = [Backend(b.replace("-", "_") if isinstance(b, str) else b) for b in backends]
    rows = []
    messages = [b"bench message" + i.to_bytes(4, "little") for i in range(WARMUP + iterations)]
    for bi, backend in enumerate(backends):
        pk, sk = scheme.keygen(params, bytes(32))
        # seeds stay unique across backend rows so the matrix expansion
        # cache cannot flatter repeated runs
        keygen, _ = _measure("keygen", backend, iterations, lambda i, tr: scheme.keygen(
            params, (bi * 1000003 + i + 1).to_bytes(32, "little")))
        sign, sigs = _measure("sign", backend, iterations, lambda i, tr: scheme.sign(
            params, sk, messages[i], backend=backend, trace=tr))
        verify, oks = _measure("verify", backend, iterations,
                               lambda i, tr: scheme.verify(params, pk, messages[i], sigs[i]))
        if not all(oks):
            raise RuntimeError("benchmark signature failed to verify")
        rows += [keygen, sign, verify]
    return rows


def format_table(rows: list[BenchRow]) -> str:
    header = ["procedure", "backend", "iters", "median[ms]", "mean[ms]",
              "restarts", "cs-modmul", "xof[B]"]
    cells = [header] + [[r.procedure, r.backend, str(r.iterations),
                         f"{r.median_ms:.3f}", f"{r.mean_ms:.3f}",
                         f"{r.restarts:.2f}", f"{r.cs_modmuls:.0f}",
                         f"{r.xof_bytes:.0f}"] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_csv(rows: list[BenchRow]) -> str:
    # str of a float is its repr, so every value round-trips through parse_csv
    return "\n".join([",".join(_CSV_FIELDS)] +
                     [",".join(str(getattr(r, f)) for f in _CSV_FIELDS) for r in rows])


def parse_csv(text: str) -> list[BenchRow]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != ",".join(_CSV_FIELDS):
        raise ValueError("unexpected CSV header")
    return [BenchRow(*(f.type(v) for f, v in zip(fields(BenchRow), ln.split(","), strict=True)))
            for ln in lines[1:]]
