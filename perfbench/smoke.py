"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json this makes one --trace 0 run and two --trace 1 runs with
the same seed and --seconds 1, so that every loop runs only its fixed
minimum. It checks that

  * each run exits 0 with correct=true and failed=0;
  * each run emits exactly the metrics BENCHMARK.json names for its mode,
    each with the unit given there, and every end-to-end value is positive;
  * the exact counts (attempts, rejections, XOF bytes, modmuls, NTT rows,
    fused blocks, expand_a hits) are identical in the two traced runs;
  * the signature digest is the same in all three runs.

It also checks that the benchmark fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's files. Exits 0
when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SEED = 7

EXACT_COUNTS = ("scheme.attempts_per_sign.", "scheme.reject.", "scheme.cs_modmul_per_sign.",
                "ring.modmul_per_", "ring.ntt_rows_per_", "keccak.xof_bytes_per_",
                "sparse.fused_r0.blocks_per_call.", "sparse.fused_z.blocks_per_call.",
                "sampling.expand_a.hit_ratio")


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    for wl in (w["name"] for w in bench["workloads"]):
        results = []
        for trace in (0, 1, 1):
            res = run(ROOT, wl, SEED, trace)
            lines = res.stdout.strip().splitlines()
            tag = f"{wl} --trace {trace}"
            if res.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {res.returncode}\n{res.stderr[-2000:]}")
                continue
            out = json.loads(lines[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(out)}")
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] > 0):
                problems.append(f"{tag}: correct={out['correct']} failed={out['failed']}")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing} extra {extra} wrong unit {wrong}")
            if trace == 0:
                bad = [k for k, v in out["metrics"].items() if not v["value"] > 0]
                if bad:
                    problems.append(f"{tag}: non-positive end-to-end metrics {bad}")
            digest = next((ln for ln in lines if ln.startswith("signature digest:")), None)
            results.append((out["metrics"], digest))
        if len(results) != 3:
            continue
        (_, d0), (m1, d1), (m2, d2) = results
        if not d0 or d0 != d1 or d1 != d2:
            problems.append(f"{wl}: signature digests differ: {d0!r} {d1!r} {d2!r}")
        counts = [k for k in m1 if k.startswith(EXACT_COUNTS)]
        for k in counts:
            if m1[k]["value"] != m2.get(k, {}).get("value"):
                problems.append(f"{wl}: exact count {k} differs: "
                                f"{m1[k]['value']} vs {m2.get(k, {}).get('value')}")
        print(f"{wl}: {len(counts)} exact counts compared; {d0}", flush=True)

    stripped = SCRATCH / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, stripped / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    first = bench["workloads"][0]["name"]
    res = run(stripped, first, SEED, 0)
    lines = res.stdout.strip().splitlines()
    if res.returncode == 0 or (lines and lines[-1].startswith("{")):
        problems.append(f"stripped checkout: exit {res.returncode}, output {lines[-1:]}")
    shutil.rmtree(stripped)

    for p in problems:
        print("SMOKE FAILED:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
