"""What the signing loop actually does, made visible through traces.

Shows the per-attempt check ordering (the fused path runs the cheaper-to-
fail r0 check first), the restart behaviour, and the operation counters
that separate the backends structurally: the byte-lane backends compute
c*s1 and c*s2 with zero modular multiplications.

Run:  python demos/backend_instrumentation.py
"""

from sparsedil import Backend, SignTrace, param_set, scheme
from sparsedil.bench import format_table, run_bench

p = param_set(2)
pk, sk = scheme.keygen(p, b"\x42" * 32)

# find a message that needs a few attempts, so the trace is interesting
msg = None
for i in range(100):
    candidate = b"trace me %d" % i
    t = SignTrace()
    scheme.sign(p, sk, candidate, backend=Backend.SPARSE_FUSED, trace=t)
    if t.restarts >= 2:
        msg = candidate
        break

for backend in Backend:
    trace = SignTrace()
    sig = scheme.sign(p, sk, msg, backend=backend, trace=trace)
    print(f"\n{backend.value}: {trace.restarts} restarts, "
          f"secret decoded {trace.decode_calls} time(s)")
    for n, checks in enumerate(trace.iterations):
        verdict = "accepted" if n == len(trace.iterations) - 1 else "rejected"
        print(f"  attempt {n}: checks run = {checks} -> {verdict}")
    print(f"  c*s1/c*s2 modular multiplications: "
          f"{trace.cs1_modmuls + trace.cs2_modmuls}")
    print(f"  accepted attempt: max|z| = {trace.accepted_z_max} "
          f"(< {p.gamma1 - p.beta}), max|r0| = {trace.accepted_r0_max} "
          f"(< {p.gamma2 - p.beta})")

print("\nNote the ordering: ntt and sparse evaluate z then r0, while "
      "sparse_fused evaluates r0 first. Every backend computes each product "
      "inside its check, so a failing first check skips the other product.")

print("\n--- small benchmark (informational wall-clock only) ---")
rows = run_bench(2, iterations=20)
print(format_table(rows))
