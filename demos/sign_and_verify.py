"""Key generation, signing, and verification across the three backends.

Run:  python demos/sign_and_verify.py
"""

from sparsedil import Backend, SignTrace, default_backend, keygen, param_set, sign, verify

message = b"General Kenobi, years ago you served my father in the Clone Wars"

for level in (2, 3, 5):
    params = param_set(level)
    pk, sk = keygen(params, bytes([level]) * 32)
    print(f"\n=== level {level} ===")
    print(f"public key {len(pk)} bytes, secret key {len(sk)} bytes; "
          f"default backend: {default_backend(level).value}")

    sigs = {}
    for backend in Backend:
        trace = SignTrace()
        sig = sign(params, sk, message, backend=backend, trace=trace)
        ok = verify(params, pk, message, sig)
        sigs[backend.value] = sig
        print(f"  {backend.value:13s} -> {len(sig)} bytes, verified={ok}, "
              f"restarts={trace.restarts}, "
              f"c*s modular mults={trace.cs1_modmuls + trace.cs2_modmuls}")

    identical = len(set(sigs.values())) == 1
    print(f"  signatures byte-identical across backends: {identical}")

    tampered = bytearray(sigs["ntt"])
    tampered[40] ^= 0x01
    print(f"  tampered signature accepted: {verify(params, pk, message, bytes(tampered))}")
