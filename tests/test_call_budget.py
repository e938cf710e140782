"""A ratchet on the Python calls that signing, verifying and keygen make into the package.

Signing and verifying are pure Python over small numpy arrays, so the
number of calls sets much of their cost. This counts, with `sys.setprofile`,
every call into a frame of a `sparsedil` source file while one resident key
per level signs fixed messages with the default backend, or verifies their
signatures, and while fresh keys are generated from fixed seeds. Only
package frames are counted, so a numpy or Python upgrade cannot move the
count; numpy's own Python helpers (`np.stack`, `np.flatnonzero`) are not
counted, although they cost time too.

The signing and verify budgets are the counts measured when this test was
written, after a warm-up signature or verify so that the per-key caches
hit. The keygen budget is counted from an empty `expand_a` cache, so every
keygen expands its matrix, as on the benchmark's `keygen-churn` workload. A
change that lowers a count should lower its budget with it.
"""

import os
import sys

import sparsedil
from sparsedil import sampling, scheme
from sparsedil.params import LEVELS, param_set

MESSAGES = 16
# level 3's messages meet one hint tie, where make_hint decomposes r at that coefficient
BUDGET = {2: 3618, 3: 3569, 5: 3449}    # package calls for MESSAGES signatures
VERIFY_BUDGET = {2: 832, 3: 832, 5: 832}   # package calls for MESSAGES verifies
KEYGEN_BUDGET = {2: 1632, 3: 2176, 5: 3136}   # package calls for MESSAGES keygens


def _package_calls(fn) -> int:
    package = os.path.dirname(os.path.abspath(sparsedil.__file__)) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_signing_stays_within_its_call_budget(keypairs):
    counts = {}
    for lv in LEVELS:
        p = param_set(lv)
        _, sk = keypairs[lv]
        scheme.sign(p, sk, b"call budget warm-up")
        counts[lv] = _package_calls(
            lambda: [scheme.sign(p, sk, b"call budget %d" % i) for i in range(MESSAGES)])
    # a count of 0 would mean the filter missed the package's frames
    assert all(0 < counts[lv] <= BUDGET[lv] for lv in LEVELS), (counts, BUDGET)


def test_verifying_under_a_resident_key_stays_within_its_call_budget(keypairs):
    counts = {}
    for lv in LEVELS:
        p = param_set(lv)
        pk, sk = keypairs[lv]
        signed = [(b"call budget %d" % i, scheme.sign(p, sk, b"call budget %d" % i))
                  for i in range(MESSAGES)]
        assert scheme.verify(p, pk, *signed[0])    # the warm-up: the key is resident
        counts[lv] = _package_calls(lambda: [scheme.verify(p, pk, *ms) for ms in signed])
    assert all(0 < counts[lv] <= VERIFY_BUDGET[lv] for lv in LEVELS), (counts, VERIFY_BUDGET)


def test_keygen_stays_within_its_call_budget():
    counts = {}
    for lv in LEVELS:
        p = param_set(lv)
        sampling.expand_a.cache_clear()
        counts[lv] = _package_calls(
            lambda: [scheme.keygen(p, bytes([i, lv]) * 16) for i in range(MESSAGES)])
    assert all(0 < counts[lv] <= KEYGEN_BUDGET[lv] for lv in LEVELS), (counts, KEYGEN_BUDGET)
