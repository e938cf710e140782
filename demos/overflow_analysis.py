"""Why signed bytes are safe for levels 2/5 and level 3 signs on 16-bit lanes.

One coefficient of c*s is a sum of tau independent uniforms on [-eta, eta].
For (eta, tau) = (2, 39) and (2, 60) the support never leaves [-127, 127],
so a signed byte is always exact. For level 3's (4, 49) the support reaches
+-196 and a byte lane can wrap; this demo computes exactly how often, then
forces a wrap and shows the int16 signing layout holding the true value.

Run:  python demos/overflow_analysis.py
"""

import numpy as np

from sparsedil import analysis, param_set
from sparsedil.params import Q
from sparsedil.ring import Poly
from sparsedil.sparse import (encode_challenge, extend_secret, signing_layout,
                              sparse_mul_branchless, sparse_mul_indexed)

for level in (2, 3, 5):
    p = param_set(level)
    print(f"level {level}: tau*eta = {p.beta}"
          + (" <= 127, bytes always exact" if p.challenge_fits_int8
             else " > 127, wrap possible"))

print("\n--- exact analysis for level 3 (eta=4, tau=49) ---")
rep = analysis.overflow_report(4, 49, magnitude=128, vector_len=param_set(3).l)
print(f"P(one coefficient wraps)  = {rep.per_coeff_fraction}")
print(f"                  as float = {rep.per_coeff!r}")
print(f"P(any of 256 wraps), direct binary64 = {rep.per_poly_direct!r}")
print(f"                     stable evaluation = {rep.per_poly_stable!r}")
print(f"P(any lane in the l={param_set(3).l} vector wraps) = {rep.per_vector_stable!r}")
print(f"=> roughly one bad signature every 2^{-np.log2(rep.per_poly_stable):.1f} signatures")

print("\n--- Monte Carlo confirmation ---")
trials = 10**6
seen = analysis.monte_carlo_overflow(4, 49, 127, trials, seed=0)
print(f"{trials} sampled coefficients, {seen} reached |u| >= 128 "
      f"(expected {trials * rep.per_coeff:.1e})")

small = analysis.exact_sum_distribution(1, 2)
print(f"\nsanity, eta=1 tau=2: counts {small.counts}, "
      f"P(|u| > 1) = {analysis.tail_fraction(small, 1)} "
      f"(sampled {analysis.monte_carlo_overflow(1, 2, 1, 100000, 1) / 100000:.4f})")

print("\n--- a wrap, forced on purpose ---")
p = param_set(3)
c = np.zeros(256, dtype=np.int8)
c[:p.tau] = 1                      # 49 aligned +1 windows
s = np.full(256, 4, dtype=np.int8)  # every secret coefficient at +eta
exact = sparse_mul_indexed(c, Poly(s.astype(np.int64) % Q)).coeffs
centered = np.where(exact > Q // 2, exact - Q, exact)
byte_prod = sparse_mul_branchless(encode_challenge(c, p.tau),
                                  extend_secret(s, p.eta), p.tau)
i = int(np.argmax(centered))
print(f"true coefficient {centered[i]} stored in a byte lane as {byte_prod[i]} "
      f"(wrapped by 256)")
signing_prod = sparse_mul_branchless(encode_challenge(c, p.tau),
                                     signing_layout(s, p.eta, p.tau), p.tau)
print(f"the level-3 signing layout ({signing_prod.dtype} lanes) holds it exactly: "
      f"{signing_prod[i]}")
