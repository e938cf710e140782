"""Walks the sparse multiplication pipeline on one small example.

A weight-tau challenge times a bounded secret is computed four ways, from
the quadratic schoolbook oracle down to the branchless byte-lane kernel,
and every route lands on the same ring element.

Run:  python demos/sparse_multiplication.py
"""

import numpy as np

from sparsedil import param_set
from sparsedil.params import Q
from sparsedil.ring import Poly, inv_ntt, ntt, pointwise_mul, schoolbook_negacyclic
from sparsedil.sparse import (encode_challenge, extend_secret,
                              sparse_mul_branchless, sparse_mul_indexed)

p = param_set(2)
rng = np.random.default_rng(7)

# a challenge with tau = 39 coefficients in {-1, +1}
c = np.zeros(256, dtype=np.int8)
support = rng.choice(256, p.tau, replace=False)
c[support] = rng.choice([-1, 1], p.tau)

# a secret with coefficients in [-eta, eta]
s = rng.integers(-p.eta, p.eta + 1, 256).astype(np.int8)

print(f"challenge: {np.count_nonzero(c == 1)} coefficients at +1, "
      f"{np.count_nonzero(c == -1)} at -1")
print(f"secret:    256 coefficients in [-{p.eta}, {p.eta}]")

# (1) quadratic schoolbook in Z_q - the ground truth
a = Poly(s.astype(np.int64) % Q)
ground_truth = schoolbook_negacyclic(Poly(c.astype(np.int64) % Q), a).coeffs

# (2) the NTT route every classic implementation takes
via_ntt = inv_ntt(pointwise_mul(ntt(Poly(c.astype(np.int64) % Q)), ntt(a))).coeffs
print("\nNTT product equals schoolbook:      ", np.array_equal(ground_truth, via_ntt))

# (3) index-driven accumulation into 2n cells, then the negacyclic fold
via_indexed = sparse_mul_indexed(c, a).coeffs
print("index-based product equals oracle:  ", np.array_equal(ground_truth, via_indexed))

# (4) the production path: encode the challenge as an index list ...
index = encode_challenge(c, p.tau)
print(f"\nindex list ({p.tau + 1} bytes): poscnt={index[0]}, "
      f"+1 slots 1..{index[0]}, -1 slots {index[0] + 1}..{p.tau}")
print("  ", np.array2string(index, max_line_width=76))

# ... widen the secret to the (-s, s) layout so every window read carries
# the right negacyclic sign ...
ext = extend_secret(s, p.eta)
j = int(np.flatnonzero(s)[0])
print(f"extended secret: ext[j] = -s_j, ext[256+j] = s_j "
      f"(check at j={j}: {int(ext[j])} + {int(ext[256 + j])} = 0)")

# ... and gather the tau byte windows, summing them in wrapping int8
prod8 = sparse_mul_branchless(index, ext, p.tau)
lifted = prod8.astype(np.int64) % Q
print("branchless byte product equals oracle:", np.array_equal(ground_truth, lifted))
print(f"byte product magnitude <= tau*eta = {p.beta}: {int(np.abs(prod8).max())}")
