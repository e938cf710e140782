"""Dilithium signatures with a branchless sparse multiplication signing path.

The signing-side products c*s1 and c*s2 are computed from an index-encoded
challenge and a widened (-s, s) secret layout using narrow-lane kernels
(bytes; 16-bit at level 3), each fused with its rejection norm check;
the NTT remains available as a backend and as a correctness oracle.
"""

from .params import LEVELS, ParameterSet, param_set
from .scheme import (Backend, SignTrace, SigningAttemptsExceeded, default_backend, keygen,
                     sign, verify)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "LEVELS",
    "ParameterSet",
    "SignTrace",
    "SigningAttemptsExceeded",
    "default_backend",
    "keygen",
    "param_set",
    "sign",
    "verify",
    "__version__",
]
