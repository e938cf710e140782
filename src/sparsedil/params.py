"""Dilithium parameter sets and shared ring constants.

The three NIST security levels (2, 3, 5) share the ring degree n = 256 and
the prime modulus q = 2^23 - 2^13 + 1 = 8380417, which satisfies
q == 1 (mod 2n) so that Z_q contains primitive 512th roots of unity.
"""

from dataclasses import dataclass

Q = 8380417
N = 256
D = 13

# Primitive 512th root of unity mod Q used to build the NTT stage matrices.
# 1753^256 == -1 (mod Q); verified in the test suite.
ROOT_OF_UNITY = 1753


@dataclass(frozen=True)
class ParameterSet:
    """Frozen constants for one security level."""

    level: int
    k: int          # rows of the public matrix
    l: int          # columns of the public matrix
    eta: int        # secret coefficient bound
    tau: int        # challenge Hamming weight
    gamma1: int     # mask coefficient bound (power of two)
    gamma2: int     # low-order rounding range
    omega: int      # maximum signature hint weight

    @property
    def beta(self) -> int:
        return self.tau * self.eta

    @property
    def alpha(self) -> int:
        """Decomposition modulus 2*gamma2 used by HighBits/LowBits."""
        return 2 * self.gamma2

    @property
    def challenge_fits_int8(self) -> bool:
        """True when |c*s| <= tau*eta is guaranteed to fit a signed byte."""
        return self.beta <= 127


_PARAM_SETS = {
    2: ParameterSet(level=2, k=4, l=4, eta=2, tau=39,
                    gamma1=1 << 17, gamma2=(Q - 1) // 88, omega=80),
    3: ParameterSet(level=3, k=6, l=5, eta=4, tau=49,
                    gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=55),
    5: ParameterSet(level=5, k=8, l=7, eta=2, tau=60,
                    gamma1=1 << 19, gamma2=(Q - 1) // 32, omega=75),
}

LEVELS = (2, 3, 5)


def param_set(level: int) -> ParameterSet:
    """Return the parameter set for security level 2, 3, or 5."""
    try:
        return _PARAM_SETS[level]
    except KeyError:
        raise ValueError(f"unsupported security level {level!r}; expected one of 2, 3, 5") from None
