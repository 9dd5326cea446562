"""Collective spin operators (Dicke subspace) and spin-chain site Paulis.

Chain basis convention: product states are indexed by bit patterns with
site 1 as the least significant bit; bit i = 1 means spin i up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexGuard
from .spectral import HermitianOperator

# single-site Paulis in (down, up) ordering so that bit value 1 <-> spin up
_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]]),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]]),
}

CHAIN_N_MIN = 3
CHAIN_N_MAX = 14


@dataclass(frozen=True)
class DickeBasis:
    """Maximal total-spin subspace |S=N/2, m>, m ascending from -N/2."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"Dicke basis needs N >= 2, got {self.N}")

    @property
    def dim(self) -> int:
        return self.N + 1

    @property
    def basis_label(self) -> str:
        return f"dicke({self.N})"


@dataclass(frozen=True)
class ChainBasis:
    """Spin-1/2 product basis for a periodic chain of N sites."""

    N: int

    def __post_init__(self):
        if not CHAIN_N_MIN <= self.N <= CHAIN_N_MAX:
            raise ValueError(
                f"chain length must be in [{CHAIN_N_MIN}, {CHAIN_N_MAX}], got {self.N}"
            )

    @property
    def dim(self) -> int:
        return 2**self.N

    @property
    def basis_label(self) -> str:
        return f"chain({self.N})"


@lru_cache(maxsize=4)
def collective_spin_ops(
    basis: DickeBasis,
) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """(S_x, S_y, S_z) restricted to the symmetric subspace, built once per N."""
    S = basis.N / 2.0
    m = np.arange(-S, S + 1.0)
    sz = np.diag(m)
    sp = np.zeros((basis.dim, basis.dim))
    raising = np.sqrt(S * (S + 1.0) - m[:-1] * (m[:-1] + 1.0))
    sp[np.arange(1, basis.dim), np.arange(basis.dim - 1)] = raising
    sm = sp.T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return HermitianOperator(sx), HermitianOperator(sy), HermitianOperator(sz)


def site_pauli(basis: ChainBasis, site: int, axis: str) -> HermitianOperator:
    """sigma_axis acting on one site, identity elsewhere."""
    if not 1 <= site <= basis.N:
        raise IndexGuard(f"site {site} outside 1..{basis.N}")
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    left = np.eye(2 ** (basis.N - site))
    right = np.eye(2 ** (site - 1))
    return HermitianOperator(np.kron(left, np.kron(_PAULI[axis], right)))


def chain_bits(basis: ChainBasis) -> tuple[np.ndarray, np.ndarray]:
    """(states, signs): every basis index, and signs[s, i] = +1 if site i+1 is up in s.

    Flipping site i+1 of state s gives state s ^ (1 << i).
    """
    states = np.arange(basis.dim)
    return states, 2.0 * ((states[:, np.newaxis] >> np.arange(basis.N)) & 1) - 1.0


@lru_cache(maxsize=4)
def total_spin_ops(
    basis: ChainBasis,
) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Collective S_alpha = sum_i sigma_alpha^(i) / 2 on the chain, built once per N."""
    states, signs = chain_bits(basis)
    sx = np.zeros((basis.dim, basis.dim))
    sy = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i in range(basis.N):
        # sigma_x|down> = |up>, sigma_y|down> = -i|up>, sigma_y|up> = i|down>
        flipped = states ^ (1 << i)
        sx[flipped, states] = 0.5
        sy[flipped, states] = 0.5j * signs[:, i]
    sz = np.diag(signs.sum(axis=1) / 2.0)
    return HermitianOperator(sx), HermitianOperator(sy), HermitianOperator(sz)
