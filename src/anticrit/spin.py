"""Collective spin in the Dicke subspace from its ladder band, and the spin
chain's bit table and total spin applied to a state by bit flips.

Chain basis convention: product states are indexed by bit patterns with
site 1 as the least significant bit; bit i = 1 means spin i up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHAIN_N_MIN = 3
CHAIN_N_MAX = 12


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


def dicke_ladder(basis: DickeBasis) -> tuple[np.ndarray, np.ndarray]:
    """(m, raising): S_z's diagonal m = -N/2..N/2 and <m+1|S_+|m> = sqrt(S(S+1) - m(m+1))."""
    S = basis.N / 2.0
    m = np.arange(-S, S + 1.0)
    return m, np.sqrt(S * (S + 1.0) - m[:-1] * (m[:-1] + 1.0))


def apply_collective_spin(
    basis: DickeBasis, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x psi, S_y psi, S_z psi) in the Dicke basis by ladder shifts; no matrix is built."""
    m, raising = dicke_ladder(basis)
    up = np.concatenate(([0.0], raising * psi[:-1]))  # S_+ psi
    down = np.concatenate((raising * psi[1:], [0.0]))  # S_- psi
    return 0.5 * (up + down), -0.5j * (up - down), m * psi


def chain_bits(basis: ChainBasis) -> tuple[np.ndarray, np.ndarray]:
    """(states, signs): every basis index, and signs[s, i] = +1 if site i+1 is up in s.

    Flipping site i+1 of state s gives state s ^ (1 << i).
    """
    states = np.arange(basis.dim)
    return states, 2.0 * ((states[:, np.newaxis] >> np.arange(basis.N)) & 1) - 1.0


def apply_total_spin(
    basis: ChainBasis, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x psi, S_y psi, S_z psi) for S_alpha = sum_i sigma_alpha^(i) / 2, from bit flips.

    No operator matrix is built: each site's flip permutes the amplitudes.
    """
    states, signs = chain_bits(basis)
    sx_psi = np.zeros(basis.dim, dtype=np.result_type(psi, np.float64))
    sy_psi = np.zeros(basis.dim, dtype=np.complex128)
    for i in range(basis.N):
        # sigma_x|down> = |up>, sigma_y|down> = -i|up>, sigma_y|up> = i|down>
        flipped = psi[states ^ (1 << i)]
        sx_psi += 0.5 * flipped
        sy_psi += -0.5j * signs[:, i] * flipped
    return sx_psi, sy_psi, signs.sum(axis=1) / 2.0 * psi
