"""Dense reference operators, built independently of the library's band and bit-table forms.

Tests compare the library's chain operators and spin moments against the
site Paulis, and its squeezed vacuum against a spectral exponential of the
ladder operators.
"""

import numpy as np

from anticrit.fock import FockSpace
from anticrit.spectral import HermitianOperator
from anticrit.spin import ChainBasis

# single-site Paulis in (down, up) ordering so that bit value 1 <-> spin up
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]]),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]]),
}


def site_pauli(basis: ChainBasis, site: int, axis: str) -> HermitianOperator:
    """sigma_axis acting on site 1..N, identity elsewhere."""
    left = np.eye(2 ** (basis.N - site))
    right = np.eye(2 ** (site - 1))
    return HermitianOperator(np.kron(left, np.kron(PAULI[axis], right)))


def annihilation(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """(a, adag) with <n-1|a|n> = sqrt(n)."""
    a = np.diag(np.sqrt(np.arange(1.0, space.dim)), k=1)
    return a, a.T.copy()
