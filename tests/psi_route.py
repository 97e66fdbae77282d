"""The least-squares measurement as Eldar & Forney write it: the test oracle.

Each density operator is factored into scaled eigenvector columns,
``rho_i = phi_i phi_i*``. The prior-weighted factors ``psi_i = sqrt(p_i) phi_i``
sit side by side in the block matrix ``Psi``, and the measurement operator
for state i is ``mu_i mu_i*`` with ``mu_i = (Psi Psi*)^{-1/2} psi_i``
(Eldar & Forney, "On quantum detection and the square-root measurement",
2001). ``qsd`` computes the same operators from ``rho_bar = Psi Psi*``
without any factorization; this route, taken as written, is what it is
checked against, with :func:`inv_sqrt_psd` as the literal
``W = rho_bar^{-1/2}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qsd import SingularMatrixError, numeric_rank
from qsd.linalg import PSD_RANK_REL_TOL, as_matrix, eig_hermitian, hermitian_part, psd_rank


def inv_sqrt_psd(m, rank_tol: float = PSD_RANK_REL_TOL) -> np.ndarray:
    """Hermitian inverse square root ``W`` of a positive definite matrix.

    Raises ``SingularMatrixError`` when :func:`qsd.linalg.psd_rank` at
    ``rank_tol`` is below the dimension, i.e. the matrix is not safely
    invertible.
    """
    res = eig_hermitian(as_matrix(m))
    w = res.values
    if psd_rank(w, rank_tol) < len(w):
        raise SingularMatrixError(
            f"min eigenvalue {float(w[0]):.3e} below "
            f"{rank_tol:.1e} * {float(w[-1]):.3e}"
        )
    v = res.vectors
    return hermitian_part((v / np.sqrt(w)) @ v.conj().T)


@dataclass(frozen=True)
class Factorization:
    """Per-state factors ``phi`` with ``rho = phi @ phi*``.

    Each factor is n x r with mutually orthogonal columns; column k has
    squared norm equal to the k-th kept eigenvalue (descending).
    """

    factors: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]


def factorize(e) -> Factorization:
    """Factor every density operator into scaled eigenvector columns."""
    factors = []
    ranks = []
    for rho in e.rhos:
        r = numeric_rank(rho)
        res = eig_hermitian(rho)
        # eigh is ascending; keep the top r eigenpairs, largest first
        idx = np.argsort(res.values)[::-1][:r]
        vals = np.clip(res.values[idx], 0.0, None)
        factors.append(res.vectors[:, idx] * np.sqrt(vals))
        ranks.append(r)
    return Factorization(factors=tuple(factors), ranks=tuple(ranks))


@dataclass(frozen=True)
class BlockMatrix:
    """Prior-weighted factors placed side by side.

    Block i holds ``sqrt(prior_i) * phi_i`` and starts at column
    ``offsets[i]``.
    """

    psi: np.ndarray
    offsets: tuple[int, ...]
    ranks: tuple[int, ...]

    def block(self, i: int) -> np.ndarray:
        off = self.offsets[i]
        return self.psi[:, off : off + self.ranks[i]]


def build_psi(e, f: Factorization) -> BlockMatrix:
    """Assemble the n x (sum of ranks) block-column matrix."""
    blocks = [np.sqrt(prior) * phi for prior, phi in zip(e.priors, f.factors)]
    offsets = tuple(int(o) for o in np.cumsum((0,) + f.ranks[:-1]))
    return BlockMatrix(psi=np.hstack(blocks), offsets=offsets, ranks=f.ranks)


def psi_route_lsm(e) -> list[np.ndarray]:
    """The least-squares operators ``mu_i mu_i*``, one state at a time."""
    block = build_psi(e, factorize(e))
    w = inv_sqrt_psd(hermitian_part(block.psi @ block.psi.conj().T))
    ops = []
    for i in range(e.num_states):
        mu = w @ block.block(i)
        ops.append(hermitian_part(mu @ mu.conj().T))
    return ops
