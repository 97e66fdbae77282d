"""The least-squares measurement as Eldar & Forney write it: the test oracle.

Each density operator is factored into scaled eigenvector columns,
``rho_i = phi_i phi_i*``. The prior-weighted factors ``psi_i = sqrt(p_i) phi_i``
sit side by side in the block matrix ``Psi``, and the measurement operator
for state i is ``mu_i mu_i*`` with ``mu_i = (Psi Psi*)^{-1/2} psi_i``
(Eldar & Forney, "On quantum detection and the square-root measurement",
2001). ``qsd`` computes the same operators from its thin factors of the
weighted states, scaled in the eigenbasis of ``rho_bar = Psi Psi*``; this
route, taken as written, is what it is checked against, with
:func:`inv_sqrt_psd` as the literal ``W = rho_bar^{-1/2}`` and
:func:`numeric_rank`, an SVD rank, as the independent check on the
eigenvalue rank ``qsd`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qsd.linalg import PSD_RANK_REL_TOL, as_matrix, hermitian_part, spectrum_rank

# Singular values at or below this fraction of the largest count as zero.
RANK_REL_TOL = 1e-10


def numeric_rank(m):
    """Number of singular values above ``RANK_REL_TOL`` times the largest one.

    The zero matrix has rank 0. A stack of shape (..., n, k) takes one SVD
    call and gives an integer array with the rank of each matrix.
    """
    a = np.asarray(m, dtype=np.complex128)
    s = np.linalg.svd(a, compute_uv=False)
    ranks = np.count_nonzero(s > RANK_REL_TOL * s[..., :1], axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def inv_sqrt_psd(m) -> np.ndarray:
    """Hermitian inverse square root ``W`` of a positive definite matrix.

    Raises ``ValueError`` when :func:`qsd.linalg.spectrum_rank` is below the
    dimension, i.e. the matrix is not safely invertible.
    """
    w, v = np.linalg.eigh(hermitian_part(as_matrix(m)))
    if spectrum_rank(w) < len(w):
        raise ValueError(
            f"min eigenvalue {float(w[0]):.3e} below "
            f"{PSD_RANK_REL_TOL:.1e} * {float(w[-1]):.3e}"
        )
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
        w, v = np.linalg.eigh(hermitian_part(rho))
        # eigh is ascending; keep the top r eigenpairs, largest first
        idx = np.argsort(w)[::-1][:r]
        vals = np.clip(w[idx], 0.0, None)
        factors.append(v[:, idx] * np.sqrt(vals))
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
