"""Shared builders for test ensembles and measurements."""

from __future__ import annotations

import numpy as np
import pytest

from qsd import Ensemble, make_povm


def ket(*amplitudes) -> np.ndarray:
    v = np.array(amplitudes, dtype=np.complex128)
    return v / np.linalg.norm(v)


def projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    return np.outer(v, v.conj())


def pure_ensemble(priors, vectors) -> Ensemble:
    return Ensemble(priors, [projector(v) for v in vectors])


def near_collinear_pair(eps) -> Ensemble:
    """|0> and cos(eps)|0> + sin(eps)|1> with equal priors.

    Independent on paper, but the smaller eigenvalue of rho_bar is about
    eps**2 / 4 of the larger, below the span cut for eps <= 1e-5.
    """
    return pure_ensemble((0.5, 0.5), (ket(1, 0), ket(np.cos(eps), np.sin(eps))))


@pytest.fixture
def orthonormal_pair() -> Ensemble:
    return pure_ensemble((0.5, 0.5), (ket(1, 0), ket(0, 1)))


@pytest.fixture
def orthonormal_pair_povm():
    return make_povm([projector(ket(1, 0)), projector(ket(0, 1))])


@pytest.fixture
def zero_plus() -> Ensemble:
    """|0> and |+> with equal priors; the classic symmetric pure pair."""
    return pure_ensemble((0.5, 0.5), (ket(1, 0), ket(1, 1)))


@pytest.fixture
def trine() -> Ensemble:
    """Three equiprobable real qubit states at 120 degrees."""
    vectors = [
        np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        for k in range(3)
    ]
    return pure_ensemble((1 / 3, 1 / 3, 1 / 3), vectors)


def trine_vectors():
    return [
        np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        for k in range(3)
    ]
