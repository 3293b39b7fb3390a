"""Kronecker-structured coupling operator and small eigensolvers.

The joint agent-option coupling is the Kronecker product
``(Ao + I) kron (Aa + I)`` acting on column-stacked states.  It is kept
in factored form: one matvec costs two small dense products, and the
full (Na*No)^2 matrix is never formed.

Vectorization is column-stacking, so ``vec(A X C^T) = (C kron A) vec(X)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

RESTART_SEED = 0  # power_iteration's random restart
SYM_TOL = 1e-10  # the largest |M - M^T| entry symmetric_eigendecomposition accepts

def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).ravel(order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(x).reshape((rows, cols), order="F")


@dataclass(frozen=True)
class KroneckerOperator:
    """The operator ``(Ao + I) kron (Aa + I)`` in factored form."""

    ao_plus_i: np.ndarray
    aa_plus_i: np.ndarray

    @classmethod
    def from_adjacency(cls, aa: np.ndarray, ao: np.ndarray) -> "KroneckerOperator":
        aa = np.asarray(aa, dtype=np.float64)
        ao = np.asarray(ao, dtype=np.float64)
        if aa.ndim != 2 or aa.shape[0] != aa.shape[1]:
            raise ValueError("agent coupling must be square")
        if ao.ndim != 2 or ao.shape[0] != ao.shape[1]:
            raise ValueError("option coupling must be square")
        return cls(
            ao_plus_i=ao + np.eye(ao.shape[0]),
            aa_plus_i=aa + np.eye(aa.shape[0]),
        )

    @property
    def n_agents(self) -> int:
        return self.aa_plus_i.shape[0]

    @property
    def n_options(self) -> int:
        return self.ao_plus_i.shape[0]

    @property
    def dim(self) -> int:
        return self.n_agents * self.n_options

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to a column-stacked state.

        Equals ``(Aa + I) @ unvec(x) @ (Ao + I)^T`` re-vectorized; the joint
        square matrix is never formed.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {x.shape}")
        return vec(self.aa_plus_i @ unvec(x, self.n_agents, self.n_options) @ self.ao_plus_i.T)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


def power_iteration(apply_fn, dim: int, tol: float = 1e-10,
                    max_iter: int = 10000) -> SpectralResult:
    """Leading eigenpair by power iteration with a Rayleigh quotient.

    Starts from the deterministic direction 1/sqrt(dim) and falls back to
    one seeded random restart if that direction stagnates (e.g. lies in a
    non-leading invariant subspace).  The residual is ``max|A v - lam v|``
    with ``v`` unit-norm.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    def run(v0: np.ndarray, budget: int) -> tuple[float, np.ndarray, int, float, bool]:
        v = v0 / np.linalg.norm(v0)
        lam, residual = 0.0, np.inf
        for k in range(1, budget + 1):
            w = apply_fn(v)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                # v lies in the kernel; a restart may still find the
                # leading direction.
                return 0.0, v, k, 0.0, True
            lam = float(v @ w)
            residual = float(np.max(np.abs(w - lam * v)))
            if residual <= tol:
                return lam, v, k, residual, False
            v = w / norm
        return lam, v, budget, residual, False

    lam, v, iters, residual, annihilated = run(np.ones(dim), max_iter)
    if residual > tol or annihilated:
        rng = np.random.default_rng(RESTART_SEED)
        lam2, v2, extra, residual2, annihilated2 = run(rng.standard_normal(dim), max_iter)
        iters += extra
        if not annihilated2:
            lam, v, residual = lam2, v2, residual2
        # Both starts annihilated: the exact kernel pair is the answer.
    if residual > tol:
        raise NumericalError(
            f"power iteration did not reach residual {tol} in {iters} "
            f"iterations (last residual {residual})"
        )
    return SpectralResult(eigenvalue=lam, eigenvector=v, iterations=iters, residual=residual)


def symmetric_eigendecomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m - m.T), initial=0.0) > SYM_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return eigenvalues, eigenvectors
