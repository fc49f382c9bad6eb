"""Small dense symmetric linear algebra on top of numpy.linalg (LAPACK).

Everything the other modules need: symmetric eigenvalues, Cholesky
factorizations, positive definite inverses (every SPD system in the package is
solved by `spd_inverse` and a matmul; a stack of blocks is inverted in one
call), and minimum-norm solutions of transpose systems B^T a = c with
B = b (x) I_p for an incidence operator b of a connected graph, from the
graph-level Gram matrix b^T b and the products of B and B^T, which the caller
supplies: no b is formed here and no pseudo-inverse either. Inputs are
validated here and LAPACK failures are mapped to the package errors, so no
bare numpy exception escapes. Its two thresholds are constants:
`SYMMETRY_TOL`, the largest asymmetry `symmetric` symmetrizes, and
`SPECTRUM_ZERO`, the relative cutoff below which `smallest_nonzero` counts an
eigenvalue as zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AllZero,
    DeconoptError,
    DimensionMismatch,
    Inconsistent,
    IndefiniteInput,
    NonFinite,
    NotPositiveDefinite,
)
from .tolerances import DEFAULT, Tolerances

# largest absolute asymmetry `symmetric` symmetrizes rather than refuses
SYMMETRY_TOL = 1e-12
# relative cutoff separating "zero" eigenvalues from the rest; a connected
# graph's Laplacian computes its zero at |lam_0| / lam_max ~ 1e-16, and a
# 1000-node path has lam_2 / lam_max = 2.5e-6
SPECTRUM_ZERO = 1e-9


def symmetric(a) -> np.ndarray:
    """A read-only float copy of a square, finite, symmetric matrix,
    symmetrized: DimensionMismatch unless square or when its absolute
    asymmetry exceeds `SYMMETRY_TOL`, NonFinite for a non-finite entry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > SYMMETRY_TOL:
        raise DimensionMismatch(
            f"matrix asymmetry {skew:.3e} exceeds tolerance {SYMMETRY_TOL:.3e}"
        )
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


def sym_eigen(a) -> np.ndarray:
    """The eigenvalues of a symmetric matrix, ascending (LAPACK via
    numpy.linalg.eigvalsh): no eigenvector is formed. The matrix is checked
    by `symmetric` first.
    """
    try:
        return np.linalg.eigvalsh(symmetric(a))
    except np.linalg.LinAlgError as exc:
        raise DeconoptError(f"symmetric eigensolver failed: {exc}") from exc


def smallest_nonzero(eigvals: np.ndarray) -> float:
    """Smallest eigenvalue strictly above the zero cutoff, from the ascending
    eigenvalues of a PSD matrix.

    The cutoff is `SPECTRUM_ZERO * lambda_max`. Raises IndefiniteInput when
    the matrix has an eigenvalue below -cutoff, AllZero when nothing exceeds
    the cutoff.
    """
    zero_tol = SPECTRUM_ZERO * max(float(eigvals[-1]), 0.0)
    if eigvals[0] < -zero_tol:
        raise IndefiniteInput(
            f"matrix has negative eigenvalue {eigvals[0]:.3e}"
        )
    above = eigvals[eigvals > zero_tol]
    if above.size == 0:
        raise AllZero(f"no eigenvalue above cutoff {zero_tol:.3e}")
    return float(above[0])


def spd_factor(a) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefinite when one does not exist."""
    try:
        return np.linalg.cholesky(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc


def spd_inverse(a) -> np.ndarray:
    """Explicit inverse (L L^T)^-1 = L^-T L^-1 from one Cholesky factor.

    A constant system is inverted once and each solve with it is a matmul.
    A (k, p, p) stack is inverted block by block in one batched call, each
    block to the same bits as its own 2-D inverse; one block without a
    Cholesky factor raises NotPositiveDefinite for the stack.
    """
    arr = np.asarray(a, dtype=float)
    low = spd_factor(arr)
    low_inv = np.linalg.solve(low, np.eye(arr.shape[-1]))
    inv = low_inv.mT @ low_inv
    return 0.5 * (inv + inv.mT)


def solve_spd(a, b) -> np.ndarray:
    """Solve a positive definite system through `spd_inverse`."""
    inv = spd_inverse(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (inv.shape[0],):
        raise DimensionMismatch(f"rhs length {b.shape} does not match order {inv.shape[0]}")
    return inv @ b


def range_floor(gram_trace: float, p: int) -> float:
    """Absolute floor of the range test of B^T a = c, 1e-12 |B|_F or 1e-12:
    a rhs at roundoff scale is "in range" by convention. The verification's
    final-dual check uses the same floor for B = E_o."""
    return 1e-12 * max(1.0, math.sqrt(p) * math.sqrt(gram_trace))


class MinNormTransposeSolver:
    """Reusable minimum-norm solver for B^T a = c, with B = b (x) I_p.

    b is never formed: the solver takes its graph-level Gram matrix b^T b and
    the two products `apply` (y -> B y) and `apply_transpose` (a -> B^T a) on
    flat stacked vectors. The returned solution is a = B (B^T B)^+ c, the
    unique solution lying in the column space of B. b must be an incidence
    operator of a connected graph, so null(b) = span(1) and
    (b^T b)^+ = (b^T b + 11^T/n)^-1 - 11^T/n, whose last term B annihilates:
    the solver inverts the SPD matrix b^T b + 11^T/n once (`spd_inverse`), and
    each reconstruction is then one matmul on c reshaped to blocks and one
    `apply`.
    """

    def __init__(self, gram, apply, apply_transpose, p: int = 1,
                 tolerances: Tolerances = DEFAULT):
        gram = np.asarray(gram, dtype=float)
        if not np.all(np.isfinite(gram)):
            raise NonFinite("Gram matrix contains non-finite entries")
        self.p = int(p)
        self.tolerances = tolerances
        self._apply = apply
        self._apply_transpose = apply_transpose
        self._cols = gram.shape[0]
        self._inverse = spd_inverse(gram + 1.0 / self._cols)
        self._floor = range_floor(float(np.trace(gram)), self.p)

    def __call__(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (self._cols * self.p,):
            raise DimensionMismatch(
                f"rhs length {c.shape} does not match {self._cols * self.p}"
            )
        alpha = self._apply((self._inverse @ c.reshape(self._cols, self.p)).ravel())
        resid = np.linalg.norm(self._apply_transpose(alpha) - c)
        if not resid <= self.tolerances.minnorm_consistency * np.linalg.norm(c) + self._floor:
            raise Inconsistent(
                f"rhs is not in the range of the transpose (residual {resid:.3e})"
            )
        return alpha
