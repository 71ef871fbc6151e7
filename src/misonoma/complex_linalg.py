"""Minimal dense complex-vector kernel.

Channel and beam vectors are short (a handful of antenna coefficients), so
subspace projections are computed through an explicit orthonormal basis
rather than pseudo-inverses: numerically stabler at tiny dimension and
avoids matrix inversion entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Deflation threshold for Gram-Schmidt, relative to the largest input norm.
DEFAULT_RANK_TOL = 1e-10

# Orthonormality guaranteed by gram_schmidt (two deflation passes).
BASIS_TOL = 1e-12


def as_cvec(x) -> np.ndarray:
    """Validate and convert to a 1-D complex vector."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


@dataclass
class OrthonormalBasis:
    """Mutually orthonormal vectors spanning a subspace of C^n.

    gram_schmidt guarantees |<v_i, v_j>| <= BASIS_TOL for i != j and
    | ||v_i|| - 1 | <= BASIS_TOL.
    """

    vectors: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.vectors)

    def max_defect(self) -> float:
        """Largest deviation from orthonormality (0 for an empty basis)."""
        worst = 0.0
        for i, vi in enumerate(self.vectors):
            worst = max(worst, abs(np.linalg.norm(vi) - 1.0))
            for vj in self.vectors[i + 1 :]:
                worst = max(worst, abs(np.vdot(vi, vj)))
        return worst


def gram_schmidt(columns) -> OrthonormalBasis:
    """Orthonormal basis of span(columns) via modified Gram-Schmidt.

    Vectors whose residual norm after deflation is <= DEFAULT_RANK_TOL
    times the largest input norm are dropped, so rank-deficient inputs
    simply yield a smaller basis.  A second deflation pass keeps the result
    orthonormal to ~1e-15 even for nearly parallel inputs.
    """
    cols = [as_cvec(c) for c in columns]
    if len({c.size for c in cols}) > 1:
        raise ValueError("all vectors must have the same length")
    max_norm = max((float(np.linalg.norm(c)) for c in cols), default=0.0)
    drop = DEFAULT_RANK_TOL * max_norm

    basis: list[np.ndarray] = []
    for c in cols:
        r = c.astype(np.complex128, copy=True)
        for _ in range(2):
            for b in basis:
                r -= np.vdot(b, r) * b
        n = float(np.linalg.norm(r))
        if n > drop:
            basis.append(r / n)
    return OrthonormalBasis(vectors=basis)


def _check_dims(v: np.ndarray, basis: OrthonormalBasis) -> None:
    if basis.vectors and basis.vectors[0].size != v.size:
        raise ValueError("vector/basis dimension mismatch")


def project_onto(v, basis: OrthonormalBasis) -> np.ndarray:
    """Projection of v onto the span of the basis: sum_i <b_i, v> b_i."""
    v = as_cvec(v)
    _check_dims(v, basis)
    out = np.zeros_like(v)
    for b in basis.vectors:
        out += np.vdot(b, v) * b
    return out


def project_complement(v, basis: OrthonormalBasis) -> np.ndarray:
    """Component of v orthogonal to the span of the basis: v - P v."""
    v = as_cvec(v)
    _check_dims(v, basis)
    return v - project_onto(v, basis)


def angle_theta(h1, h2) -> float:
    """Squared normalized correlation |h1^H h2|^2 / (||h1||^2 ||h2||^2).

    Lies in [0, 1]: 0 for orthogonal vectors, 1 for aligned ones.  Clamped
    against round-off since Cauchy-Schwarz can be violated by ~1e-16 in
    floating point.
    """
    h1 = as_cvec(h1)
    h2 = as_cvec(h2)
    n1 = float(np.vdot(h1, h1).real)
    n2 = float(np.vdot(h2, h2).real)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle_theta requires nonzero vectors")
    t = abs(np.vdot(h1, h2)) ** 2 / (n1 * n2)
    return min(max(float(t), 0.0), 1.0)
