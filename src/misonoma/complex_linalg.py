"""Minimal dense complex-vector kernel.

Channel and beam vectors are short (a handful of antenna coefficients), so
subspace projections are computed through an explicit orthonormal basis
rather than pseudo-inverses: numerically stabler at tiny dimension and
avoids matrix inversion entirely.  A basis is a plain (r, n) complex
matrix whose rows are orthonormal (gram_schmidt builds one; r may be 0).
"""

from __future__ import annotations

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


def as_rows(x) -> np.ndarray:
    """Validate and convert a vector (as one row) or an (n, Nt) stack to a
    2-D complex array with finite entries and Nt >= 1."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[-1] < 1 or not np.isfinite(v).all():
        raise ValueError("expected a finite vector or (n, Nt) stack with Nt >= 1")
    return np.atleast_2d(v)


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormal basis of the span of vectors (an (m, n) matrix or a
    sequence of m vectors of one length), as the rows of an (r, n) matrix,
    by modified Gram-Schmidt.

    Vectors whose residual norm after deflation is <= DEFAULT_RANK_TOL
    times the largest input norm are dropped, so rank-deficient inputs
    simply yield fewer rows; an (0, n) input gives an (0, n) basis.  A
    second deflation pass keeps the rows orthonormal to BASIS_TOL
    (|<b_i, b_j>| and | ||b_i|| - 1 |) even for nearly parallel inputs.
    """
    V = np.asarray(vectors, dtype=np.complex128)  # ragged: ValueError
    if V.ndim != 2 or V.shape[1] < 1 or not np.all(np.isfinite(V)):
        raise ValueError("expected a stack of finite 1-D vectors of one nonzero length")
    drop = DEFAULT_RANK_TOL * max((float(np.linalg.norm(v)) for v in V), default=0.0)

    basis: list[np.ndarray] = []
    for v in V:
        r = v.copy()
        for _ in range(2):
            for b in basis:
                r -= np.vdot(b, r) * b
        n = float(np.linalg.norm(r))
        if n > drop:
            basis.append(r / n)
    return np.array(basis, dtype=np.complex128).reshape(-1, V.shape[1])


def vdot_rows(w: np.ndarray, H: np.ndarray) -> np.ndarray:
    """np.vdot(w, h) for every row h of H, written elementwise so that a
    row's value does not depend on the other rows."""
    return (w.conj() * H).sum(axis=1)


def project_complement(V, basis) -> np.ndarray:
    """v - sum_i <b_i, v> b_i for a vector v = V or every row v of an (n, Nt)
    stack V: its component orthogonal to the rows of an orthonormal (r, Nt)
    basis (r may be 0).  A vector is projected as a one-row stack, so a
    row's result is bitwise the same alone, as a vector or in any stack."""
    rows = as_rows(V)
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.ndim != 2 or basis.shape[1] != rows.shape[1]:
        raise ValueError("vector/basis dimension mismatch")
    out = rows - sum(np.outer(vdot_rows(b, rows), b) for b in basis)
    return out[0] if np.ndim(V) == 1 else out


# A vector whose largest entry lies in [2^-101, 2^100) needs no scaling:
# its squared norm lies within nt * 2^(+-202), so a product of two such
# norms neither under- nor overflows.
_UNSCALED_EXP = 100

# angle_theta uses its inputs as they are while both squared norms lie in
# [2^-400, 2^400]: their product and |h1^H h2|^2 then stay in range.
_NORM_RANGE = (2.0**-400, 2.0**400)


def pow2_normalized(v: np.ndarray) -> np.ndarray:
    """v (a vector, or each row of a 2-D array) times the power of two that
    brings its largest real or imaginary part into [0.5, 1), where that part
    lies outside [2^-101, 2^100); other vectors are returned unscaled.

    Scaling by a power of two is exact, so squared norms and correlations
    of the result are those of v times a power of two, without under- or
    overflow.  Vectors in range are left alone because a scalar squared
    magnitude (a libm pow) is not always correctly rounded: a scaled copy
    could move a result by an ulp.
    """
    parts = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=-1, keepdims=True))
    return np.ldexp(parts, np.where(abs(e) > _UNSCALED_EXP, -e, 0)).view(np.complex128)


def angle_theta(h1, h2) -> float:
    """Squared normalized correlation |h1^H h2|^2 / (||h1||^2 ||h2||^2).

    Lies in [0, 1]: 0 for orthogonal vectors, 1 for aligned ones.  Clamped
    against round-off since Cauchy-Schwarz can be violated by ~1e-16 in
    floating point.  When a squared norm lies outside [2^-400, 2^400], both
    vectors are first scaled by powers of two (pow2_normalized), so that
    squared norms of about 1e-300 or 1e+300 neither underflow nor overflow.
    """
    return squared_correlation(as_cvec(h1), as_cvec(h2))


def squared_correlation(h1: np.ndarray, h2: np.ndarray) -> float:
    """angle_theta of two vectors that as_cvec has already validated."""
    n1 = float(np.vdot(h1, h1).real)
    n2 = float(np.vdot(h2, h2).real)
    lo, hi = _NORM_RANGE
    if not (lo <= n1 <= hi and lo <= n2 <= hi):
        h1, h2 = pow2_normalized(h1), pow2_normalized(h2)
        n1 = float(np.vdot(h1, h1).real)
        n2 = float(np.vdot(h2, h2).real)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle_theta requires nonzero vectors")
    t = abs(np.vdot(h1, h2)) ** 2 / (n1 * n2)
    return min(max(float(t), 0.0), 1.0)
