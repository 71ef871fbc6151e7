import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misonoma.complex_linalg import (
    BASIS_TOL,
    angle_theta,
    as_cvec,
    as_rows,
    gram_schmidt,
    project_complement,
)


def _random_cvec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


complex_vecs = st.integers(0, 2**32 - 1).map(
    lambda s: _random_cvec(np.random.default_rng(s), 4)
)


def _project_onto(v, basis):
    """Projection of v onto the span of the basis rows."""
    return v - project_complement(v, basis)


def _max_defect(basis):
    """Largest deviation of the basis rows from orthonormality (0 for an
    empty basis)."""
    worst = 0.0
    for i, vi in enumerate(basis):
        worst = max(worst, abs(np.linalg.norm(vi) - 1.0))
        for vj in basis[i + 1 :]:
            worst = max(worst, abs(np.vdot(vi, vj)))
    return worst


def test_gram_schmidt_orthonormal_input_unchanged():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    for stack in ([e1, e2], np.array([e1, e2])):
        basis = gram_schmidt(stack)
        assert basis.shape == (2, 2) and basis.dtype == np.complex128
        np.testing.assert_allclose(basis[0], e1, atol=1e-15)
        np.testing.assert_allclose(basis[1], e2, atol=1e-15)


def test_gram_schmidt_rank_deficiency_deflated():
    basis = gram_schmidt([[1.0, 0.0], [2.0, 0.0]])
    assert basis.shape == (1, 2)
    np.testing.assert_allclose(basis[0], [1.0, 0.0], atol=1e-15)


def test_gram_schmidt_spans_input():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, 0.0])
    basis = gram_schmidt([v1, v2])
    assert len(basis) == 2
    for v in (v1, v2):
        np.testing.assert_allclose(_project_onto(v, basis), v, atol=1e-12)


def test_gram_schmidt_dimension_mismatch():
    for stack in (
        [[1.0, 0.0], [1.0, 0.0, 0.0]],  # ragged
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [complex(0.0, np.inf), 1.0]],
        np.zeros((2, 0)),  # zero-length vectors
        [1.0, 0.0],  # one vector, not a stack
        np.ones((1, 2, 2)),
    ):
        with pytest.raises(ValueError):
            gram_schmidt(stack)


def test_gram_schmidt_orthonormality_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cols = [_random_cvec(rng, 5) for _ in range(rng.integers(1, 6))]
        basis = gram_schmidt(cols)
        assert _max_defect(basis) <= BASIS_TOL


def test_project_onto_in_span_and_orthogonal():
    basis = gram_schmidt([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    v_in = np.array([2.0 + 1j, -3.0, 0.0])
    np.testing.assert_allclose(_project_onto(v_in, basis), v_in, atol=1e-14)
    v_perp = np.array([0.0, 0.0, 1.0 - 2j])
    np.testing.assert_allclose(_project_onto(v_perp, basis), 0.0, atol=1e-14)
    np.testing.assert_allclose(project_complement(v_in, basis), 0.0, atol=1e-14)
    np.testing.assert_allclose(project_complement(v_perp, basis), v_perp, atol=1e-14)


def test_projection_dimension_mismatch():
    basis = gram_schmidt([[1.0, 0.0]])
    # a basis of another width, a 1-D or 3-D basis, and the same as nested lists
    for bad in (basis, basis[0], basis[None], basis.tolist(), [1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_complement([1.0, 0.0, 0.0], bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        project_complement(np.ones((4, 3)), basis)
    # an array-like basis of the right width is accepted
    np.testing.assert_array_equal(project_complement([1.0, 2.0], basis.tolist()), [0.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(complex_vecs, complex_vecs, complex_vecs)
def test_projection_idempotent_and_pythagoras(a, b, v):
    basis = gram_schmidt([a, b])
    p = _project_onto(v, basis)
    np.testing.assert_allclose(_project_onto(p, basis), p, atol=1e-12)
    q = project_complement(v, basis)
    # complement orthogonal to the span
    for bv in basis:
        assert abs(np.vdot(bv, q)) <= 1e-12 * np.linalg.norm(v)
    assert abs(
        np.linalg.norm(v) ** 2 - np.linalg.norm(p) ** 2 - np.linalg.norm(q) ** 2
    ) <= 1e-12 * max(np.linalg.norm(v) ** 2, 1.0)
    # complement is computed as the difference, so the sum recovers v
    np.testing.assert_allclose(p + q, v, rtol=0, atol=1e-14 * np.linalg.norm(v))


def test_angle_theta_basic():
    h = np.array([1.0 + 2j, -0.5])
    assert angle_theta(h, h) == pytest.approx(1.0, abs=1e-15)
    assert angle_theta([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    h2 = np.array([1.0, 1.0]) / np.sqrt(2)
    assert angle_theta([1.0, 0.0], h2) == pytest.approx(0.5, abs=1e-14)


def test_angle_theta_zero_vector_rejected():
    with pytest.raises(ValueError):
        angle_theta([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    complex_vecs,
    complex_vecs,
    st.floats(0.1, 10.0),
    st.floats(0.0, 2 * np.pi),
)
def test_angle_theta_symmetric_and_scale_invariant(h1, h2, scale, phase):
    t = angle_theta(h1, h2)
    assert 0.0 <= t <= 1.0
    assert angle_theta(h2, h1) == pytest.approx(t, abs=1e-13)
    z = scale * np.exp(1j * phase)
    assert angle_theta(z * h1, h2) == pytest.approx(t, abs=1e-12)
    assert angle_theta(h1, z * h2) == pytest.approx(t, abs=1e-12)


def _edge_pair(rng, i):
    """A pair of vectors: independent, aligned, orthogonal or nearly aligned."""
    nt = int(rng.integers(2, 9))
    h1 = _random_cvec(rng, nt)
    h2 = _random_cvec(rng, nt)
    kind = i % 4
    if kind == 1:
        h2 = complex(*rng.normal(size=2)) * h1
    elif kind == 2:
        h2 = h2 - h1 * np.vdot(h1, h2) / np.vdot(h1, h1)
    elif kind == 3:
        h2 = h1 + 1e-8 * h2
    return h1, h2


def test_angle_theta_in_range_unchanged():
    # bitwise the unscaled formula, on 2*10^4 pairs whose entries span
    # 1e-30..1e30 (squared norms 1e-60..1e60)
    rng = np.random.default_rng(3)
    for i in range(20_000):
        h1, h2 = _edge_pair(rng, i)
        h1 = h1 * 10.0 ** rng.uniform(-30, 30)
        h2 = h2 * 10.0 ** rng.uniform(-30, 30)
        n1 = float(np.vdot(h1, h1).real)
        n2 = float(np.vdot(h2, h2).real)
        t = min(max(float(abs(np.vdot(h1, h2)) ** 2 / (n1 * n2)), 0.0), 1.0)
        assert angle_theta(h1, h2) == t, (h1, h2)


def test_angle_theta_exponent_range():
    # vectors whose largest entry lies in [0.5, 1), scaled by 2^k with
    # 202 <= |k| < 900, so that each squared norm lies outside
    # [2^-400, 2^400] (out to about 1e+-540): the scaling is undone
    # exactly, so theta is that of the unscaled pair
    rng = np.random.default_rng(4)
    for i in range(2_000):
        h1, h2 = _edge_pair(rng, i)
        h1, h2 = (h / 2.0 ** math.frexp(float(np.abs(h.view(float)).max()))[1] for h in (h1, h2))
        k1, k2 = (int(rng.choice([-1, 1])) * int(rng.integers(202, 900)) for _ in range(2))
        assert angle_theta(h1 * 2.0**k1, h2 * 2.0**k2) == angle_theta(h1, h2)
    assert angle_theta([1e-160, 1e-160], [1e-160, 0.0]) == pytest.approx(0.5, rel=1e-15)
    assert angle_theta([1e200, 0.0], [1e200, 1e200]) == pytest.approx(0.5, rel=1e-15)


def test_as_cvec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_cvec([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cvec([np.nan, 1.0])
    with pytest.raises(ValueError):
        as_cvec([1.0, complex(0.0, np.inf)])
    with pytest.raises(ValueError):
        as_cvec([])
    # as_rows takes a vector or a stack, under the same entry checks
    assert as_rows([1.0, 2j]).shape == as_rows([[1.0, 2j]]).shape == (1, 2)
    for bad in (1.0, np.ones((2, 2, 2)), [[np.nan, 1.0]], np.ones((3, 0)), [[1.0], [1.0, 2.0]]):
        with pytest.raises(ValueError):
            as_rows(bad)


def test_empty_basis_identity_complement():
    for nt in (2, 4):
        basis = gram_schmidt(np.zeros((0, nt)))
        assert basis.shape == (0, nt) and basis.dtype == np.complex128
        v = np.arange(1, nt + 1) * (1.0 + 1j)
        np.testing.assert_allclose(project_complement(v, basis), v, atol=0)
        np.testing.assert_allclose(_project_onto(v, basis), 0.0, atol=0)
