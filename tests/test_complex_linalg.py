import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misonoma.complex_linalg import (
    BASIS_TOL,
    OrthonormalBasis,
    angle_theta,
    as_cvec,
    gram_schmidt,
    project_complement,
    project_onto,
)


def _random_cvec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


complex_vecs = st.integers(0, 2**32 - 1).map(
    lambda s: _random_cvec(np.random.default_rng(s), 4)
)


def test_gram_schmidt_orthonormal_input_unchanged():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    basis = gram_schmidt([e1, e2])
    assert len(basis) == 2
    np.testing.assert_allclose(basis.vectors[0], e1, atol=1e-15)
    np.testing.assert_allclose(basis.vectors[1], e2, atol=1e-15)


def test_gram_schmidt_rank_deficiency_deflated():
    basis = gram_schmidt([[1.0, 0.0], [2.0, 0.0]])
    assert len(basis) == 1
    np.testing.assert_allclose(basis.vectors[0], [1.0, 0.0], atol=1e-15)


def test_gram_schmidt_spans_input():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, 0.0])
    basis = gram_schmidt([v1, v2])
    assert len(basis) == 2
    for v in (v1, v2):
        np.testing.assert_allclose(project_onto(v, basis), v, atol=1e-12)


def test_gram_schmidt_dimension_mismatch():
    with pytest.raises(ValueError):
        gram_schmidt([[1.0, 0.0], [1.0, 0.0, 0.0]])


def test_gram_schmidt_orthonormality_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cols = [_random_cvec(rng, 5) for _ in range(rng.integers(1, 6))]
        basis = gram_schmidt(cols)
        assert basis.max_defect() <= BASIS_TOL


def test_project_onto_in_span_and_orthogonal():
    basis = gram_schmidt([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    v_in = np.array([2.0 + 1j, -3.0, 0.0])
    np.testing.assert_allclose(project_onto(v_in, basis), v_in, atol=1e-14)
    v_perp = np.array([0.0, 0.0, 1.0 - 2j])
    np.testing.assert_allclose(project_onto(v_perp, basis), 0.0, atol=1e-14)
    np.testing.assert_allclose(project_complement(v_in, basis), 0.0, atol=1e-14)
    np.testing.assert_allclose(project_complement(v_perp, basis), v_perp, atol=1e-14)


def test_projection_dimension_mismatch():
    basis = gram_schmidt([[1.0, 0.0]])
    with pytest.raises(ValueError):
        project_onto([1.0, 0.0, 0.0], basis)


@settings(max_examples=50, deadline=None)
@given(complex_vecs, complex_vecs, complex_vecs)
def test_projection_idempotent_and_pythagoras(a, b, v):
    basis = gram_schmidt([a, b])
    p = project_onto(v, basis)
    np.testing.assert_allclose(project_onto(p, basis), p, atol=1e-12)
    q = project_complement(v, basis)
    # complement orthogonal to the span
    for bv in basis.vectors:
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


def test_as_cvec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_cvec([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cvec([np.nan, 1.0])
    with pytest.raises(ValueError):
        as_cvec([1.0, complex(0.0, np.inf)])
    with pytest.raises(ValueError):
        as_cvec([])


def test_empty_basis_identity_complement():
    basis = OrthonormalBasis(vectors=[])
    v = np.array([1.0 + 1j, 2.0])
    np.testing.assert_allclose(project_complement(v, basis), v, atol=0)
    np.testing.assert_allclose(project_onto(v, basis), 0.0, atol=0)
