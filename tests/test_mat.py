import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeholo.errors import DimensionTooSmall, ShapeMismatch, SingularMatrix
from freeholo.mat import (
    as_array,
    complete_to_isometry,
    cond,
    direct_sum,
    inv,
    inv_with_cond,
    isometry_defect,
    kron_left_identity,
    kron_left_identity_apply,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)


def rand_matrix(seed, n, m=None):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_op_norm_hand_values():
    # largest singular value of [[0,2],[0,0]] is 2
    assert op_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)
    assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert op_norm([[0.0]]) == 0.0


def test_op_norm_unitary_invariance():
    a = rand_matrix(3, 4)
    q, _ = np.linalg.qr(rand_matrix(4, 4))
    assert op_norm(q @ a) == pytest.approx(op_norm(a), rel=1e-12)


def test_inv_hand_value():
    m = [[1.0, 1.0], [0.0, 1.0]]
    expected = np.array([[1.0, -1.0], [0.0, 1.0]])
    np.testing.assert_allclose(inv(m), expected, atol=1e-14)


def test_inv_with_cond_reports_condition():
    m = np.diag([1.0, 10.0])
    minv, kappa = inv_with_cond(m)
    np.testing.assert_allclose(minv, np.diag([1.0, 0.1]), atol=1e-14)
    assert kappa == pytest.approx(10.0)
    assert cond(m) == pytest.approx(10.0)


def test_inv_rejects_singular():
    with pytest.raises(SingularMatrix):
        inv([[1.0, 1.0], [1.0, 1.0]])


def test_inv_rejects_rectangular():
    with pytest.raises(ShapeMismatch):
        inv(np.ones((2, 3)))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_inverse_roundtrip_random(seed):
    n = 1 + seed % 5
    m = rand_matrix(seed, n) + 3.0 * np.eye(n)
    minv, kappa = inv_with_cond(m)
    np.testing.assert_allclose(
        m @ minv, np.eye(n), atol=1e-10 * max(kappa, 1.0)
    )


def test_direct_sum_blocks():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0j]])
    s = direct_sum(a, b)
    assert s.shape == (2, 3)
    np.testing.assert_allclose(s[0, :2], a[0])
    assert s[1, 2] == 3.0j
    assert s[0, 2] == 0 and s[1, 0] == 0


def test_direct_sum_norm_is_max():
    a = rand_matrix(11, 3)
    b = rand_matrix(12, 2)
    assert op_norm(direct_sum(a, b)) == pytest.approx(
        max(op_norm(a), op_norm(b)), rel=1e-12
    )


def test_kron_left_identity():
    m = np.array([[2.0, 1.0], [0.0, 1.0]])
    k = kron_left_identity(2, m)
    np.testing.assert_allclose(k, np.kron(np.eye(2), m))
    assert op_norm(k) == pytest.approx(op_norm(m), rel=1e-12)


@pytest.mark.parametrize("n, rows, cols, q", [(1, 2, 3, 4), (3, 2, 5, 1), (4, 3, 2, 6), (2, 1, 1, 3)])
def test_kron_left_identity_apply_matches_dense(n, rows, cols, q):
    m = rand_matrix(n + rows, rows, cols)
    x = rand_matrix(q + cols, n * cols, q)
    want = kron_left_identity(n, m) @ x
    np.testing.assert_allclose(kron_left_identity_apply(n, m, x), want, rtol=0, atol=1e-12)
    out = np.empty((n * rows, q), dtype=complex)
    got = kron_left_identity_apply(n, m, x, out=out)
    assert got is out
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_kron_left_identity_apply_rejects_bad_shapes():
    m = rand_matrix(0, 2, 3)
    with pytest.raises(ShapeMismatch):
        kron_left_identity_apply(2, m, rand_matrix(1, 5, 1))
    with pytest.raises(ShapeMismatch):
        kron_left_identity_apply(2, m, rand_matrix(1, 6, 1), out=np.empty((6, 1), dtype=complex))


def test_isometry_defect_zero_for_unitary():
    q, _ = np.linalg.qr(rand_matrix(5, 4))
    assert isometry_defect(q) < 1e-13
    col = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert isometry_defect(col) < 1e-15
    assert isometry_defect(2.0 * np.eye(2)) == pytest.approx(3.0)


def test_complete_to_isometry_keeps_given_columns():
    partial = np.array([[0.0], [1.0]], dtype=complex)
    full = complete_to_isometry(partial, 2)
    np.testing.assert_allclose(full[:, 0], partial[:, 0])
    np.testing.assert_allclose(full, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)
    assert isometry_defect(full) < 1e-12


def test_complete_to_isometry_rectangular():
    # two orthonormal columns in C^4 extended to four
    q, _ = np.linalg.qr(rand_matrix(7, 4))
    partial = q[:, :2]
    full = complete_to_isometry(partial, 4)
    np.testing.assert_allclose(full[:, :2], partial, atol=1e-14)
    assert isometry_defect(full) < 1e-10


def test_complete_to_isometry_deterministic():
    q, _ = np.linalg.qr(rand_matrix(9, 5))
    a = complete_to_isometry(q[:, :2], 4)
    b = complete_to_isometry(q[:, :2], 4)
    np.testing.assert_array_equal(a, b)


def test_complete_to_isometry_dimension_errors():
    partial = np.eye(2)
    with pytest.raises(DimensionTooSmall):
        complete_to_isometry(partial, 3)
    with pytest.raises(DimensionTooSmall):
        complete_to_isometry(partial, 1)


def test_cmatrix_immutable_and_json():
    m = np.array([[1.0 + 2.0j, 0.0], [0.0, -1.0]])
    obj = matrix_to_json(m)
    assert obj == {
        "rows": 2,
        "cols": 2,
        "data": [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
    }
    again = matrix_from_json(obj)
    with pytest.raises(ValueError):
        again[0, 0] = 5.0
    assert again.dtype == np.complex128
    np.testing.assert_array_equal(again, m)


def test_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[np.inf, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "data": [[0.0, 0.0], [1.0, np.nan]]})
    with pytest.raises(ShapeMismatch):
        matrix_from_json({"rows": 2, "cols": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(ShapeMismatch):
        as_array([1.0, 2.0])  # not 2-d
