import ctypes
import os
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeholo import mat
from freeholo.errors import DimensionTooSmall, ShapeMismatch, SingularMatrix
from freeholo.mat import (
    as_array,
    complete_to_isometry,
    cond,
    direct_sum,
    inv,
    isometry_defect,
    kron_left_identity,
    kron_left_identity_apply,
    matrix_from_json,
    matrix_to_json,
    max_op_norm,
    op_norm,
    op_norms,
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


def test_inv_and_cond_of_a_diagonal_matrix():
    m = np.diag([1.0, 10.0])
    np.testing.assert_allclose(inv(m), np.diag([1.0, 0.1]), atol=1e-14)
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
    np.testing.assert_allclose(
        m @ inv(m), np.eye(n), atol=1e-10 * max(cond(m), 1.0)
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


def test_kron_left_identity_apply_rejects_bad_shapes():
    m = rand_matrix(0, 2, 3)
    with pytest.raises(ShapeMismatch):
        kron_left_identity_apply(2, m, rand_matrix(1, 5, 1))


@pytest.mark.parametrize("n, rows, cols, q", [(1, 2, 3, 4), (3, 2, 5, 1), (2, 1, 1, 3)])
def test_kron_left_identity_apply_stack_is_its_members(n, rows, cols, q):
    m = rand_matrix(n + rows, rows, cols)
    xs = np.stack([rand_matrix(q + cols + j, n * cols, q) for j in range(3)])
    got = kron_left_identity_apply(n, m, xs)
    assert got.shape == (3, n * rows, q)
    for member, x in zip(got, xs):
        assert np.array_equal(member, kron_left_identity_apply(n, m, x))
    with pytest.raises(ShapeMismatch):
        kron_left_identity_apply(n, m, xs[:, 1:])
    with pytest.raises(ShapeMismatch):
        kron_left_identity_apply(n, m, xs[None])


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


def mgs2_completion(partial, target_dim):
    """Reference completion: standard basis vectors in index order, each
    orthogonalized by two sweeps of modified Gram-Schmidt, one column at a
    time, kept when its norm stays above 1e-8. Returns the columns, the
    indices of the basis vectors kept and their norms before normalizing."""
    rows, k = partial.shape
    cols, kept, norms = [partial[:, j].copy() for j in range(k)], [], []
    for i in range(rows):
        if len(cols) == target_dim:
            break
        v = np.zeros(rows, dtype=np.complex128)
        v[i] = 1.0
        for _ in range(2):
            for c in cols:
                v = v - c * np.vdot(c, v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            cols.append(v / nrm)
            kept.append(i)
            norms.append(nrm)
    full = np.column_stack(cols) if cols else np.zeros((rows, 0), dtype=np.complex128)
    return full, kept, norms


def kept_indices(full, k):
    """The basis indices a completion ``full`` of ``k`` given columns kept,
    replayed from its own columns: index i is kept when e_i leaves a
    residual above 1e-8 against the columns before it."""
    rows, target_dim = full.shape
    held, kept = k, []
    for i in range(rows):
        if held == target_dim:
            break
        q = full[:, :held]
        v = np.eye(rows, dtype=np.complex128)[:, i]
        for _ in range(2):
            v = v - q @ (q.conj().T @ v)
        if np.linalg.norm(v) > 1e-8:
            kept.append(i)
            held += 1
    return kept


@given(
    st.integers(0, 10_000),
    st.integers(1, 12),
    st.data(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_complete_to_isometry_matches_the_mgs2_reference(seed, rows, data, on_basis):
    # a family on standard basis vectors makes the completion skip indices
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, rows))
    target_dim = data.draw(st.integers(k, rows))
    if on_basis:
        cols = np.eye(rows, dtype=np.complex128)[:, rng.permutation(rows)[:k]]
        partial = cols * np.exp(2j * np.pi * rng.random(k))
    else:
        partial = np.linalg.qr(rand_matrix(seed, rows, k))[0]
    full = complete_to_isometry(partial, target_dim)
    want, want_kept, norms = mgs2_completion(partial, target_dim)
    assert full.shape == (rows, target_dim)
    assert np.array_equal(full[:, :k], partial)
    assert kept_indices(full, k) == want_kept
    if target_dim:
        assert isometry_defect(full) <= 1e-13
    # both orthonormalize the same vector against the same span; dividing by
    # its residual norm r scales their rounding apart by 1 / r, so column j
    # agrees within 16 eps / r_j (seen: 1.5 eps / r_j over 5,000 families)
    eps = np.finfo(float).eps
    for j, nrm in enumerate(norms):
        assert np.max(np.abs(full[:, k + j] - want[:, k + j])) <= 16 * eps / nrm


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_complete_to_isometry_refuses_non_finite_columns(bad):
    partial = np.eye(4, 2, dtype=np.complex128)
    partial[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_to_isometry(partial, 3)
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_to_isometry(np.full((4, 1), np.nan), 2)


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


def test_op_norm_of_non_finite_matrix_prints_nothing(tmp_path):
    # LAPACK's scaling routine reports an infinite norm estimate on stdout;
    # a non-finite matrix must get NaN without reaching it
    a = np.ones((11, 8), dtype=complex)
    a[2, 3], a[7, 1] = np.inf, -np.inf
    sys.stdout.flush()
    saved = os.dup(1)
    with open(tmp_path / "fd1", "w+b") as sink:
        os.dup2(sink.fileno(), 1)
        try:
            nrm = op_norm(a)
            ctypes.CDLL(None).fflush(None)
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        printed = sink.read()
    assert np.isnan(nrm)
    assert printed == b""


def test_op_norms_is_one_svd_call(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    stack = np.stack([rand_matrix(k, 4, 3) for k in range(5)])
    op_norms(stack)
    assert calls == [(5, 4, 3)]
    stack[1, 0, 0] = np.nan
    calls.clear()
    assert np.isnan(op_norms(stack)).tolist() == [False, True, False, False, False]
    assert calls == [(5, 4, 3)]


def mixed_stacks(rng, specs):
    """Stacks after ``specs``: (kind, p, rows, cols, scale) with kind one of
    "random", "rank1" (u v*), "tied" (row permutations and phases of one
    rank-1 matrix, so the largest norms agree to rounding) and "flat" (the
    same with entries of one modulus, where both caps equal the norm)."""
    stacks = []
    tied = None
    for kind, p, rows, cols, scale in specs:
        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        if kind == "random":
            a = gauss(p, rows, cols)
        elif kind == "rank1":
            a = gauss(p, rows, 1) @ gauss(p, 1, cols)
        else:
            if tied is None or tied.shape != (rows, cols):
                tied = gauss(rows, 1) @ gauss(1, cols)
                tied = np.exp(1j * np.angle(tied)) if kind == "flat" else tied
            a = np.array([
                np.exp(1j * rng.uniform(0, 2 * np.pi)) * tied[rng.permutation(rows)]
                for _ in range(p)
            ], dtype=complex).reshape(p, rows, cols)
        stacks.append(a * scale)
    return stacks


SPECS = st.lists(
    st.tuples(
        st.sampled_from(["random", "rank1", "tied", "flat"]),
        st.integers(0, 12),
        st.integers(0, 6),
        st.integers(0, 6),
        st.sampled_from([1.0, 1e-160, 1e150, 1e-310]),
    ),
    max_size=6,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    specs=SPECS,
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    budget=st.sampled_from([1 << 23, 64, 1024]),
    chunk=st.sampled_from([8, 1]),
)
@settings(max_examples=300, deadline=None)
def test_max_op_norm_is_the_full_fold(seed, specs, poison, budget, chunk):
    # a chunk of 1 tests the screen's stopping rule at every candidate
    rng = np.random.default_rng(seed)
    stacks = mixed_stacks(rng, specs)
    nonempty = [a for a in stacks if a.size]
    if poison is not None and nonempty:
        a = nonempty[rng.integers(len(nonempty))]
        a[rng.integers(len(a)), rng.integers(a.shape[1]), rng.integers(a.shape[2])] = poison
    # the screen itself neither overflows nor divides 0 by 0, even at subnormal scales
    with mock.patch.object(mat, "_SCREEN_BYTES", budget), \
            mock.patch.object(mat, "_SCREEN_CHUNK", chunk), \
            np.errstate(over="raise", invalid="raise"):
        got = max_op_norm(iter(stacks))
    if not all(np.isfinite(a).all() for a in stacks):
        assert np.isnan(got)
        return
    want = np.concatenate([np.zeros(0), *(op_norms(a) for a in stacks)]).max(initial=0.0)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["tied", "flat"]),
    scale=st.sampled_from([1.0, 1e-160, 1e150, 1e-310]),
)
@settings(max_examples=150, deadline=None)
def test_max_op_norm_keeps_near_tied_maxima(seed, kind, scale):
    # copies of one rank-1 matrix, some transposed: a computed sigma_1
    # passes the computed cap by a few ulps about a quarter of the time,
    # so the screen must not stop at a cap equal to the maximum
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7, 2)
    stacks = mixed_stacks(rng, [(kind, 12, rows, cols, scale)] * 2)
    stacks.append(stacks[0].transpose(0, 2, 1))
    with mock.patch.object(mat, "_SCREEN_CHUNK", 1):
        got = max_op_norm(stacks)
    want = max(op_norms(a).max() for a in stacks)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_max_op_norm_of_nothing_is_zero():
    assert max_op_norm([]) == 0.0
    assert max_op_norm([np.zeros((0, 3, 3)), np.zeros((4, 0, 2))]) == 0.0
    # an empty stack does not hide a full one of the same shape
    a = rand_matrix(5, 3)
    assert max_op_norm([np.zeros((0, 3, 3)), a[None]]) == op_norm(a)


def test_max_op_norm_screens_out_small_matrices(monkeypatch):
    # one matrix dominates the Frobenius order, so one chunk is SVD'd
    stacks = [np.stack([rand_matrix(k, 5) / (k + 1) for k in range(50)]), rand_matrix(99, 3)[None]]
    want = op_norm(rand_matrix(0, 5))
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(len(a)) or svd(a, **kw))
    assert max_op_norm(stacks) == want
    assert sum(svds) == mat._SCREEN_CHUNK


def test_max_op_norm_reads_stacks_lazily(monkeypatch):
    # with a budget of one byte, each stack is screened before the next is read
    monkeypatch.setattr(mat, "_SCREEN_BYTES", 1)
    want = op_norm(np.full((2, 2), 3.0))
    events, norms = [], mat.op_norms
    monkeypatch.setattr(mat, "op_norms", lambda a: events.append("svd") or norms(a))

    def stacks():
        for k in range(3):
            events.append("read")
            yield np.full((1, 2, 2), k + 1.0)

    assert max_op_norm(stacks()) == want
    assert events == ["read", "svd"] * 3


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_inv_of_a_stack_is_its_members_inverses(seed, n, p):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((p, n, n)) + 1j * rng.standard_normal((p, n, n))
    if p > 1 and rng.random() < 0.5:
        stack[int(rng.integers(p))] = np.inf  # inverts to all NaN
    out = inv(stack)
    assert out.shape == stack.shape
    for member, got in zip(stack, out):
        if np.isfinite(member).all():
            assert got.tobytes() == inv(member).tobytes()
        else:
            assert np.isnan(got).all()


def test_inv_of_a_stack_refuses_a_singular_member():
    stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([4.0, 1e-13])]) + 0j
    with pytest.raises(SingularMatrix) as info:
        inv(stack)
    assert info.value.condition == np.inf  # the first singular member's
    with pytest.raises(ShapeMismatch):
        inv(np.ones((2, 2, 3)))
    assert inv(np.zeros((3, 0, 0))).shape == (3, 0, 0)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "rank1", "tied", "flat"]),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6)),
    scale=st.sampled_from([1.0, 1e-160, 1e150, 1e-310]),
)
@settings(max_examples=300, deadline=None)
def test_screen_cap_bounds_every_norm(seed, kind, shape, scale):
    # the screen may stop at a cap only if no matrix under it has a larger norm
    rng = np.random.default_rng(seed)
    [a] = mixed_stacks(rng, [(kind, *shape, scale)])
    for stack in (a, np.ascontiguousarray(a.transpose(0, 2, 1))):
        with np.errstate(over="raise", invalid="raise"):
            caps = mat._caps(stack)
        assert caps.shape == (len(stack),)
        assert (caps >= op_norms(stack)).all()


def test_screen_cap_of_a_stack_that_is_not_finite_is_none():
    a = np.ones((3, 2, 2), dtype=complex)
    assert mat._caps(a) is not None
    for bad in (np.nan, np.inf, -np.inf):
        a[1, 0, 1] = bad
        with np.errstate(over="raise", invalid="raise"):
            assert mat._caps(a) is None


def test_inv_of_a_stack_reports_its_first_singular_member():
    # also past a member that is not finite
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), np.diag([1.0, 0.0]),
                      2 * np.eye(2), np.diag([1.0, 1e-13])]) + 0j
    with pytest.raises(SingularMatrix) as info:
        inv(stack)
    assert info.value.condition == np.inf
    with pytest.raises(SingularMatrix) as info:
        inv(stack[::-1])
    assert info.value.condition == pytest.approx(1e13)
