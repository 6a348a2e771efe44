import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint.errors import InvalidMatrix, SingularMatrix
from eigencoint.linalg import EigenSystem, eigh_desc, solve_spd, symmetrize


def test_symmetrize_basic():
    m = np.array([[1.0, 2.0], [4.0, 3.0]])
    s = symmetrize(m)
    assert_array_equal(s, np.array([[1.0, 3.0], [3.0, 3.0]]))
    assert_array_equal(s, s.T)


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_symmetrize_rejects_non_square(bad):
    with pytest.raises(InvalidMatrix):
        symmetrize(bad)


def test_symmetrize_rejects_non_finite():
    with pytest.raises(InvalidMatrix):
        symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidMatrix):
        symmetrize(np.array([[np.inf]]))


def test_eigh_identity():
    res = eigh_desc(np.eye(3))
    assert_array_equal(res.values, np.ones(3))
    # Vectors are a signed permutation of the identity columns.
    assert_allclose(np.abs(res.vectors), np.eye(3), atol=1e-14)


def test_eigh_diagonal():
    res = eigh_desc(np.diag([3.0, 1.0]))
    assert_array_equal(res.values, np.array([3.0, 1.0]))
    assert_array_equal(res.vectors, np.eye(2))


def test_eigh_diagonal_needs_sorting():
    res = eigh_desc(np.diag([1.0, 5.0, 3.0]))
    assert_array_equal(res.values, np.array([5.0, 3.0, 1.0]))
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert_array_equal(res.vectors, expected)


def test_eigh_reconstruction_seeded_5x5():
    rng = np.random.default_rng(42)
    m = symmetrize(rng.standard_normal((5, 5)))
    res = eigh_desc(m)
    recon = res.vectors @ np.diag(res.values) @ res.vectors.T
    scale = 1.0 + np.max(np.abs(m))
    assert np.max(np.abs(recon - m)) <= 1e-10 * scale


def test_eigh_one_by_one():
    res = eigh_desc(np.array([[-4.5]]))
    assert_array_equal(res.values, np.array([-4.5]))
    assert_array_equal(res.vectors, np.array([[1.0]]))


def test_eigh_rejects_empty():
    with pytest.raises(InvalidMatrix):
        eigh_desc(np.zeros((0, 0)))


def test_eigh_sign_convention():
    # Rank-one matrix with a known eigenvector whose largest entry is
    # negative before the convention is applied.
    v = np.array([0.2, -0.9, 0.1])
    v = v / np.linalg.norm(v)
    res = eigh_desc(5.0 * np.outer(v, v))
    lead = np.argmax(np.abs(res.vectors[:, 0]))
    assert res.vectors[lead, 0] > 0
    assert_allclose(np.abs(res.vectors[:, 0]), np.abs(v), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_eigh_matches_lapack(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 12))
    m = symmetrize(rng.standard_normal((p, p)) * 10.0)
    res = eigh_desc(m)
    expected = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert_allclose(res.values, expected, rtol=1e-10, atol=1e-10)


def test_eigh_strongly_graded_spectrum():
    # Eigenvalues spread over 16 orders of magnitude, as in W for integrated
    # panels: every eigenvalue is accurate to roundoff relative to the largest.
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    lam = 10.0 ** np.linspace(18.0, 2.0, 6)
    m = symmetrize(q @ np.diag(lam) @ q.T)
    res = eigh_desc(m)
    expected = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.max(np.abs(res.values - expected)) <= 1e-12 * expected[0]
    assert_allclose(res.vectors.T @ res.vectors, np.eye(6), atol=1e-12)


class TestEigenInvariants:
    """Module invariants over a batch of seeded symmetric matrices."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(2024)
        for k in range(100):
            p = int(rng.integers(1, 31))
            base = rng.standard_normal((p, p)) * rng.uniform(0.1, 100.0)
            if k % 3 == 0:
                base = base @ base.T  # PSD case
            yield k, symmetrize(base), k % 3 == 0

    def test_batch(self):
        for k, m, psd in self.matrices():
            res = eigh_desc(m)
            p = m.shape[0]
            scale = 1.0 + np.max(np.abs(m))
            recon = res.vectors @ np.diag(res.values) @ res.vectors.T
            assert np.max(np.abs(recon - m)) <= 1e-9 * scale, k
            gram = res.vectors.T @ res.vectors
            assert np.max(np.abs(gram - np.eye(p))) <= 1e-10, k
            # Per-entry eigen residual
            resid = m @ res.vectors - res.vectors * res.values
            assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + abs(res.values[0])), k
            assert np.all(np.diff(res.values) <= 0.0), k
            tr = np.trace(m)
            assert abs(np.sum(res.values) - tr) <= 1e-9 * (1.0 + abs(tr)), k
            if psd:
                assert np.all(res.values >= -1e-9 * (1.0 + res.values[0])), k

    def test_determinism(self):
        rng = np.random.default_rng(7)
        m = symmetrize(rng.standard_normal((8, 8)))
        first = eigh_desc(m.copy())
        second = eigh_desc(m.copy())
        assert_array_equal(first.values, second.values)
        assert_array_equal(first.vectors, second.vectors)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(8)
        m = symmetrize(rng.standard_normal((5, 5)))
        before = m.copy()
        eigh_desc(m)
        assert_array_equal(m, before)


def test_stacked_eigh_matches_each_matrix_alone_bitwise():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((5, 7, 7)) * 10.0 ** rng.uniform(-2, 12, (5, 1, 1))
    stack = base @ base.swapaxes(-1, -2)
    res = eigh_desc(stack)
    assert res.values.shape == (5, 7) and res.vectors.shape == (5, 7, 7)
    assert res.p == 7
    for k in range(5):
        alone = eigh_desc(stack[k])
        assert_array_equal(res.values[k], alone.values, strict=True)
        assert_array_equal(res.vectors[k], alone.vectors, strict=True)
        # the same memory layout, so products with it round the same
        assert res.vectors[k].strides == alone.vectors.strides


def test_stacked_eigh_rejects_non_finite_member():
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 0, 0] = np.inf
    with pytest.raises(InvalidMatrix, match="non-finite"):
        eigh_desc(stack)


def test_eigensystem_p_property():
    sys = EigenSystem(values=np.array([2.0, 1.0]), vectors=np.eye(2))
    assert sys.p == 2


def test_solve_spd_identity():
    x = solve_spd(np.eye(2), np.array([[5.0], [7.0]]))
    assert_array_equal(x, np.array([[5.0], [7.0]]))


def test_solve_spd_diagonal():
    x = solve_spd(np.diag([4.0, 2.0]), np.array([[8.0], [2.0]]))
    assert_array_equal(x, np.array([[2.0], [1.0]]))


def test_solve_spd_vector_rhs():
    x = solve_spd(np.diag([4.0, 2.0]), np.array([8.0, 2.0]))
    assert_array_equal(x, np.array([2.0, 1.0]))


def test_solve_spd_residual_seeded():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    m = a.T @ a + np.eye(6)
    rhs = rng.standard_normal((6, 3))
    x = solve_spd(m, rhs)
    assert np.linalg.norm(m @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_solve_spd_rejects_singular():
    v = np.array([1.0, 2.0])
    with pytest.raises(SingularMatrix) as err:
        solve_spd(np.outer(v, v), np.ones(2))
    assert err.value.condition > 1e12


def test_solve_spd_rejects_indefinite():
    with pytest.raises(SingularMatrix):
        solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_solve_spd_shape_mismatch():
    with pytest.raises(InvalidMatrix):
        solve_spd(np.eye(2), np.ones(3))
