import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigencoint.errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotOrthonormal,
    SingularBasis,
    SingularMatrix,
)
from eigencoint.subspace import _orthonormal_factors, dist_d, dist_d1, true_b2


def ortho_cols(p, r, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((p, r)))[0]


# ---------------------------------------------------------------------------
# dist_d


def test_dist_d_identical_spans_zero():
    # Exactly orthonormal basis: the overlap trace is exact and the distance
    # is exactly zero.
    e12 = np.eye(4)[:, :2]
    assert dist_d(e12, e12) == 0.0
    # QR-derived basis: the Gram matrix carries rounding at the eps level,
    # which the square root amplifies to ~1e-8.
    q = ortho_cols(5, 2, 0)
    assert dist_d(q, q) <= 1e-7
    assert dist_d(q, -q) <= 1e-7


def test_dist_d_orthogonal_spans_one():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert dist_d(e1, e2) == 1.0


def test_dist_d_sixty_degrees():
    a = np.array([[1.0], [0.0]])
    b = np.array([[np.cos(np.pi / 3)], [np.sin(np.pi / 3)]])
    assert abs(dist_d(a, b) - np.sqrt(0.75)) <= 1e-10


def test_dist_d_rejects_non_orthonormal():
    bad = np.array([[1.0], [1.0]])
    good = np.array([[1.0], [0.0]])
    with pytest.raises(NotOrthonormal):
        dist_d(bad, good)
    with pytest.raises(NotOrthonormal):
        dist_d(good, bad)


def test_dist_d_rejects_mismatched_widths():
    with pytest.raises(DimensionMismatch):
        dist_d(ortho_cols(4, 1, 1), ortho_cols(4, 2, 2))
    with pytest.raises(DimensionMismatch):
        dist_d(ortho_cols(4, 2, 1), ortho_cols(5, 2, 2))


def test_dist_d_empty_conventions():
    empty = np.zeros((3, 0))
    q = ortho_cols(3, 1, 3)
    assert dist_d(empty, empty) == 0.0
    assert dist_d(empty, q) == 1.0
    assert dist_d(q, empty) == 1.0


def test_dist_d_symmetry():
    x = ortho_cols(6, 2, 4)
    y = ortho_cols(6, 2, 5)
    assert abs(dist_d(x, y) - dist_d(y, x)) <= 1e-10


def test_dist_d_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = int(rng.integers(2, 8))
        r = int(rng.integers(1, p + 1))
        d = dist_d(
            ortho_cols(p, r, int(rng.integers(1e6))),
            ortho_cols(p, r, int(rng.integers(1e6))),
        )
        assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# dist_d1


def test_dist_d1_identical_spans_zero():
    e12 = np.eye(4)[:, :2]
    assert dist_d1(e12, e12) == 0.0
    q = ortho_cols(4, 2, 10)
    assert dist_d1(q, q) <= 1e-7


def test_dist_d1_orthogonal_spans_scaling_absorbed():
    e1 = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [3.0]])
    assert dist_d1(e1, b) == 1.0


def test_dist_d1_width_mismatch_hand_example():
    a_hat2 = np.eye(3)[:, :2]
    b2 = np.eye(3)[:, :1]
    assert abs(dist_d1(a_hat2, b2) - np.sqrt(0.5)) <= 1e-10


def test_dist_d1_matches_dist_d_when_orthonormal():
    for seed in range(8):
        x = ortho_cols(6, 2, seed)
        y = ortho_cols(6, 2, seed + 100)
        assert abs(dist_d1(x, y) - dist_d(x, y)) <= 1e-10


def test_dist_d1_column_rescaling_invariance():
    x = ortho_cols(5, 2, 20)
    b = np.random.default_rng(21).standard_normal((5, 2))
    scaled = b * np.array([3.5, -0.2])
    assert abs(dist_d1(x, b) - dist_d1(x, scaled)) <= 1e-12


def test_dist_d1_rejects_rank_deficient_b2():
    x = ortho_cols(3, 2, 30)
    b = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularBasis):
        dist_d1(x, b)


def test_dist_d1_requires_orthonormal_first_argument():
    with pytest.raises(NotOrthonormal):
        dist_d1(np.array([[2.0], [0.0]]), np.array([[1.0], [0.0]]))


def test_dist_d1_empty_conventions():
    empty = np.zeros((4, 0))
    b = np.random.default_rng(31).standard_normal((4, 2))
    assert dist_d1(empty, np.zeros((4, 0))) == 0.0
    assert dist_d1(empty, b) == 1.0
    assert dist_d1(ortho_cols(4, 1, 32), empty) == 1.0


def test_dist_d1_row_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_d1(ortho_cols(4, 1, 33), np.ones((5, 1)))


# ---------------------------------------------------------------------------
# rotation invariance


@pytest.mark.parametrize("seed", range(5))
def test_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    x = ortho_cols(6, 3, seed + 40)
    y = ortho_cols(6, 3, seed + 50)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    base = dist_d(x, y)
    assert abs(dist_d(x @ rot, y) - base) <= 1e-10
    assert abs(dist_d(x, y @ rot) - base) <= 1e-10
    b = rng.standard_normal((6, 3))
    base1 = dist_d1(x, b)
    assert abs(dist_d1(x @ rot, b) - base1) <= 1e-10
    assert abs(dist_d1(x, b @ rot) - base1) <= 1e-10


# ---------------------------------------------------------------------------
# true_b2


def test_true_b2_identity():
    assert_array_equal(true_b2(np.eye(2), 1), np.array([[0.0], [1.0]]))


def test_true_b2_orthogonal_mixing():
    q = np.linalg.qr(np.random.default_rng(60).standard_normal((4, 4)))[0]
    assert_allclose(true_b2(q, 2), q[:, 2:], atol=1e-12)


def test_true_b2_inverse_consistency():
    rng = np.random.default_rng(61)
    a = rng.uniform(-3.0, 3.0, (3, 3))
    b2 = true_b2(a, 1)
    # A' (A^-1)' e3 = e3
    assert_allclose(a.T @ b2[:, 0], np.array([0.0, 0.0, 1.0]), atol=1e-9)


def test_true_b2_rank_zero():
    assert true_b2(np.eye(3), 0).shape == (3, 0)


def test_true_b2_rejects_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        true_b2(singular, 1)


def test_true_b2_rejects_non_finite_mixing():
    for bad in (np.nan, np.inf):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(InvalidMatrix, match="non-finite"):
            true_b2(a, 1)
        with pytest.raises(InvalidMatrix, match="non-finite"):
            true_b2(np.stack([np.eye(3), a]), 1)


@pytest.mark.parametrize("r", [2.5, True, False, -0.5, "1", None])
def test_true_b2_rejects_r_that_is_not_a_whole_number(r):
    with pytest.raises(ValueError, match="r must be an integer"):
        true_b2(np.eye(3), r)
    with pytest.raises(ValueError, match="r must be an integer"):
        true_b2(np.stack([np.eye(3)] * 2), r)


def test_true_b2_accepts_whole_float_and_numpy_r():
    a = np.random.default_rng(70).uniform(-3, 3, (4, 4))
    assert_array_equal(true_b2(a, 2.0), true_b2(a, 2))
    assert_array_equal(true_b2(a, np.int64(2)), true_b2(a, 2))


def test_true_b2_stack_matches_each_matrix_bitwise():
    rng = np.random.default_rng(71)
    for p in (6, 8, 10, 12, 20, 28):
        a = rng.uniform(-3, 3, (25, p, p))
        for r in (0, 1, p // 3, p):
            stacked = true_b2(a, r)
            assert stacked.shape == (25, p, r) and stacked.flags.c_contiguous
            for j in range(25):
                alone = true_b2(a[j], r)
                assert alone.tobytes() == stacked[j].tobytes()


def test_true_b2_stack_rejects_any_singular_member():
    a = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.eye(3)])
    with pytest.raises(SingularMatrix) as err:
        true_b2(a, 1)
    assert err.value.condition == np.inf
    with pytest.raises(DimensionMismatch):
        true_b2(np.ones((2, 3, 4)), 1)


@pytest.mark.parametrize("p", [6, 8, 10, 12, 20, 28])
def test_stacked_lapack_calls_match_per_matrix_calls_bitwise(p):
    # gen_panel and true_b2 factor a batch's small matrices in one stacked
    # call each; every report byte rests on these being the per-matrix bits.
    rng = np.random.default_rng(72 + p)
    a = rng.uniform(-3, 3, (30, p, p))
    b = rng.standard_normal((30, p, max(1, p // 3)))
    stacked = (np.linalg.cond(a), np.linalg.inv(a), np.linalg.qr(a), np.linalg.qr(b)[0],
               np.linalg.svd(b, compute_uv=False))
    for j in range(30):
        alone = (np.linalg.cond(a[j]), np.linalg.inv(a[j]), np.linalg.qr(a[j]),
                 np.linalg.qr(b[j])[0], np.linalg.svd(b[j], compute_uv=False))
        assert stacked[0][j] == alone[0]
        assert stacked[1][j].tobytes() == alone[1].tobytes()
        assert stacked[2][0][j].tobytes() == alone[2][0].tobytes()
        assert stacked[2][1][j].tobytes() == alone[2][1].tobytes()
        assert stacked[3][j].tobytes() == alone[3].tobytes()
        assert stacked[4][j].tobytes() == alone[4].tobytes()


def test_nan_basis_is_not_orthonormal():
    b2 = np.random.default_rng(73).standard_normal((4, 2))
    nan = np.full((4, 2), np.nan)
    with pytest.raises(NotOrthonormal, match="nan"):
        dist_d1(nan, b2)
    with pytest.raises(NotOrthonormal, match="nan"):
        dist_d(nan, ortho_cols(4, 2, 74))
    with pytest.raises(NotOrthonormal, match="nan"):
        dist_d(ortho_cols(4, 2, 74), nan)


def test_dist_d1_rejects_non_finite_b2():
    for bad in (np.nan, np.inf, -np.inf):
        b2 = np.random.default_rng(75).standard_normal((4, 2))
        b2[3, 1] = bad
        with pytest.raises(InvalidMatrix, match="non-finite"):
            dist_d1(ortho_cols(4, 2, 76), b2)


def test_dist_d1_with_factor_matches_without_bitwise():
    rng = np.random.default_rng(77)
    for p in (6, 10, 20, 28):
        for r_hat in range(p + 1):
            b2 = rng.standard_normal((p, max(1, p // 3)))
            a2 = ortho_cols(p, r_hat, 78 + r_hat)
            q = np.linalg.qr(b2)[0]
            assert dist_d1(a2, b2, b2_q=q) == dist_d1(a2, b2)


def test_dist_d1_checks_the_factor_shape():
    b2 = np.random.default_rng(79).standard_normal((5, 2))
    with pytest.raises(DimensionMismatch, match="b2_q"):
        dist_d1(ortho_cols(5, 2, 80), b2, b2_q=np.linalg.qr(b2)[0][:, :1])
    with pytest.raises(TypeError):
        dist_d1(ortho_cols(5, 2, 80), b2, np.linalg.qr(b2)[0])  # keyword only


def test_orthonormal_factors_place_each_error_on_its_own_basis():
    rng = np.random.default_rng(81)
    b2s = rng.standard_normal((5, 6, 2))
    b2s[1, :, 1] = 2.0 * b2s[1, :, 0]  # rank deficient
    b2s[3, 0, 0] = np.nan
    factors = _orthonormal_factors(b2s)
    assert isinstance(factors[1], SingularBasis)
    assert isinstance(factors[3], InvalidMatrix)
    for j in (0, 2, 4):
        assert factors[j].tobytes() == np.linalg.qr(b2s[j])[0].tobytes()
    for j, error in ((1, SingularBasis), (3, InvalidMatrix)):
        with pytest.raises(error):
            dist_d1(ortho_cols(6, 2, 82), b2s[j])
    assert _orthonormal_factors(np.full((2, 3, 1), np.nan))[1].args == (
        "b2 contains non-finite entries",)
