import math

import numpy as np
import pytest

from qdcca.dfa import DetrendConfig
from qdcca.errors import EigensolverError, ShapeMismatchError, ZeroVarianceError
from qdcca.spectra import (
    DetrendedCorrelationMatrix,
    correlation_matrices,
    correlation_matrix,
    eigendecompose,
    eigensignal,
    residual_returns,
    shannon_entropy,
)


def _equicorrelation(n, rho):
    mat = np.full((n, n), rho)
    np.fill_diagonal(mat, 1.0)
    return DetrendedCorrelationMatrix(values=mat, labels=tuple(f"A{i}" for i in range(n)))


def test_perfect_pair_matrix():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    c = correlation_matrix(np.stack([x, x]), DetrendConfig(scale=20, poly_order=2, q=2.0))
    assert np.array_equal(c.values, np.ones((2, 2)))


def test_independent_gaussians_near_zero_offdiagonal():
    rng = np.random.default_rng(1)
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    offdiag = []
    for _ in range(8):
        c = correlation_matrix(rng.standard_normal((3, 10_000)), cfg)
        offdiag.extend(np.abs(c.values[np.triu_indices(3, 1)]))
    assert np.mean(offdiag) < 0.05


def test_pair_count_for_80_assets():
    n = 80
    assert n * (n - 1) // 2 == 3160
    rng = np.random.default_rng(2)
    c = correlation_matrix(
        rng.standard_normal((n, 200)), DetrendConfig(scale=10, poly_order=2, q=1.0)
    )
    assert c.values.shape == (n, n)
    assert np.allclose(c.values, c.values.T, atol=0)
    assert np.all(np.diag(c.values) == 1.0)
    assert float(np.trace(c.values)) == float(n)


def test_zero_variance_propagates_label():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3, 300))
    values[1] = 2.5
    with pytest.raises(ZeroVarianceError) as exc:
        correlation_matrices(values, 20, 2, [2.0])
    assert "1" in str(exc.value)


def test_underflowing_fluctuation_names_q():
    # Residual energies near 1e-300 pass the relative energy floor, but
    # their square (the q = 4 power) underflows to 0.
    values = np.random.default_rng(3).standard_normal((3, 300)) * 1e-150
    assert np.all(np.isfinite(correlation_matrices(values, 20, 2, [1.0])[1.0].values))
    with pytest.raises(ZeroVarianceError) as exc:
        correlation_matrices(values, 20, 2, [1.0, 4.0])
    assert str(exc.value) == (
        "series 0 has a fluctuation function that underflows to 0 at q=4, scale 20; "
        "correlation undefined"
    )
    assert exc.value.label == "series 0"


def test_equicorrelation_spectrum():
    summary = eigendecompose(_equicorrelation(4, 0.5))
    assert np.allclose(summary.eigenvalues, [2.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert summary.degenerate


def test_two_by_two_analytic():
    summary = eigendecompose(_equicorrelation(2, 0.6))
    assert np.allclose(summary.eigenvalues, [1.6, 0.4], atol=1e-12)
    assert np.allclose(np.abs(summary.eigenvectors[:, 0]), 1 / np.sqrt(2), atol=1e-12)
    # Sign convention: the dominant component is positive.
    assert summary.eigenvectors[:, 0].max() > 0


def test_trace_conservation_and_orthonormality():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = correlation_matrix(
            rng.standard_normal((12, 600)), DetrendConfig(scale=30, poly_order=2, q=2.0)
        )
        summary = eigendecompose(c)
        n = c.dim
        assert abs(summary.eigenvalues.sum() - n) < 1e-9
        gram = summary.eigenvectors.T @ summary.eigenvectors
        assert np.abs(gram - np.eye(n)).max() < 1e-9
        norms = np.linalg.norm(summary.eigenvectors, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12
        recon = summary.eigenvectors @ np.diag(summary.eigenvalues) @ summary.eigenvectors.T
        assert np.abs(recon - c.values).max() < 1e-9
        entropies = np.array([shannon_entropy(v) for v in summary.eigenvectors.T])
        assert np.all(entropies >= 0)
        assert np.all(entropies <= np.log(n) + 1e-12)


def test_equicorrelation_oracle_lambda_and_entropy():
    for n, rho in ((6, 0.3), (20, 0.7), (80, 0.25)):
        summary = eigendecompose(_equicorrelation(n, rho))
        assert abs(summary.eigenvalues[0] - (1 + (n - 1) * rho)) < 1e-9
        assert abs(shannon_entropy(summary.eigenvectors.T[0]) - np.log(n)) < 1e-9


def test_eigendecompose_rejects_nonfinite():
    mat = np.eye(3)
    mat[0, 1] = mat[1, 0] = np.nan
    c = DetrendedCorrelationMatrix(values=mat, labels=("a", "b", "c"))
    with pytest.raises(EigensolverError):
        eigendecompose(c)


@pytest.mark.parametrize("v", [[math.nan, 0.0, 0.0], [math.nan, 1.0]])
def test_entropy_rejects_a_vector_with_a_nan(v):
    # Its norm is NaN, which no tolerance test passes.
    with pytest.raises(ShapeMismatchError) as err:
        shannon_entropy(v)
    assert str(err.value) == "vector is not unit length: |v| = nan"


def test_entropy_names_the_norm_as_a_plain_float():
    # Not numpy's repr, np.float64(0.7071067811865476).
    with pytest.raises(ShapeMismatchError) as err:
        shannon_entropy([0.5, 0.5])
    assert str(err.value) == "vector is not unit length: |v| = 0.7071067811865476"


def test_entropy_reference_points():
    basis = np.zeros(10)
    basis[3] = 1.0
    assert shannon_entropy(basis) == 0.0
    # Not -0.0 (a spectra row would write it so), nor -4.4e-16 from a
    # component one ulp past 1.
    for v in ([1.0, 0.0, 0.0], [1.0 + 2.0**-52, 0.0]):
        h = shannon_entropy(v)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    uniform = np.full(80, 1 / np.sqrt(80))
    assert abs(shannon_entropy(uniform) - np.log(80)) < 1e-12
    two = np.zeros(6)
    two[0] = two[5] = 1 / np.sqrt(2)
    assert abs(shannon_entropy(two) - np.log(2)) < 1e-12
    with pytest.raises(ShapeMismatchError):
        shannon_entropy(np.ones(4))


def test_eigensignal_projection_and_cancellation():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 50))
    e2 = np.zeros(4)
    e2[2] = 1.0
    assert np.array_equal(eigensignal(values, e2), values[2])
    pair = np.stack([values[0], -values[0]])
    z = eigensignal(pair, np.full(2, 1 / np.sqrt(2)))
    assert np.allclose(z, 0.0, atol=1e-12)
    with pytest.raises(ShapeMismatchError):
        eigensignal(values, np.ones(3))


def test_eigensignal_matches_naive_loop():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((7, 90))
    v = rng.standard_normal(7)
    v /= np.linalg.norm(v)
    z = eigensignal(values, v)
    naive = np.array(
        [sum(v[j] * values[j, t] for j in range(7)) for t in range(90)]
    )
    assert np.allclose(z, naive, atol=1e-12)


def test_residual_selffit_orthogonal_and_synthetic():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(800)
    # Self-fit: slope one, intercept zero, nothing left over.
    res = residual_returns(z[None, :], z)
    assert res.alpha[0] == pytest.approx(1.0, abs=1e-12)
    assert res.beta[0] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(res.residuals).max() < 1e-10
    # Orthogonal regressor: slope zero, residual is the demeaned series.
    zc = z - z.mean()
    w = rng.standard_normal(800)
    wc = w - w.mean()
    w_orth = wc - (wc @ zc) / (zc @ zc) * zc + 3.0
    res = residual_returns(w_orth[None, :], z)
    assert abs(res.alpha[0]) < 1e-12
    assert np.allclose(res.residuals[0], w_orth - w_orth.mean(), atol=1e-10)
    # Known coefficients recovered through noise.
    noisy = 2.0 * z + 3.0 + 0.01 * rng.standard_normal(800)
    res = residual_returns(noisy[None, :], z)
    assert res.alpha[0] == pytest.approx(2.0, abs=0.01)
    assert res.beta[0] == pytest.approx(3.0, abs=0.01)


def test_residual_orthogonality_invariant():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((10, 1500))
    values += rng.standard_normal(1500)[None, :]  # common factor
    c = correlation_matrix(values, DetrendConfig(scale=50, poly_order=2, q=2.0))
    summary = eigendecompose(c)
    z = eigensignal(values, summary.eigenvectors[:, 0])
    res = residual_returns(values, z)
    zc = z - z.mean()
    for row in res.residuals:
        assert abs(row.mean()) < 1e-12
        corr = (row @ zc) / (np.linalg.norm(row) * np.linalg.norm(zc))
        assert abs(corr) < 1e-10


def test_residual_constant_eigensignal_rejected():
    with pytest.raises(ZeroVarianceError):
        residual_returns(np.random.default_rng(0).standard_normal((2, 50)), np.ones(50))


def test_residual_matrix_dampens_leading_mode():
    rng = np.random.default_rng(9)
    cfg = DetrendConfig(scale=20, poly_order=2, q=2.0)
    wins = 0
    trials = 40
    for _ in range(trials):
        factor = rng.standard_normal(2000)
        values = 0.8 * factor[None, :] + rng.standard_normal((10, 2000))
        c = eigendecompose(correlation_matrix(values, cfg))
        z = eigensignal(values, c.eigenvectors[:, 0])
        res = residual_returns(values, z)
        c_res = eigendecompose(correlation_matrix(res.residuals, cfg))
        if c_res.eigenvalues[0] <= c.eigenvalues[0]:
            wins += 1
    assert wins >= 0.95 * trials


@pytest.mark.parametrize("sample", [100, 101])
def test_array_input_names_a_non_finite_return(sample):
    # Sample 100 starts a box at s = 10, and a box's first return never
    # enters its profile: the NaN used to vanish there (the matrices were
    # those of 0.0 in its place), and at sample 101 it read as "a box
    # energy that overflows", with a RuntimeWarning.
    values = np.random.default_rng(1).standard_normal((4, 3_000))
    values[1, sample] = np.nan
    reason = f"^series 1: return nan at sample {sample} is not finite$"
    with pytest.raises(ShapeMismatchError, match=reason):
        correlation_matrices(values, 10, 2, [1.0, 2.0])
    with pytest.raises(ShapeMismatchError, match=reason):
        eigensignal(values, np.full(4, 0.5))
    with pytest.raises(ShapeMismatchError, match=reason):
        residual_returns(values, np.ones(3_000))
