"""Property-based checks of the estimator kernel over small random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdcca.dfa import cross_fluctuation_matrices, fluctuation_matrices
from qdcca.spectra import correlation_matrices

_Q = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])


@st.composite
def _stacks(draw):
    """(values, scale, poly_order): N mixed series with per-series scales
    spread over six decades, T from 2s up to 2s + 3s - 1."""
    n = draw(st.integers(2, 7))
    poly_order = draw(st.integers(0, 3))
    scale = draw(st.integers(poly_order + 2, 24))
    t = 2 * scale + draw(st.integers(0, 3 * scale - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    values = mix @ rng.standard_normal((n, t))
    values *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return values, scale, poly_order


def _rho(values, scale, poly_order, q):
    return correlation_matrices(values, scale, poly_order, [q])[q].values


@settings(max_examples=80, deadline=None)
@given(_stacks(), _Q)
def test_correlation_matrix_is_symmetric_with_unit_diagonal(stack, q):
    values, scale, poly_order = stack
    rho = _rho(values, scale, poly_order, q)
    assert np.array_equal(rho, rho.T)
    assert np.all(np.diag(rho) == 1.0)
    assert np.all(np.isfinite(rho))
    if q == 2.0:
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(_stacks(), _Q, st.randoms(use_true_random=False))
def test_correlation_matrix_is_permutation_equivariant(stack, q, random):
    values, scale, poly_order = stack
    perm = list(range(values.shape[0]))
    random.shuffle(perm)
    rho = _rho(values, scale, poly_order, q)
    permuted = _rho(values[perm], scale, poly_order, q)
    assert np.allclose(permuted, rho[np.ix_(perm, perm)], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_stacks(), st.lists(_Q, min_size=1, max_size=3, unique=True))
def test_self_and_cross_entry_points_agree(stack, q_values):
    # A stack against itself through the lagged entry point must give the
    # same fluctuations as the symmetric one: cross terms and both
    # normalizers within 1e-12 of sqrt(F_ii * F_jj), the scale of F_ij.
    values, scale, poly_order = stack
    own = fluctuation_matrices(values, scale, poly_order, q_values)
    cross = cross_fluctuation_matrices(values, values, scale, poly_order, q_values)
    for q in q_values:
        f = own[q]
        f_cross, f_head, f_tail = cross[q]
        diag = np.diag(f)
        bound = 1e-12 * np.sqrt(np.outer(diag, diag))
        assert np.all(np.abs(f_cross - f) <= bound)
        assert np.all(np.abs(f_head - diag) <= 1e-12 * diag)
        assert np.all(np.abs(f_tail - diag) <= 1e-12 * diag)
