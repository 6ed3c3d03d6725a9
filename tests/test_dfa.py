import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qdcca.dfa import (
    DetrendConfig,
    _box_profiles,
    _detrended_residuals,
    _gram_power,
    _signed_power,
    cross_fluctuation_matrices,
    fluctuation_matrices,
    rho_q,
    rho_q_lagged,
)
from qdcca.errors import (
    ConfigError,
    CorrelationBoundWarning,
    DegenerateFitError,
    ScaleTooLargeError,
    ShapeMismatchError,
    ZeroVarianceError,
)

from oracles import box_index_ranges, gram_power_box_loop, gram_power_one_chunk, rho_q_literal

import qdcca


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        DetrendConfig(scale=10, q=0.0)
    with pytest.raises(ConfigError):
        DetrendConfig(scale=10, q=-1.0)
    with pytest.raises(DegenerateFitError):
        DetrendConfig(scale=3, poly_order=2)
    with pytest.raises(ConfigError):
        DetrendConfig(scale=1)


def test_fluctuation_matrices_reject_a_repeated_q():
    values = np.random.default_rng(0).standard_normal((3, 60))
    with pytest.raises(ConfigError, match="more than once"):
        fluctuation_matrices(values, 10, 2, [1.0, 4.0, 1])


def _box_residuals(x, scale, poly_order):
    # The estimator kernel's input for one series: (boxes, scale).
    return _detrended_residuals(_box_profiles(np.asarray(x)[None, :], scale), scale, poly_order)[0]


def test_constant_series_has_zero_residuals():
    # Constant samples integrate to a linear profile, which any m >= 1
    # polynomial absorbs entirely.
    x = np.full(100, 0.37)
    for m in (1, 2, 3):
        assert np.allclose(_box_residuals(x, 20, m), 0.0, atol=1e-10)


def test_exact_division_gives_coincident_partitions():
    # T = 2s: the forward and backward partitions cover the same two boxes,
    # so the kernel forms each once and all box averages are unchanged.
    rng = np.random.default_rng(40)
    x = rng.standard_normal(40)
    resid = _box_residuals(x, 20, 1)
    ranges = box_index_ranges(40, 20)
    assert ranges[2:] == ranges[1::-1]
    assert resid.shape[0] == 2
    i = np.arange(1.0, 21.0)
    for box, (lo, hi) in zip(resid, ranges):
        prof = np.cumsum(x[lo - 1 : hi])
        assert np.allclose(box, prof - np.polyval(np.polyfit(i, prof, 1), i), atol=1e-12)


def test_box_layout_t25_s10():
    # Forward boxes cover samples 1-10 and 11-20, backward boxes 16-25 and
    # 6-15; the 5-sample remainder per direction joins no box.
    assert box_index_ranges(25, 10) == [(1, 10), (11, 20), (16, 25), (6, 15)]
    rng = np.random.default_rng(7)
    x = rng.standard_normal(25)
    resid = _box_residuals(x, 10, 1)
    assert resid.shape[0] == 4
    # Residuals of the third box must equal a standalone detrend of samples
    # 16..25 (1-based), independently recomputed.
    seg = x[15:25]
    prof = np.cumsum(seg)
    i = np.arange(1.0, 11.0)
    lit = prof - np.polyval(np.polyfit(i, prof, 1), i)
    assert np.allclose(resid[2], lit, atol=1e-12)


def test_scale_too_large_and_degenerate_fit():
    x = np.arange(30.0)
    cfg = DetrendConfig(scale=16, poly_order=1)
    with pytest.raises(ScaleTooLargeError):
        rho_q(x, x[::-1], cfg)
    with pytest.raises(ScaleTooLargeError):
        rho_q_lagged(x, x[::-1], cfg, 0)
    with pytest.raises(DegenerateFitError):
        DetrendConfig(scale=4, poly_order=3)


def test_local_moments_identical_and_negated_inputs():
    # A series paired with itself gives its own variance moments bit for
    # bit; paired with its negation, the covariance moments flip sign.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(120)
    for q in (1.0, 2.0, 4.0):
        f = fluctuation_matrices(np.stack([x, x, -x]), 20, 2, [q]).fluctuations(20)[q]
        assert f[0, 1] == f[0, 0] == f[1, 1] == f[2, 2]
        assert np.isclose(f[0, 2], -f[0, 0], rtol=0, atol=1e-12)
        assert f[0, 2] == f[2, 0]


def test_local_moments_two_point_boxes():
    # At s = 2, m = 0 a box [a, b] detrends to [-b/2, b/2]: x below gives
    # residuals [1, -1] in every box, y gives [2, -2], so the per-box
    # moments are 2 (xx), 8 (yy) and 4 (xy).
    x = np.array([0.0, -2.0, 0.0, -2.0])
    f = fluctuation_matrices(np.stack([x, 2.0 * x]), 2, 0, [2.0]).fluctuations(2)[2.0]
    assert f[0, 0] == pytest.approx(2.0)
    assert f[1, 1] == pytest.approx(8.0)
    assert f[0, 1] == pytest.approx(4.0)
    assert f[1, 0] == pytest.approx(4.0)


def test_fluctuation_function_values():
    # x's two boxes have moments 2 and 8, each counted twice (T = 2s), so
    # F_q is the mean of the per-box q/2 powers, not a power of their mean.
    x = np.array([0.0, -2.0, 0.0, -4.0])
    f = fluctuation_matrices(np.stack([x, -x]), 2, 0, [1.0, 2.0, 4.0]).fluctuations(2)
    assert f[2.0][0, 0] == pytest.approx(5.0)
    assert f[4.0][0, 0] == pytest.approx(34.0)
    assert f[1.0][0, 0] == pytest.approx(1.5 * np.sqrt(2.0))
    for q in (1.0, 2.0, 4.0):
        assert f[q][1, 1] == pytest.approx(f[q][0, 0])
        assert f[q][0, 1] == pytest.approx(-f[q][0, 0])


def test_self_and_anti_correlation_exact():
    rng = np.random.default_rng(11)
    for q in (0.5, 1.0, 2.0, 4.0):
        for s in (10, 32):
            x = rng.standard_normal(300)
            cfg = DetrendConfig(scale=s, poly_order=2, q=q)
            assert rho_q(x, x, cfg) == 1.0
            assert rho_q(x, -x, cfg) == -1.0


def test_non_finite_pair_names_its_series_and_sample():
    x = np.random.default_rng(0).standard_normal(100)
    y = x.copy()
    y[40] = -np.inf
    cfg = DetrendConfig(scale=10, poly_order=2, q=2.0)
    with pytest.raises(ShapeMismatchError, match="^y: return -inf at sample 40 is not finite$"):
        rho_q(x, y, cfg)
    with pytest.raises(ShapeMismatchError, match="^x: return -inf at sample 40 is not finite$"):
        rho_q(y, x, cfg)


@pytest.mark.parametrize("bad, energy", [(np.nan, "is NaN"), (1e200, "overflows")])
def test_box_energy_names_nan_apart_from_overflow(bad, energy):
    # The kernels take arrays as given, so a NaN reaches the variance rule.
    values = np.random.default_rng(0).standard_normal((3, 300))
    values[1, 101] = bad
    labels = ("a", "b", "c")
    reason = f"^b has a box energy that {energy}{{}} at scale 10; correlation undefined$"
    with pytest.raises(ZeroVarianceError, match=reason.format("")):
        fluctuation_matrices(values, 10, 2, [2.0]).coefficients(10, labels)
    (lagged,) = cross_fluctuation_matrices(values, [1], 10, 2, [2.0], [0]).values()
    with pytest.raises(ZeroVarianceError, match=reason.format(" in its lag 1 overlap")):
        lagged.coefficients(1, [1, 2], 10, labels)


def test_zero_variance_raises():
    x = np.full(100, 5.0)
    y = np.random.default_rng(0).standard_normal(100)
    cfg = DetrendConfig(scale=10, poly_order=2, q=2.0)
    with pytest.raises(ZeroVarianceError):
        rho_q(x, y, cfg)
    with pytest.raises(ZeroVarianceError):
        rho_q(y, x, cfg)


def test_independent_gaussians_decorrelate():
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    rng = np.random.default_rng(2024)
    values = []
    for _ in range(50):
        x = rng.standard_normal(10_000)
        y = rng.standard_normal(10_000)
        values.append(abs(rho_q(x, y, cfg)))
    assert np.mean(values) < 0.05


def test_known_pearson_level_recovered():
    cfg = DetrendConfig(scale=200, poly_order=2, q=2.0)
    target = 0.7
    chol = np.linalg.cholesky(np.array([[1.0, target], [target, 1.0]]))
    rng = np.random.default_rng(99)
    estimates = []
    for _ in range(20):
        z = rng.standard_normal((2, 50_000))
        x, y = chol @ z
        estimates.append(rho_q(x, y, cfg))
    assert abs(np.mean(estimates) - target) < 0.05


def test_symmetry():
    rng = np.random.default_rng(5)
    for q in (1.0, 2.0, 4.0):
        x = rng.standard_normal(600)
        y = 0.5 * x + rng.standard_normal(600)
        cfg = DetrendConfig(scale=40, poly_order=2, q=q)
        assert abs(rho_q(x, y, cfg) - rho_q(y, x, cfg)) < 1e-12


def test_affine_invariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(500)
    y = 0.3 * x + rng.standard_normal(500)
    for q in (1.0, 2.0, 4.0):
        cfg = DetrendConfig(scale=25, poly_order=2, q=q)
        base = rho_q(x, y, cfg)
        assert abs(rho_q(3.7 * x + 11.0, y, cfg) - base) < 1e-10
        assert abs(rho_q(-2.0 * x + 4.0, y, cfg) + base) < 1e-10


def test_q2_bound_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = int(rng.integers(80, 400))
        s = int(rng.integers(5, t // 2 + 1))
        m = int(rng.integers(1, min(3, s - 2) + 1))
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        r = rho_q(x, y, DetrendConfig(scale=s, poly_order=m, q=2.0))
        assert abs(r) <= 1.0 + 1e-12


def test_matches_literal_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        t = int(rng.integers(200, 2000))
        s = int(rng.integers(16, 129))
        if t < 2 * s:
            t = 2 * s + int(rng.integers(0, 50))
        q = float(rng.choice([1.0, 2.0, 4.0]))
        m = int(rng.choice([1, 2, 3]))
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        ours = rho_q(x, y, DetrendConfig(scale=s, poly_order=m, q=q))
        ref = rho_q_literal(x, y, q, s, m)
        assert abs(ours - ref) < 1e-10


def test_bound_warning_flag_for_q_not_2():
    # Per-box Cauchy-Schwarz keeps |rho_q| <= 1 mathematically for every
    # q > 0, so the out-of-range branch can only fire on floating-point
    # overshoot; exercise it directly through the coefficient rule.
    from qdcca.dfa import _coefficients

    def rule(q):
        return _coefficients(np.array([[3.0]]), np.array([2.0]), np.array([2.0]),
                             q, 10, ["x"], ["y"])

    with pytest.warns(CorrelationBoundWarning):
        rho = rule(1.0)
    assert rho[0, 0] == pytest.approx(1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule(2.0)


def test_lagged_zero_shift_is_bit_exact():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    cfg = DetrendConfig(scale=30, poly_order=2, q=2.0)
    assert rho_q_lagged(x, y, cfg, 0) == rho_q(x, y, cfg)


def test_lagged_ar1_tracks_persistence():
    rng = np.random.default_rng(14)
    phi = 0.9
    eps = rng.standard_normal(5000)
    x = np.empty(5000)
    x[0] = eps[0] / np.sqrt(1 - phi**2)
    for i in range(1, 5000):
        x[i] = phi * x[i - 1] + eps[i]
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    ours = rho_q_lagged(x, x, cfg, 1)
    ref = rho_q_literal(x[:-1], x[1:], 2.0, 50, 2)
    assert abs(ours - ref) < 1e-10
    assert ours > 0.5


def test_lagged_white_noise_stays_flat():
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    rng = np.random.default_rng(15)
    vals = []
    for _ in range(50):
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        vals.append(abs(rho_q_lagged(x, y, cfg, 1)))
        vals.append(abs(rho_q_lagged(x, y, cfg, -1)))
    assert np.mean(vals) < 0.05


def test_lagged_overlap_too_short():
    x = np.random.default_rng(1).standard_normal(101)
    y = np.random.default_rng(2).standard_normal(101)
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    with pytest.raises(ScaleTooLargeError):
        rho_q_lagged(x, y, cfg, 2)


def test_matrix_kernel_matches_pairwise_path():
    rng = np.random.default_rng(16)
    values = rng.standard_normal((5, 400))
    for q in (1.0, 2.0, 4.0):
        fmat = fluctuation_matrices(values, 25, 2, [q]).fluctuations(25)[q]
        cfg = DetrendConfig(scale=25, poly_order=2, q=q)
        for i in range(5):
            for j in range(i + 1, 5):
                direct = rho_q(values[i], values[j], cfg)
                via_matrix = fmat[i, j] / np.sqrt(fmat[i, i] * fmat[j, j])
                assert direct == via_matrix


def test_determinism_bitwise():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    cfg = DetrendConfig(scale=64, poly_order=2, q=4.0)
    assert rho_q(x, y, cfg) == rho_q(x.copy(), y.copy(), cfg)


def test_signed_power_matches_general_formula_bitwise():
    # Each specialization must reproduce sign(v) * |v|**(q/2) bit for bit,
    # including subnormals (which underflow to signed zero for q > 2) and
    # magnitudes whose powers approach the float range.  The one allowed
    # difference is the sign of a zero result for a -0.0 input: the
    # specializations keep -0.0 where the general formula gives +0.0, which
    # a box sum starting at +0.0 erases.
    tiny = np.finfo(np.float64).smallest_subnormal
    v = np.array([
        0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-310, 2.2e-308, -2.2e-308,
        1e-150, -1e-150, 3.7e-151, -7.1e149, 1e150, -1e150,
        0.5, -0.5, 1.0, -1.0, 2.0, -3.25, 1e-8, -123.456,
    ])
    v = np.concatenate([v, np.random.default_rng(18).standard_normal(200) * 1e3])
    for q in (0.5, 1.0, 3.0, 4.0):
        expected = np.sign(v) * np.abs(v) ** (q / 2.0)
        got = _signed_power(v, q, np.abs(v))
        assert np.array_equal(got, expected)
        nonzero_input = v != 0.0
        assert np.array_equal(
            got[nonzero_input].view(np.uint64), expected[nonzero_input].view(np.uint64)
        )
        assert np.all(got[v == 0.0] == 0.0)
    assert _signed_power(v, 2.0, np.abs(v)) is v


def test_cross_rows_match_all_rows_and_pairwise_lagged():
    # The anchor rows of the lagged product must agree with the same entries
    # taken from rows=range(N) and with the pairwise lagged coefficient.
    # Different row counts may take different BLAS kernels, so the check is
    # within 1e-12 (of sqrt(F_ii F_jj) for fluctuations), not bitwise.
    rng = np.random.default_rng(19)
    values = rng.standard_normal((40, 1_203)) * rng.uniform(0.5, 2.0, (40, 1))
    idx = [3, 17]
    for s in (10, 60):
        full = cross_fluctuation_matrices(values, [2], s, 2, (1.0, 2.0, 4.0), range(40))[2, 0]
        part = cross_fluctuation_matrices(values, [2], s, 2, (1.0, 2.0, 4.0), idx)[2, 0]
        for i, q in enumerate(full.q):
            # [0] is the rows' heads against tails, [1] their tails against heads
            all_rows, all_cols = full.cross[0, i], full.cross[1, i].T
            f_rows, f_cols = part.cross[0, i], part.cross[1, i].T
            (f_head, f_tail), (p_head, p_tail) = full.own[:, i], part.own[:, i]
            assert f_rows.shape == (2, 40) and f_cols.shape == (40, 2)
            assert np.array_equal(p_head, f_head)
            assert np.array_equal(p_tail, f_tail)
            scale = np.sqrt(np.outer(f_head, f_tail))
            assert np.all(np.abs(all_rows - all_cols) <= 1e-12 * scale)
            assert np.all(np.abs(f_rows - all_rows[idx, :]) <= 1e-12 * scale[idx, :])
            assert np.all(np.abs(f_cols - all_cols[:, idx]) <= 1e-12 * scale[:, idx])
            cfg = DetrendConfig(scale=s, poly_order=2, q=q)
            for i, a in enumerate(idx):
                for j in range(40):
                    # head series a leads tail series j (tau = +2) and the
                    # other way round (anchor shifted by tau = -2)
                    ahead = f_rows[i, j] / np.sqrt(f_head[a] * f_tail[j])
                    behind = f_cols[j, i] / np.sqrt(f_tail[a] * f_head[j])
                    assert abs(ahead - rho_q_lagged(values[a], values[j], cfg, 2)) < 1e-12
                    assert abs(behind - rho_q_lagged(values[a], values[j], cfg, -2)) < 1e-12



def test_q2_product_matches_per_box_loop():
    # At q = 2 the kernel sums the boxes as one (A, B*s) @ (B*s, N)
    # product.  The literal per-box loop adds in another order, so the two
    # agree to rounding, relative to sqrt(e_a e_b) (the Cauchy-Schwarz bound
    # of an entry, with e the residual energies), on the self path and on
    # the lagged rows path, with s dividing T (1,200) and not (1,213).
    rng = np.random.default_rng(21)
    s, idx = 30, [3, 7]
    for t in (1_200, 1_213):
        values = rng.standard_normal((12, t)) * rng.uniform(0.5, 2.0, (12, 1))
        head, tail = values[:, :-2], values[:, 2:]
        resid, rh, rt = (_detrended_residuals(_box_profiles(v, s), s, 2)
                         for v in (values, head, tail))
        cross = cross_fluctuation_matrices(values, [2], s, 2, [2.0], idx)[2, 0].cross[:, 0]
        for got, ra, rb in (
            (fluctuation_matrices(values, s, 2, [2.0]).power[2.0], resid, resid),
            (cross[0], rh[idx], rt),
            (cross[1], rt[idx], rh),
        ):
            want = gram_power_box_loop(ra, rb, [2.0])[2.0]
            energy = (np.einsum("nbs,nbs->n", r, r) for r in (ra, rb))
            assert np.all(np.abs(got - want) <= 1e-12 * np.sqrt(np.outer(*energy)))


def test_q2_sums_do_not_depend_on_other_q():
    # The q = 2 product is the same bits whether q = 2 is asked alone or
    # with other q, and those keep the per-box loop's bits.
    rng = np.random.default_rng(22)
    values = rng.standard_normal((10, 1_213))
    for s in (10, 30):
        alone = fluctuation_matrices(values, s, 2, [2.0]).power
        mixed = fluctuation_matrices(values, s, 2, [1.0, 2.0, 4.0]).power
        assert np.array_equal(alone[2.0], mixed[2.0])
        resid = _detrended_residuals(_box_profiles(values, s), s, 2)
        loop = gram_power_box_loop(resid, resid, [1.0, 4.0])
        for q in (1.0, 4.0):
            assert np.array_equal(mixed[q], loop[q])
        alone = cross_fluctuation_matrices(values, [1], s, 2, [2.0], [0, 4])[1, 0]
        mixed = cross_fluctuation_matrices(values, [1], s, 2, [1.0, 2.0, 4.0], [0, 4])[1, 0]
        assert np.array_equal(alone.cross[:, 0], mixed.cross[:, 1])
        assert np.array_equal(alone.own[:, 0], mixed.own[:, 1])


def test_sub_chunked_powers_keep_the_chunked_kernels_bits():
    # The kernel powers 16 boxes at a time, the upper triangles only, with
    # |g| shared by every q, and carries the running total into each
    # sub-chunk's first box; the sums must keep the bits of the per-q
    # kernel that summed whole 512-box chunks (kept in tests/oracles.py).
    # B = 144 is nine sub-chunks and 37 is not a multiple of 16.  B = 1,008
    # spans two 512-box chunks, where that kernel restarts its sum, so it is
    # held to the in-order sum over all boxes, one chunk.
    rng = np.random.default_rng(24)
    for n, b, s in ((80, 144, 10), (12, 37, 10), (9, 1_008, 6)):
        values = rng.standard_normal((n, b * s)) * rng.uniform(0.5, 2.0, (n, 1))
        resid = _detrended_residuals(_box_profiles(values, s), s, 2)
        got = _gram_power(resid, [0.5, 1.0, 4.0])
        oracle = gram_power_box_loop if b <= 512 else gram_power_one_chunk
        want = oracle(resid, resid, [0.5, 1.0, 4.0])
        for q in (0.5, 1.0, 4.0):
            assert got[q].tobytes() == want[q].tobytes(), (b, q)


def test_q2_fluctuations_peak_memory_is_a_few_inputs():
    # No (B, N, N) stack of per-box Grams at q = 2: at N = 250, T = 1,440,
    # s = 30 that stack alone is 8.3x the input's bytes.
    values = np.random.default_rng(23).standard_normal((250, 1_440))
    tracemalloc.start()
    try:
        fluctuation_matrices(values, 30, 2, [2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * values.nbytes, peak / values.nbytes

# Residuals at s = 60 and 180, then the sha1 of every file of a small
# sweep80-shaped run (N = 80, 14,400 minutes, four windows, q = 1, 2, 4,
# s = 10 to 360, lags -1, 0, 1, two anchors, eigensignal residuals).
_RUN_DIGEST = """
import hashlib, os, tempfile
import numpy as np
from qdcca.config import AnalysisConfig
from qdcca.dfa import _box_profiles, _detrended_residuals
from qdcca.emit import MANIFEST_NAME, write_outputs
from qdcca.pipeline import ALL_FAMILIES, run_analysis
from qdcca.synth import GeneratorSpec, synth_returns
values = np.random.default_rng(0).standard_normal((80, 6001))
for s in (60, 180):
    r = _detrended_residuals(_box_profiles(values, s), s, 2)
    print(f"residuals_{s}", hashlib.sha1(r.tobytes()).hexdigest())
returns = synth_returns(GeneratorSpec("factor", 80, 14_400,
                        {"beta": 1.0, "sigma": 1.0, "response_spread": 30}), seed=80)
cfg = AnalysisConfig(q=(1.0, 2.0, 4.0), s=(10, 60, 180, 360), lags=(-1, 0, 1),
                     anchors=("SYN00", "SYN01"), residual=True, seed=1)
with tempfile.TemporaryDirectory() as out:
    manifest = write_outputs(run_analysis(cfg, returns), cfg, out, ALL_FAMILIES)
    for name in manifest["outputs"] + [MANIFEST_NAME]:
        with open(os.path.join(out, name), "rb") as fh:
            print(name, hashlib.sha1(fh.read()).hexdigest())
"""


def _start_digest_run(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(qdcca.__file__).resolve().parent.parent))
    return subprocess.Popen([sys.executable, "-c", _RUN_DIGEST], env=env,
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_residuals_do_not_depend_on_blas_threads():
    # Both runs at once: the bits depend on the thread count, not on timing.
    runs = [_start_digest_run(1), _start_digest_run(2)]
    outs = [proc.communicate(timeout=300)[0] for proc in runs]
    assert [proc.returncode for proc in runs] == [0, 0]
    one, two = (dict(line.split() for line in out.splitlines()) for out in outs)
    # 2 residual stacks, 116 CSVs (12 each of spectra, topology, lagged per
    # anchor and periods, 48 edge files, 8 cluster rasters) and the manifest
    assert len(one) == 2 + 116 + 1
    assert one == two, sorted(name for name in one if one[name] != two.get(name))
