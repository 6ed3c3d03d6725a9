import struct
import warnings

import numpy as np
import pytest

from qdcca.errors import ConfigError, InsufficientSupportError, ShapeMismatchError
from qdcca.network import (
    _aggregate,
    _local_phase,
    DegreeDistribution,
    DistanceMatrix,
    Partition,
    cluster_track,
    degree_distribution,
    distance_matrix,
    louvain,
    mean_path_length,
    minimum_spanning_tree,
    powerlaw_fit,
)
from qdcca.spectra import DetrendedCorrelationMatrix

from oracles import (
    aggregate_loop,
    all_pairs_hops,
    best_partition_exhaustive,
    brute_force_mst,
    local_phase_loop,
    louvain_loop,
    mean_path_length_cut_loop,
    mean_path_length_loop,
    modularity_direct,
    n_communities,
    prim_mst_loop,
    survival_at,
    tree_from_edges,
    tree_pairs,
    tree_weight,
)


def _corr(mat, labels=None):
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    labels = labels or tuple(f"A{i}" for i in range(n))
    return DetrendedCorrelationMatrix(values=mat, labels=tuple(labels))


def _dist(mat, labels=None):
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    labels = labels or tuple(f"A{i}" for i in range(n))
    return DistanceMatrix(values=mat, labels=tuple(labels))


def _random_symmetric(rng, n):
    mat = rng.uniform(0.05, 1.0, size=(n, n))
    mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, 0.0)
    return mat


def _random_correlation(rng, n, rounded):
    # Factor-model sample correlations; rounding to one decimal forces
    # weight ties, exact zeros and -0.0 entries.
    k = int(rng.integers(1, 4))
    loadings = rng.standard_normal((n, k)) * rng.uniform(0.0, 1.5, k)
    x = loadings @ rng.standard_normal((k, 120)) + rng.standard_normal((n, 120))
    rho = np.corrcoef(x)
    rho = (rho + rho.T) / 2
    if rounded:
        rho = np.round(rho, 1)
    np.fill_diagonal(rho, 1.0)
    return rho


def _modularity(weights, part, c):
    """The oracle's modularity of a partition's communities, in label order."""
    return modularity_direct(weights, [part.communities[lab] for lab in c.labels])


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _assert_path_lengths_match(tree, n, edges):
    # Hop counts sum exact integers, so any order gives the per-source
    # loop's bits.  Distances are added in edge order like the cut loop,
    # and agree with the per-source loop to rounding.
    hops = mean_path_length(tree)
    assert _bits([hops]) == _bits([mean_path_length_loop(n, edges)])
    assert _bits([hops]) == _bits([mean_path_length_cut_loop(n, edges)])
    weighted = mean_path_length(tree, weighted=True)
    assert _bits([weighted]) == _bits([mean_path_length_cut_loop(n, edges, True)])
    assert weighted == pytest.approx(mean_path_length_loop(n, edges, True), rel=1e-13, abs=0.0)


def test_network_layer_matches_loop_references_bitwise():
    rng = np.random.default_rng(2024)
    sizes = [2, 3, 90] + rng.integers(2, 91, size=37).tolist()
    for case, n in enumerate(sizes):
        rho = _random_correlation(rng, n, rounded=case % 2 == 1)
        c = _corr(rho)
        d = distance_matrix(c)
        assert d.rho is c.values  # a reference to the source coefficients, not a copy
        tree = minimum_spanning_tree(d)
        expected = prim_mst_loop(d.values, c.values)
        got = [(*ij, d, r) for ij, d, r in
               zip(tree_pairs(tree), tree.distance.tolist(), tree.rho.tolist())]
        assert [e[:2] for e in got] == [e[:2] for e in expected]
        assert _bits([x for e in got for x in e[2:]]) == _bits(
            [x for e in expected for x in e[2:]]
        )
        loop_edges = [(i, j, dist) for i, j, dist, _ in expected]
        _assert_path_lengths_match(tree, n, loop_edges)
        resolution = (1.0, 0.5, 1.5)[case % 3]
        part = louvain(c, resolution=resolution, seed=case)
        members, _, _ = louvain_loop(rho, resolution, seed=case)
        assert [part.communities[lab] for lab in c.labels] == members


def test_louvain_phases_match_loop_references_bitwise():
    # Weights over twelve decades make every change of summation order
    # visible in the aggregated matrix.
    rng = np.random.default_rng(77)
    for case in range(40):
        n = int(rng.integers(2, 60))
        weights = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
        weights[rng.uniform(size=(n, n)) < 0.3] = 0.0
        np.fill_diagonal(weights, 0.0)
        membership = rng.integers(0, max(1, n // 3), n)
        agg, comm = _aggregate(weights, membership)
        ref_agg, ref_comm = aggregate_loop(weights, membership)
        assert agg.tobytes() == ref_agg.tobytes()
        assert np.array_equal(comm, ref_comm)
        sym = np.round((weights + weights.T) / 2e6, case % 3)
        gen, ref_gen = np.random.default_rng(case), np.random.default_rng(case)
        two_m = sym.sum()
        if two_m > 0.0:
            got = _local_phase(sym, two_m, 1.0, gen)
            assert np.array_equal(got, local_phase_loop(sym, two_m, 1.0, ref_gen))
            assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_screened_visits_replay_the_round_trip():
    # Weights of 0.7e7 times small integers make the community totals
    # inexact, and gains near 1e7 put the 1e-12 stay tolerance below one
    # ulp.  A cleared visit's (t - s) + s moves a total by an ulp, which
    # decides node 1's later tie: skipping it sends node 1 to community 3.
    ints = np.array([[0, 3, 3, 3, 0], [3, 0, 3, 3, 3], [3, 3, 0, 2, 3],
                     [3, 3, 2, 0, 2], [0, 3, 3, 2, 0]])
    weights = ints * 0.7 * 1e7
    gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
    got = _local_phase(weights, weights.sum(), 1.0, gen)
    assert got.tolist() == [3, 4, 4, 3, 4]
    assert np.array_equal(got, local_phase_loop(weights, weights.sum(), 1.0, ref_gen))
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_mean_path_length_matches_loop_on_forests():
    # Edges in random order and orientation, and nodes left unattached:
    # the per-source loop adds the same terms in the same order.
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        # Each node after the first in a random order joins an earlier one.
        order = rng.permutation(n)
        edges = [
            (int(order[rng.integers(0, k)]), int(order[k]), float(rng.uniform(0.0, 2.0)))
            for k in range(1, n)
            if rng.uniform() < 0.9
        ]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        edges = [(b, a, w) if rng.uniform() < 0.5 else (a, b, w) for a, b, w in edges]
        tree = tree_from_edges(n, edges)
        _assert_path_lengths_match(tree, n, edges)


@pytest.mark.parametrize(
    "pairs", [[(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 0)], [(0, 1), (2, 2)]]
)
def test_mean_path_length_rejects_cycles(pairs):
    with pytest.raises(ShapeMismatchError):
        mean_path_length(tree_from_edges(4, pairs))


def test_distance_reference_points():
    d = distance_matrix(_corr([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(d.values, 0.0)
    d = distance_matrix(_corr([[1.0, 0.0], [0.0, 1.0]]))
    assert d.values[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    d = distance_matrix(_corr([[1.0, -1.0], [-1.0, 1.0]]))
    assert d.values[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_distance_clamps_out_of_range_rho():
    # A rho past 1 is rounding: its distance is 0, silently, and the raw
    # coefficient stays on the matrix.
    rho = 1.0 + 2.0**-52
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = distance_matrix(_corr([[1.0, rho, 0.5], [rho, 1.0, 0.5], [0.5, 0.5, 1.0]]))
    assert d.values[0, 1] == d.values[1, 0] == 0.0
    assert d.values[0, 2] == np.sqrt(2.0 * (1.0 - 0.5))
    assert d.rho[0, 1] == rho


def test_distance_metricity_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(20):
        rho = rng.uniform(-1.0, 1.0, size=(6, 6))
        rho = (rho + rho.T) / 2
        np.fill_diagonal(rho, 1.0)
        d = distance_matrix(_corr(rho))
        assert np.all(d.values >= 0.0)
        assert np.all(d.values <= 2.0 + 1e-12)
        assert np.all(np.diag(d.values) == 0.0)
        assert np.array_equal(d.values, d.values.T)


def test_mst_three_nodes():
    d = _dist([[0.0, 0.1, 0.2], [0.1, 0.0, 0.9], [0.2, 0.9, 0.0]])
    tree = minimum_spanning_tree(d)
    assert set(tree_pairs(tree)) == {(0, 1), (0, 2)}
    assert tree_weight(tree) == pytest.approx(0.3, abs=1e-12)


def test_mst_hub_dominance():
    n = 12
    mat = np.full((n, n), 1.9)
    mat[0, :] = mat[:, 0] = 1e-3
    np.fill_diagonal(mat, 0.0)
    tree = minimum_spanning_tree(_dist(mat))
    assert tree.degrees()[0] == n - 1


def test_mst_matches_bruteforce_and_monotone_invariance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        mat = _random_symmetric(rng, 7)
        tree = minimum_spanning_tree(_dist(mat))
        oracle_weight, oracle_edges = brute_force_mst(mat)
        assert tree_weight(tree) == oracle_weight
        edge_set = set(tree_pairs(tree))
        assert edge_set == oracle_edges
        squared = minimum_spanning_tree(_dist(mat**2))
        assert set(tree_pairs(squared)) == edge_set


def test_mst_deterministic_tie_breaking():
    # All distances equal: ties resolve to edges from the lowest labels.
    n = 5
    mat = np.ones((n, n))
    np.fill_diagonal(mat, 0.0)
    tree = minimum_spanning_tree(_dist(mat))
    assert set(tree_pairs(tree)) == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_handshake_lemma():
    rng = np.random.default_rng(5)
    for n in (2, 5, 9, 30):
        tree = minimum_spanning_tree(_dist(_random_symmetric(rng, n)))
        assert tree.degrees().sum() == 2 * (n - 1)


def test_degree_distribution_star_and_path():
    star = tree_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    dd = degree_distribution(star.degrees())
    assert sorted(star.degrees().tolist()) == [1, 1, 1, 1, 4]
    assert dd.degrees.tolist() == [1, 4]
    assert dd.survival.tolist() == [1.0, 0.2]
    assert survival_at(star.degrees(), 2) == pytest.approx(0.2)
    path = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    dd = degree_distribution(path.degrees())
    assert dd.survival.tolist() == [1.0, 0.5]
    assert survival_at(path.degrees(), 2) == pytest.approx(0.5)


def test_powerlaw_exact_recovery():
    ks = np.arange(1, 11)
    dd = DegreeDistribution(degrees=ks, survival=ks.astype(float) ** -1.5)
    gamma, se = powerlaw_fit(dd)
    assert gamma == pytest.approx(1.5, abs=1e-12)
    assert se < 1e-12


def test_powerlaw_star_insufficient_support():
    star = tree_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(InsufficientSupportError):
        powerlaw_fit(degree_distribution(star.degrees()))


def test_powerlaw_matches_independent_regression():
    from scipy.stats import linregress

    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(100):
        # Preferential attachment: new node picks a target with
        # probability proportional to its degree.
        n = 80
        degrees = np.zeros(n, dtype=np.int64)
        edges = [(0, 1)]
        degrees[0] = degrees[1] = 1
        for v in range(2, n):
            probs = degrees[:v] / degrees[:v].sum()
            target = int(rng.choice(v, p=probs))
            edges.append((min(target, v), max(target, v)))
            degrees[target] += 1
            degrees[v] += 1
        dd = degree_distribution(tree_from_edges(n, edges).degrees())
        try:
            gamma, se = powerlaw_fit(dd)
        except InsufficientSupportError:
            continue
        fit = linregress(np.log(dd.degrees), np.log(dd.survival))
        assert abs(gamma - abs(fit.slope)) <= 3 * max(se, 1e-15)
        checked += 1
    assert checked >= 95


def test_mean_path_length_closed_forms():
    star80 = tree_from_edges(80, [(0, k) for k in range(1, 80)])
    assert mean_path_length(star80) == pytest.approx(2 * 79 / 80, abs=1e-12)
    assert mean_path_length(star80) == pytest.approx(1.975, abs=1e-12)
    path4 = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert mean_path_length(path4) == pytest.approx((1 + 2 + 3 + 1 + 2 + 1) / 6, abs=1e-12)


def test_mean_path_length_against_floyd_warshall():
    rng = np.random.default_rng(9)
    for n in (3, 5, 7, 9):
        for _ in range(10):
            tree = minimum_spanning_tree(_dist(_random_symmetric(rng, n)))
            hops = all_pairs_hops(n, tree_pairs(tree))
            expected = hops[np.triu_indices(n, 1)].mean()
            assert mean_path_length(tree) == pytest.approx(expected, abs=1e-12)
            assert 1.0 <= mean_path_length(tree) <= (n + 1) / 3 + 1e-12


def test_mean_path_length_weighted_variant():
    tree = tree_from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)], labels=("a", "b", "c"))
    # pairs: a-b 0.5, b-c 0.25, a-c 0.75
    assert mean_path_length(tree, weighted=True) == pytest.approx(0.5, abs=1e-12)


def test_louvain_two_planted_blocks_match_exhaustive():
    mat = np.zeros((8, 8))
    for block in (range(4), range(4, 8)):
        for i in block:
            for j in block:
                if i != j:
                    mat[i, j] = 0.8
    np.fill_diagonal(mat, 1.0)
    c = _corr(mat)
    part = louvain(c, resolution=1.0, seed=0)
    groups = {}
    for lab, cid in part.communities.items():
        groups.setdefault(cid, set()).add(lab)
    assert sorted(map(sorted, groups.values())) == [
        ["A0", "A1", "A2", "A3"],
        ["A4", "A5", "A6", "A7"],
    ]
    weights = np.maximum(mat, 0.0).copy()
    np.fill_diagonal(weights, 0.0)
    best_q, _ = best_partition_exhaustive(weights)
    assert _modularity(weights, part, c) == pytest.approx(best_q, abs=1e-12)


def test_louvain_uniform_positive_matrix_single_community():
    mat = np.full((6, 6), 0.4)
    np.fill_diagonal(mat, 1.0)
    c = _corr(mat)
    part = louvain(c, resolution=1.0, seed=1)
    assert n_communities(part) == 1
    weights = np.full((6, 6), 0.4)
    np.fill_diagonal(weights, 0.0)
    best_q, best_parts = best_partition_exhaustive(weights)
    assert len(best_parts) == 1
    assert _modularity(weights, part, c) == pytest.approx(best_q, abs=1e-12)


def test_louvain_recovers_uneven_blocks():
    sizes = (3, 5)
    n = sum(sizes)
    planted = [0] * 3 + [1] * 5
    hits = 0
    for seed in range(100):
        mat = np.full((n, n), 0.05)
        for i in range(n):
            for j in range(n):
                if planted[i] == planted[j]:
                    mat[i, j] = 0.9
        np.fill_diagonal(mat, 1.0)
        part = louvain(_corr(mat), resolution=1.0, seed=seed)
        groups = {}
        for lab, cid in part.communities.items():
            groups.setdefault(cid, set()).add(lab)
        got = sorted(sorted(g) for g in groups.values())
        want = [["A0", "A1", "A2"], ["A3", "A4", "A5", "A6", "A7"]]
        if got == want:
            hits += 1
    assert hits >= 95


def test_louvain_all_nonpositive_weights_one_community_per_node():
    mat = np.full((4, 4), -0.2)
    np.fill_diagonal(mat, 1.0)
    part = louvain(_corr(mat))
    assert part.communities == {"A0": 0, "A1": 1, "A2": 2, "A3": 3}
    assert n_communities(part) == 4


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"), 0.0, -1.0])
def test_louvain_rejects_a_resolution_that_is_not_finite_and_positive(resolution):
    # nan used to leave every node alone with modularity nan, and inf gave
    # modularity -inf with a RuntimeWarning.
    mat = np.full((4, 4), 0.5)
    np.fill_diagonal(mat, 1.0)
    with pytest.raises(ConfigError, match="resolution must be finite and positive"):
        louvain(_corr(mat), resolution=resolution)


def test_louvain_modularity_monotone_and_beats_singletons():
    rng = np.random.default_rng(12)
    for seed in range(10):
        mat = rng.uniform(-0.2, 0.9, size=(10, 10))
        mat = (mat + mat.T) / 2
        np.fill_diagonal(mat, 1.0)
        c = _corr(mat)
        part = louvain(c, resolution=1.0, seed=seed)
        members, _, history = louvain_loop(mat, 1.0, seed=seed)
        assert [part.communities[lab] for lab in c.labels] == members
        assert np.all(np.diff(history) >= -1e-12)
        weights = np.maximum(mat, 0.0).copy()
        np.fill_diagonal(weights, 0.0)
        singleton_q = modularity_direct(weights, range(10))
        assert _modularity(weights, part, c) >= singleton_q - 1e-12


def test_louvain_partition_is_exact_cover():
    rng = np.random.default_rng(13)
    mat = rng.uniform(0.0, 1.0, size=(9, 9))
    mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, 1.0)
    part = louvain(_corr(mat), seed=3)
    assert sorted(part.communities) == sorted(f"A{i}" for i in range(9))
    assert all(isinstance(cid, int) for cid in part.communities.values())


def test_cluster_track_basics():
    p1 = Partition(communities={"a": 0, "b": 0, "c": 1})
    labels, raster = cluster_track([p1], anchor="a")
    assert labels == ("a", "b", "c")
    assert raster.tolist() == [[True, True, False]]
    p2 = Partition(communities={"a": 2, "b": 0, "c": 1})
    labels, raster = cluster_track([p2], anchor="a")
    assert raster.tolist() == [[True, False, False]]


def test_cluster_track_three_windows_matches_enumeration():
    parts = [
        Partition(communities={"a": 0, "b": 0, "c": 1, "d": 1}),
        Partition(communities={"a": 0, "b": 1, "c": 0, "d": 1}),
        Partition(communities={"a": 3, "b": 3, "c": 3, "d": 0}),
    ]
    labels, raster = cluster_track(parts, anchor="b")
    assert labels == ("a", "b", "c", "d")
    assert raster.tolist() == [
        [True, True, False, False],
        [False, True, False, True],
        [True, True, True, False],
    ]
    with pytest.raises(ShapeMismatchError):
        cluster_track(parts, anchor="zz")
