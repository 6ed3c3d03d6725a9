"""Network representation of a correlation matrix.

Distances follow d = sqrt(2(1 - rho)), so perfectly correlated assets sit
at distance 0 and perfectly anticorrelated ones at distance 2.  The
minimum spanning tree is built with Prim's algorithm using lexicographic
(weight, min node, max node) comparisons, which makes the edge set unique
and invariant under any strictly increasing reweighting.  The mean path
length sums over edge cuts: an edge that splits its component of c nodes
into n and c - n lies on the paths of n (c - n) pairs (Wiener, 1947), so
one walk that sizes every subtree gives all pairs at once.  Community
detection is a two-phase greedy modularity search on the complete weighted
graph with negative coefficients clamped to zero (Blondel et al., 2008).
Results are plain data: a tree is its edge arrays in Prim's order, a
partition a label -> community map.

After the first sweep of a phase almost no visit moves a node, so from the
second sweep on a screen skips the visits that provably cannot.  At the
start of each sweep one product builds an approximate table of every
node's links to the k non-empty communities; a move from a to b updates
only columns a and b, and re-screens the nodes after the mover.  A node of
strength S and pull P = resolution * S is cleared when its stay gain beats
every other non-empty community's gain, as the table scores them, by more
than 12 (n + 2) (e (S + P T / two_m) + eta): n is the level's node count,
e = 2**-53 the unit roundoff, eta the smallest subnormal and T the largest
community total.  The margin bounds the gap between the screen's slack
and the exact visit's, to first order in e.  The links of each gain carry
at most n e S from the visit's in-order sum, n e S from the product and
n e S from the column updates, one per move of the sweep.  A replayed round
trip moves a total by at most 2 e T, and at most n of them fall between a
screen and a visit, since a move re-screens.  The other products,
quotients and differences add fewer than 20 roundings of at most
e (S + P T / two_m) each.  Over the two gains compared that is at most
(6 n + 7) e S + (4 n + 18) e P T / two_m, and each of the fewer than
12 (n + 2) operations adds at most eta under gradual underflow.  The
exact visit moves only on a gain above fl(stay + 1e-12) >= stay, so a
cleared node stays put.  The screen never picks a move, so the product's
summation order cannot reach any output.  A cleared visit still replays
the exact visit's ``comm_total[c] -= S; comm_total[c] += S``: that round
trip need not return the same float, and later gains read its bits.
Every other node gets the exact visit, so partitions and generator draws
are bit-identical to visiting every node.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientSupportError, ShapeMismatchError
from .spectra import DetrendedCorrelationMatrix


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    labels: tuple[str, ...]
    q: float
    scale: int
    clipped: bool = False  # True when rho > 1 entries were clamped to d = 0

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)  # fields are arrays: compare them, not trees
class SpanningTree:
    """The n - 1 edges in the order Prim adds them: endpoint indices
    ``i < j`` (int64) into ``labels``, with each edge's distance and rho
    (float64)."""

    labels: tuple[str, ...]
    i: np.ndarray
    j: np.ndarray
    distance: np.ndarray
    rho: np.ndarray

    def degrees(self) -> np.ndarray:
        ends = np.concatenate((self.i, self.j))
        return np.bincount(ends, minlength=len(self.labels))


@dataclass(frozen=True)
class DegreeDistribution:
    """Empirical survival function of node degrees: ``survival[k]`` is the
    fraction of nodes of degree at least ``degrees[k]``, at each distinct
    degree in increasing order."""

    degrees: np.ndarray
    survival: np.ndarray


@dataclass(frozen=True)
class Partition:
    communities: dict[str, int]
    degenerate: bool = False          # all-zero weights: one community per node


def distance_matrix(c: DetrendedCorrelationMatrix) -> DistanceMatrix:
    """Metric distances d = sqrt(2(1 - rho)); rho > 1 clamps the radicand."""
    radicand = 2.0 * (1.0 - c.values)
    clipped = bool(np.any(radicand < 0.0))
    if clipped:
        warnings.warn(
            f"rho > 1 at q={c.q}, s={c.scale}: clamping distance radicand to 0",
            stacklevel=2,
        )
        radicand = np.maximum(radicand, 0.0)
    dist = np.sqrt(radicand)
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(
        values=dist, labels=c.labels, q=c.q, scale=c.scale, clipped=clipped
    )


def minimum_spanning_tree(
    d: DistanceMatrix, rho: np.ndarray | None = None
) -> SpanningTree:
    """Prim's algorithm over the dense distance matrix.

    Ties are broken on (weight, min node index, max node index), so equal
    inputs always yield the same tree.  ``rho`` optionally supplies the
    companion coefficients stored with the edges; by default they are
    recovered from the distances.
    """
    dist = d.values
    n = d.dim
    if n < 2:
        raise ShapeMismatchError("need at least 2 nodes")
    if not np.all(np.isfinite(dist)):
        raise ShapeMismatchError("distance matrix contains non-finite entries")
    if rho is None:
        rho = 1.0 - dist**2 / 2.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_weight = dist[0].copy()
    best_weight[0] = np.inf  # a node in the tree is never picked again
    best_from = np.zeros(n, dtype=np.int64)
    ends = np.empty((2, n - 1), dtype=np.int64)
    for k in range(n - 1):
        v = int(best_weight.argmin())
        tied = np.nonzero(best_weight == best_weight[v])[0]
        if tied.size > 1:
            u = best_from[tied]
            v = int(tied[np.lexsort((np.maximum(u, tied), np.minimum(u, tied)))[0]])
        u = int(best_from[v])
        ends[:, k] = (u, v) if u < v else (v, u)
        in_tree[v] = True
        best_weight[v] = np.inf
        row = dist[v]
        improved = (row < best_weight) & ~in_tree
        # Equal weights keep the incumbent only if its (min, max) key is
        # smaller; otherwise the new attachment wins the tie.
        w = np.nonzero(row == best_weight)[0]
        if w.size:
            old_u = best_from[w]
            lo, old_lo = np.minimum(v, w), np.minimum(old_u, w)
            hi, old_hi = np.maximum(v, w), np.maximum(old_u, w)
            improved[w] = (lo < old_lo) | ((lo == old_lo) & (hi < old_hi))
        best_weight[improved] = row[improved]
        best_from[improved] = v
    i, j = ends
    return SpanningTree(d.labels, i, j, dist[i, j], rho[i, j])


def degree_distribution(tree: SpanningTree) -> DegreeDistribution:
    """Survival function P(X >= k) over the tree's node degrees."""
    distinct, counts = np.unique(tree.degrees(), return_counts=True)
    # Exact integer counts over n: the bits of the mean of degrees >= k.
    survival = np.cumsum(counts[::-1])[::-1] / len(tree.labels)
    return DegreeDistribution(degrees=distinct, survival=survival)


def powerlaw_fit(dd: DegreeDistribution) -> tuple[float, float]:
    """Least-squares slope of ln P(X >= k) on ln k over the observed degrees.

    Returns (gamma, stderr) with gamma the slope magnitude.  Raises
    InsufficientSupportError with fewer than 3 distinct degree values.
    """
    mask = (dd.degrees >= 1) & (dd.survival > 0)
    ks = dd.degrees[mask]
    ps = dd.survival[mask]
    if ks.size < 3:
        raise InsufficientSupportError(
            f"power-law fit needs >= 3 distinct degrees, got {ks.size}"
        )
    x = np.log(ks.astype(np.float64))
    y = np.log(ps)
    xc = x - x.mean()
    sxx = xc @ xc
    slope = (xc @ y) / sxx
    intercept = y.mean() - slope * x.mean()
    resid = y - slope * x - intercept
    dof = ks.size - 2
    sigma2 = (resid @ resid) / dof
    stderr = float(np.sqrt(sigma2 / sxx))
    return float(abs(slope)), stderr


def mean_path_length(tree: SpanningTree, weighted: bool = False) -> float:
    """Average path length over unordered node pairs.

    Path length is the hop count of the unique tree path; with
    ``weighted`` the edge distances are summed instead.  Raises
    ShapeMismatchError when the edges contain a cycle.
    """
    n = len(tree.labels)
    ends = list(zip(tree.i.tolist(), tree.j.tolist()))
    incident = [[] for _ in range(n)]
    for k, (a, b) in enumerate(ends):
        incident[a].append((k, b))
        incident[b].append((k, a))
    # Walk each component from its lowest node.  A node is reached once,
    # over its parent edge; any other edge to a reached node closes a cycle.
    root, parent_edge, reached = [-1] * n, [-1] * n, []
    for start in range(n):
        if root[start] >= 0:
            continue
        root[start], stack = start, [start]
        while stack:
            u = stack.pop()
            for k, v in incident[u]:
                if k == parent_edge[u]:
                    continue
                if root[v] >= 0:
                    raise ShapeMismatchError("tree edges contain a cycle")
                root[v], parent_edge[v] = start, k
                reached.append((v, u))
                stack.append(v)
    # A node is reached after its parent, so in reverse order every subtree
    # size is final before it is added to the parent's.
    size = [1] * n
    for v, u in reversed(reached):
        size[u] += size[v]
    # Edge e lies on the paths of the n_e * (c_e - n_e) pairs it separates,
    # with n_e the size of the subtree below it and c_e its component's.
    total = 0.0
    for k, ((a, b), d) in enumerate(zip(ends, tree.distance.tolist())):
        below = b if parent_edge[b] == k else a
        n_e = size[below]
        total += (d if weighted else 1.0) * (n_e * (size[root[below]] - n_e))
    return total / (n * (n - 1) / 2)


def _aggregate(weights: np.ndarray, membership: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # bincount adds in index order, the row-major (a, b) order of a loop.
    ids, comm = np.unique(membership, return_inverse=True)
    k = ids.size
    cell = (comm[:, None] * k + comm[None, :]).ravel()
    agg = np.bincount(cell, weights=weights.ravel(), minlength=k * k).reshape(k, k)
    return agg, comm


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_UNDERFLOW = np.finfo(np.float64).smallest_subnormal  # bounds one op's absolute error


def _local_phase(weights: np.ndarray, two_m: float, resolution: float, rng) -> np.ndarray:
    # One sweep phase of greedy moves.  Gains are compared in the scaled
    # form links - resolution * k_u * total_D / two_m (the true gain times
    # two_m / 2), which preserves the argmax.  A node moves only on a
    # strictly positive improvement over staying put, so modularity rises
    # with every move and the phase terminates.  From the second sweep on,
    # a screen clears the visits that cannot move a node (module notes).
    n = weights.shape[0]
    membership = np.arange(n)
    strength = weights.sum(axis=1)  # self-loop mass included
    comm_total = strength.copy()
    pull = resolution * strength
    links_of = weights.copy()  # a node's links to others leave its self-loop out
    np.fill_diagonal(links_of, 0.0)
    strengths = strength.tolist()
    for sweep in itertools.count():
        # The first sweep starts from singletons: nothing to screen.
        screen = _Screen(membership, links_of, strength, pull, two_m) if sweep else None
        cleared = screen.cleared(comm_total, 0).tolist() if sweep else [False] * n
        moved = False
        # Only node u's own visit moves it, so the snapshot is current at u.
        for u, cu in enumerate(membership.tolist()):
            s = strengths[u]
            if cleared[u]:
                # Replay the visit's round trip: later gains read its bits.
                comm_total[cu] = (comm_total.item(cu) - s) + s
                continue
            comm_total[cu] -= s
            # Summed in node order; zero weights add +0.0 and change nothing.
            links = np.bincount(membership, weights=links_of[u], minlength=n)
            gains = links - pull[u] * comm_total / two_m
            stay = float(gains[cu]) + 1e-12
            # Most visits move nothing; the max alone rejects them.
            top = gains.max()
            if top > stay:
                gains[links <= 0.0] = -np.inf  # only a linked community can gain
                top = gains.max()
            if top <= stay:
                comm_total[cu] += s
                continue
            # gains > stay is gains >= nextafter(stay); indices come sorted.
            floor = max(float(top) - 1e-12, math.nextafter(stay, math.inf))
            tied = (gains >= floor).nonzero()[0]
            target = int(tied[0]) if tied.size == 1 else int(rng.choice(tied))
            comm_total[target] += s
            membership[u] = target
            moved = True
            if screen is not None:
                screen.move(u, target)
                cleared[u + 1:] = screen.cleared(comm_total, u + 1).tolist()
        if not moved:
            return membership


class _Screen:
    """Approximate node-to-community links for one sweep (module notes).

    ``table[c, v]`` is node v's link weight to the c-th non-empty community,
    built by one product and kept by column updates on each move.  It only
    clears a visit whose exact outcome its margin bounds; it never picks a move.
    """

    def __init__(self, membership, links_of, strength, pull, two_m):
        self.ids, self.col = np.unique(membership, return_inverse=True)
        onehot = np.zeros((self.ids.size, membership.size))
        onehot[self.col, np.arange(membership.size)] = 1.0
        self.table = onehot @ links_of.T
        self.size = np.bincount(self.col)
        self.at = np.arange(membership.size)
        self.links_of, self.strength = links_of, strength
        self.rate = pull / two_m  # gain lost per unit of a community's total
        # The margin 12 (n + 2) (e (S + P T / two_m) + eta), split into the
        # part fixed per node and the part per unit of the largest total T.
        units = 12 * (membership.size + 2)
        self.margin_fixed = units * (_UNIT_ROUNDOFF * strength + _UNDERFLOW)
        self.margin_per_total = units * _UNIT_ROUNDOFF * self.rate

    def move(self, u, target):
        a, b = self.col[u], np.searchsorted(self.ids, target)
        self.table[a] -= self.links_of[:, u]  # every node's link to u
        self.table[b] += self.links_of[:, u]
        self.col[u] = b
        self.size[a] -= 1
        self.size[b] += 1
        if self.size[a] == 0:  # no visit can pick it: a target has members
            self.table[a] = -np.inf

    def cleared(self, comm_total, start):
        """Which of nodes start.. are bound to stay put at their visit."""
        own, rate = self.col[start:], self.rate[start:]
        at = self.at[:own.size]
        totals = comm_total[self.ids]
        gains = self.table[:, start:] - totals[:, None] * rate
        stay = gains[own, at] + self.strength[start:] * rate  # a visit leaves its own total
        gains[own, at] = -np.inf
        margin = self.margin_fixed[start:] + self.margin_per_total[start:] * totals.max()
        return stay - gains.max(axis=0) > margin


def louvain(
    c: DetrendedCorrelationMatrix, resolution: float = 1.0, seed: int = 0
) -> Partition:
    """Two-phase greedy modularity maximization on max(rho, 0) edge weights.

    Node sweeps run in label order; equal-gain moves are settled by the
    seeded generator, so a given seed always yields the same partition.
    When every coefficient is non-positive the graph has no edges and the
    trivial one-node-per-community partition is returned, flagged.  A
    resolution that is not finite and positive raises ConfigError.  Only
    the communities are returned; their modularity is not computed.
    """
    n = c.dim
    if n < 2:
        raise ShapeMismatchError("need at least 2 nodes")
    if not (0.0 < resolution < math.inf):
        raise ConfigError(f"resolution must be finite and positive, got {resolution}")
    weights = np.maximum(c.values, 0.0, dtype=np.float64)
    np.fill_diagonal(weights, 0.0)
    two_m = weights.sum()
    if two_m == 0.0:
        return Partition(
            communities={lab: i for i, lab in enumerate(c.labels)}, degenerate=True
        )
    rng = np.random.default_rng(seed)
    membership = np.arange(n)
    level_weights = weights
    while True:
        local = _local_phase(level_weights, two_m, resolution, rng)
        n_groups = np.unique(local).size
        no_moves = n_groups == level_weights.shape[0]
        level_weights, compact = _aggregate(level_weights, local)
        membership = compact[membership]
        if no_moves or level_weights.shape[0] == 1:
            break
    # Community ids 0..k-1 in order of first appearance.
    _, first, inverse = np.unique(membership, return_index=True, return_inverse=True)
    final = np.argsort(np.argsort(first))[inverse]
    return Partition(communities=dict(zip(c.labels, final.tolist())))


def cluster_track(
    partitions: list[Partition], anchor: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """Co-membership raster: entry (w, j) is True when node j shares the
    anchor's community in window w."""
    if not partitions:
        raise ShapeMismatchError("no partitions given")
    labels = tuple(sorted(partitions[0].communities))
    for p in partitions:
        if tuple(sorted(p.communities)) != labels:
            raise ShapeMismatchError("partitions disagree on the node set")
    if anchor not in partitions[0].communities:
        raise ShapeMismatchError(f"unknown anchor label {anchor!r}")
    raster = np.zeros((len(partitions), len(labels)), dtype=bool)
    for w, p in enumerate(partitions):
        raster[w] = np.array([p.communities[lab] for lab in labels]) == p.communities[anchor]
    return labels, raster
