"""Tests for the from-scratch k-means."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError
from repro.alignment.kmeans import (
    _pairwise_sq_dists,
    _row_sq_dists,
    _sq_norms,
    assign_to_centers,
    kmeans,
    kmeans_plusplus_init,
)
from repro.utils.rng import as_rng

# ``repro.alignment.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.alignment.kmeans")


def blobs(seed: int = 0, per: int = 20):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(center, 0.15, (per, 2)) for center in ((0, 0), (3, 0), (0, 3))]
    )


class TestKMeans:
    def test_recovers_blobs(self):
        points = blobs()
        result = kmeans(points, 3, seed=0)
        # Each blob should land in its own cluster.
        assignments = result.assignments
        groups = [set(assignments[i * 20 : (i + 1) * 20]) for i in range(3)]
        assert all(len(g) == 1 for g in groups)
        assert len(set.union(*groups)) == 3

    def test_deterministic(self):
        points = blobs(1)
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(a.centers, b.centers)

    def test_inertia_decreases_with_more_clusters(self):
        points = blobs(2)
        loose = kmeans(points, 2, seed=0).inertia
        tight = kmeans(points, 6, seed=0).inertia
        assert tight < loose

    def test_clamps_clusters_to_points(self):
        points = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(points, 10, seed=0)
        assert result.centers.shape[0] == 2

    def test_empty_cluster_reseeding(self):
        # Duplicated points force potential empty clusters.
        points = np.vstack([np.zeros((5, 2)), np.ones((5, 2)), np.full((5, 2), 9.0)])
        result = kmeans(points, 3, seed=0)
        assert len(set(result.assignments.tolist())) == 3

    def test_single_point(self):
        result = kmeans(np.asarray([[2.0, 2.0]]), 1, seed=0)
        assert np.allclose(result.centers, [[2.0, 2.0]])
        assert result.inertia == pytest.approx(0.0)

    def test_warm_start_respected(self):
        points = blobs(3)
        warm = np.asarray([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        result = kmeans(points, 3, seed=0, init_centers=warm)
        assert result.converged
        # Warm start at the true centers converges immediately-ish.
        assert result.n_iterations <= 5

    def test_warm_start_wrong_dim_rejected(self):
        with pytest.raises(AlignmentError):
            kmeans(blobs(), 3, init_centers=np.zeros((3, 5)))

    def test_rejects_empty(self):
        with pytest.raises(AlignmentError):
            kmeans(np.zeros((0, 2)), 2)

    def test_rejects_nan(self):
        with pytest.raises(AlignmentError):
            kmeans(np.asarray([[np.nan, 0.0]]), 1)

    def test_result_repr(self):
        result = kmeans(blobs(), 3, seed=0)
        assert "KMeansResult" in repr(result)


class TestInit:
    def test_plusplus_centers_are_points(self):
        points = blobs(4)
        rng = np.random.default_rng(0)
        centers = kmeans_plusplus_init(points, 3, rng)
        for c in centers:
            assert any(np.allclose(c, p) for p in points)

    def test_plusplus_spreads_centers(self):
        points = blobs(5)
        rng = np.random.default_rng(1)
        centers = kmeans_plusplus_init(points, 3, rng)
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(dists) > 1.0  # one per blob

    def test_identical_points(self):
        points = np.zeros((5, 2))
        rng = np.random.default_rng(2)
        centers = kmeans_plusplus_init(points, 3, rng)
        assert centers.shape == (3, 2)


class TestAssign:
    def test_nearest(self):
        centers = np.asarray([[0.0, 0.0], [10.0, 0.0]])
        points = np.asarray([[1.0, 0.0], [9.0, 0.0]])
        assert assign_to_centers(points, centers).tolist() == [0, 1]

    def test_rejects_dim_mismatch(self):
        with pytest.raises(AlignmentError):
            assign_to_centers(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_no_centers(self):
        with pytest.raises(AlignmentError):
            assign_to_centers(np.zeros((2, 2)), np.zeros((0, 2)))


@settings(max_examples=20, deadline=None)
@given(
    n_points=st.integers(3, 40),
    n_clusters=st.integers(1, 6),
    seed=st.integers(0, 100),
)
def test_kmeans_invariants(n_points, n_clusters, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 3))
    result = kmeans(points, n_clusters, seed=seed)
    k = min(n_clusters, n_points)
    assert result.centers.shape == (k, 3)
    assert result.assignments.shape == (n_points,)
    assert result.assignments.min() >= 0
    assert result.assignments.max() < k
    assert result.inertia >= 0.0
    # Every cluster is non-empty (reseeding guarantees it).
    assert len(set(result.assignments.tolist())) == k


def reference_lloyd(points, n_clusters, *, seed, init_centers=None, max_iter=100, tol=1e-7):
    """Lloyd's loop in its plain form: the full clipped distance expansion
    every iteration and one boolean mask per cluster. Returns ``(centers,
    assignments, inertia, n_iterations, reseeds)``, where ``reseeds`` lists
    the iteration of every empty-cluster re-seed; ``kmeans`` must match it
    bit for bit."""

    def sq_dists(p, c):
        p_sq = np.sum(p**2, axis=1)[:, None]
        c_sq = np.sum(c**2, axis=1)[None, :]
        return np.clip(p_sq + c_sq - 2.0 * (p @ c.T), 0.0, None)

    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
    k = min(n_clusters, n)
    rng = as_rng(seed)
    if init_centers is None:
        centers = kmeans_plusplus_init(arr, k, rng)
    elif init_centers.shape[0] >= k:
        centers = np.array(init_centers[:k], dtype=float)
    else:
        fill = kmeans_plusplus_init(arr, k - init_centers.shape[0], rng)
        centers = np.vstack([init_centers, fill])
    assignments = np.full(n, -1)
    reseeds = []
    for iteration in range(1, max_iter + 1):
        distances = sq_dists(arr, centers)
        new_assignments = np.argmin(distances, axis=1)
        empties = np.flatnonzero(np.bincount(new_assignments, minlength=k) == 0)
        if empties.size:
            order = np.argsort(-distances[np.arange(n), new_assignments])
            for slot, empty in enumerate(empties[:n]):
                new_assignments[order[slot]] = empty
                centers[empty] = arr[order[slot]]
                reseeds.append(iteration)
        new_centers = centers.copy()
        for c in range(k):
            members = new_assignments == c
            if members.any():
                new_centers[c] = arr[members].mean(axis=0)
        moved = float(np.max(np.abs(new_centers - centers)))
        stable = np.array_equal(new_assignments, assignments)
        centers, assignments = new_centers, new_assignments
        if stable or moved <= tol:
            break
    inertia = float(sq_dists(arr, centers)[np.arange(n), assignments].sum())
    return centers, assignments, inertia, iteration, reseeds


def lloyd_case(n, k, d, *, seed, decimals=None, warm=None):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    if decimals is not None:
        points = np.round(points, decimals)
    init = None if warm is None else warm * rng.normal(size=(k, d))
    return points, init


class TestLloydBitwise:
    """The grouped Lloyd update reproduces the mask-per-cluster loop exactly."""

    def assert_matches_reference(self, points, k, seed, init=None):
        result = kmeans(points, k, seed=seed, init_centers=init)
        centers, assignments, inertia, iterations, reseeds = reference_lloyd(
            points, k, seed=seed, init_centers=init
        )
        assert np.array_equal(result.centers, centers)
        assert np.array_equal(result.assignments, assignments)
        assert result.inertia == inertia
        assert result.n_iterations == iterations
        return reseeds

    @pytest.mark.parametrize(
        "n, k, d, decimals, warm",
        [
            (300, 8, 1, None, None),  # d = 1
            (400, 16, 3, None, None),  # d >= 2
            (300, 12, 2, 1, None),  # duplicate rows
            (200, 6, 1, 1, None),  # duplicates in one dimension
            (250, 10, 4, None, 1.0),  # full warm start
        ],
    )
    def test_matches_reference(self, n, k, d, decimals, warm):
        points, init = lloyd_case(n, k, d, seed=n + k, decimals=decimals, warm=warm)
        self.assert_matches_reference(points, k, seed=7, init=init)

    def test_partial_warm_start(self):
        points, init = lloyd_case(150, 9, 2, seed=3, warm=1.0)
        self.assert_matches_reference(points, 9, seed=11, init=init[:4])

    def test_empty_cluster_reseed(self):
        # Warm centers far from every point leave clusters empty in the
        # first iteration, so the reseed step runs.
        points, _ = lloyd_case(120, 6, 2, seed=5, decimals=1)
        init = np.vstack([points[:3], np.full((3, 2), 50.0) + np.arange(3)[:, None]])
        assert self.assert_matches_reference(points, 6, seed=0, init=init)

    def test_empty_cluster_mid_run(self):
        # No cluster is empty in iteration 1; in iteration 2 both members
        # of cluster 1 move to clusters 0 and 3, so the re-seed (and the
        # full-matrix path) runs between pruned iterations.
        points = np.asarray(
            [[1, -2], [0, -1], [-1, 3], [0, 1], [-2, -2], [2, 1], [1, 2], [1, 0],
             [-3, -1]],
            dtype=float,
        )
        init = np.asarray(
            [[-0.64, 0.32], [-1.48, -1.31], [-0.03, 0.61], [-2.06, -2.36], [-0.8, 3.1]]
        )
        assert self.assert_matches_reference(points, 5, seed=0, init=init) == [2]

    def test_prunes_rows_on_a_large_input(self, monkeypatch):
        # Every distance row goes through _expansion_sq_dists; the plain
        # loop computes n rows per iteration, the pruned one far fewer.
        computed = []
        expansion = kmeans_module._expansion_sq_dists

        def counting(points, *args):
            computed.append(points.shape[0])
            return expansion(points, *args)

        rng = np.random.default_rng(2)
        n = 2400
        points = rng.normal(scale=2.0, size=(8, 3))[rng.integers(0, 8, n)]
        points += rng.normal(size=(n, 3))
        init = rng.normal(size=(12, 3))  # no k-means++ rows in the count
        monkeypatch.setattr(kmeans_module, "_expansion_sq_dists", counting)
        result = kmeans(points, 12, seed=2, init_centers=init)
        monkeypatch.undo()
        self.assert_matches_reference(points, 12, seed=2, init=init)
        assert result.n_iterations >= 20
        assert any(0 < rows < n for rows in computed)
        assert sum(computed) < 0.5 * n * result.n_iterations

    @pytest.mark.parametrize(
        "make_points, k",
        [
            # heavy cancellation: ‖x‖² dwarfs the distances it yields
            (lambda rng: 1e3 + rng.normal(size=(400, 3)), 6),
            # ... down to rounding noise: the error bound alone keeps it exact
            (lambda rng: 1e8 + rng.normal(size=(400, 2)), 5),
            # exact duplicates
            (lambda rng: np.repeat(rng.normal(size=(40, 2)), 10, axis=0), 8),
            # 1e-9-quantised rows, as the HAQJSK aligner pools them
            (lambda rng: np.round(3.0 * rng.random((1500, 4)), 9), 16),
        ],
        ids=["offset-1e3", "offset-1e8", "duplicates", "quantised"],
    )
    def test_adversarial_inputs(self, make_points, k):
        points = make_points(np.random.default_rng(k))
        self.assert_matches_reference(points, k, seed=k)

    def test_equidistant_points_go_to_the_lowest_index(self):
        # An integer grid around four symmetric warm centers: many points
        # tie between two or four centers, in float exactly.
        grid = np.arange(-3.0, 4.0)
        points = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        init = np.asarray([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        first = _pairwise_sq_dists(points, init)
        ties = np.sum(first == first.min(axis=1, keepdims=True), axis=1)
        assert np.count_nonzero(ties > 1) >= 10
        result = kmeans(points, 4, seed=0, init_centers=init, max_iter=1)
        lowest = [np.flatnonzero(row == row.min())[0] for row in first]
        assert np.array_equal(result.assignments, lowest)
        self.assert_matches_reference(points, 4, seed=0, init=init)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 60),
        k=st.integers(1, 12),
        d=st.integers(1, 3),
        decimals=st.sampled_from([None, 1]),
        warm=st.sampled_from([None, 0.5, 3.0]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_reference_generated(self, n, k, d, decimals, warm, seed):
        k = min(k, n)
        points, init = lloyd_case(n, k, d, seed=seed, decimals=decimals, warm=warm)
        self.assert_matches_reference(points, k, seed=seed, init=init)

    def test_pairwise_sq_dists_matches_clipped_expansion(self):
        rng = np.random.default_rng(0)
        points = np.round(rng.normal(size=(500, 5)), 1)
        centers = np.vstack([points[:10], rng.normal(size=(6, 5))])
        expected = np.clip(
            np.sum(points**2, axis=1)[:, None]
            + np.sum(centers**2, axis=1)[None, :]
            - 2.0 * (points @ centers.T),
            0.0,
            None,
        )
        assert np.array_equal(_pairwise_sq_dists(points, centers), expected)


class TestRowBlockDistances:
    """``kmeans`` recomputes subsets of rows and relies on them having the
    bits of the same rows of the full matrix. A BLAS whose per-row results
    depend on the row count fails here instead of silently moving Grams."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rows_match_full_matrix(self, d):
        rng = np.random.default_rng(d)
        n = 1031
        # A column slice of a wider matrix, as the aligner pools dimension k.
        points = np.round(rng.normal(size=(n, d + 3)), 9)[:, :d]
        p_sq = _sq_norms(points)
        for k in (2, 3, 5, 8, 17, 32, 64):
            centers = rng.normal(size=(k, d))
            c_sq = _sq_norms(centers)
            full = _pairwise_sq_dists(points, centers)
            for size in (1, 2, 3, 517, n):
                rows = np.sort(rng.choice(n, size, replace=False))
                block = _row_sq_dists(points, p_sq, centers, c_sq, rows)
                assert np.array_equal(block, full[rows]), (k, size)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: the empty-cluster reseed can take the only point of "
        "another cluster, so kmeans may converge with an empty cluster"
    ),
)
def test_converged_clusters_are_non_empty():
    rng = np.random.default_rng(218)
    n = rng.integers(2, 12)
    k = rng.integers(2, n + 1)
    d = rng.integers(1, 3)
    points = rng.normal(size=(n, d))
    warm = 3 * rng.normal(size=(k, d)) if rng.random() < 0.7 else None
    result = kmeans(points, k, seed=218, init_centers=warm)
    assert result.converged
    assert np.all(np.bincount(result.assignments, minlength=k) > 0)
