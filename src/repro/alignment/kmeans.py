"""From-scratch k-means clustering (Lloyd's algorithm + k-means++ seeding).

scikit-learn is not available in the reproduction environment, so the
κ-means step of paper Eq. (13) is implemented here. The implementation is
deterministic for a fixed seed and supports warm starts (used to keep
prototype indexings consistent across DB-representation dimensions; see
:mod:`repro.alignment.prototypes`). Empty clusters are re-seeded on the
points farthest from their centers; a re-seed can take the only point of
another cluster, so a result may still hold an empty cluster (known
defect).

The Lloyd assignment step is bound-pruned (Hamerly, "Making k-means even
faster", SDM 2010) yet returns exactly the bits of the plain loop that
argmins the full distance matrix every iteration: a row is skipped only
when its bounds prove that the float argmin cannot change (DESIGN.md,
"Exact pruned Lloyd").
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError, ValidationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centers:
        ``(n_clusters, dim)`` array of cluster means (paper's prototypes).
    assignments:
        Per-point cluster index.
    inertia:
        Sum of squared distances to assigned centers (Eq. 13 objective).
    n_iterations:
        Lloyd iterations actually performed.
    converged:
        True if assignments stabilised before the iteration cap.
    """

    __slots__ = ("centers", "assignments", "inertia", "n_iterations", "converged")

    def __init__(self, centers, assignments, inertia, n_iterations, converged):
        self.centers = centers
        self.assignments = assignments
        self.inertia = inertia
        self.n_iterations = n_iterations
        self.converged = converged

    def __repr__(self) -> str:
        return (
            f"KMeansResult(k={self.centers.shape[0]}, inertia={self.inertia:.4g}, "
            f"iters={self.n_iterations}, converged={self.converged})"
        )


#: Relative margin that rounds a few float operations on a bound outward.
_SLACK = 8.0 * np.finfo(float).eps


def _sq_norms(values: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return np.sum(values**2, axis=1)


def _expansion_sq_dists(
    points: np.ndarray, p_sq: np.ndarray, centers: np.ndarray, c_sq: np.ndarray
) -> np.ndarray:
    """Clipped ``‖x‖² + ‖c‖² − 2x·c`` from precomputed squared norms."""
    cross = points @ centers.T
    out = p_sq[:, None] + c_sq[None, :]
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, computed stably via the expansion trick."""
    return _expansion_sq_dists(points, _sq_norms(points), centers, _sq_norms(centers))


def _row_sq_dists(
    points: np.ndarray,
    p_sq: np.ndarray,
    centers: np.ndarray,
    c_sq: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Rows ``rows`` of ``_pairwise_sq_dists(points, centers)``, bit for bit.

    BLAS computes a one-row product with gemv, whose bits can differ from
    the same row of the full gemm, so a single row is padded to a two-row
    block and the duplicate dropped. Equality also needs at least two
    centers (one center is a gemv for every row count); ``kmeans`` never
    recomputes a subset of rows for one center.
    """
    block = np.repeat(rows, 2) if rows.size == 1 else rows
    return _expansion_sq_dists(
        np.take(points, block, axis=0), p_sq[block], centers, c_sq
    )[: rows.size]


def _cluster_means(values: np.ndarray, assignments: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each non-empty cluster's mean of ``values`` rows into ``out``.

    A stable sort groups the rows once, so each mean reduces the same rows
    in the same order and layout as ``values[assignments == c].mean(axis=0)``
    (bitwise equal) without a boolean scan per cluster.
    """
    k = out.shape[0]
    counts = np.bincount(assignments, minlength=k)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    # A stable sort is one permutation whatever the key dtype; numpy radix
    # sorts 16-bit keys, ~10x faster than timsort on int64 at 23k points.
    keys = assignments.astype(np.int16) if k < 2**15 else assignments
    grouped = np.take(values, np.argsort(keys, kind="stable"), axis=0)
    for c in np.flatnonzero(counts):
        out[c] = grouped[bounds[c] : bounds[c + 1]].mean(axis=0)
    return out


def kmeans_plusplus_init(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: iteratively sample centers ∝ squared distance."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    closest_sq = _pairwise_sq_dists(points, centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0:
            # All points coincide with chosen centers; fill uniformly.
            centers[i] = points[int(rng.integers(0, n))]
            continue
        probs = closest_sq / total
        chosen = int(rng.choice(n, p=probs))
        centers[i] = points[chosen]
        new_sq = _pairwise_sq_dists(points, centers[i : i + 1]).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed=None,
    init_centers: "np.ndarray | None" = None,
) -> KMeansResult:
    """Cluster ``points`` into ``n_clusters`` groups (Lloyd's algorithm).

    Parameters
    ----------
    points:
        ``(n, dim)`` array; ``n`` must be at least 1.
    n_clusters:
        Number of clusters; silently clamped to ``n`` when larger (the
        paper's hierarchy bottoms out when prototypes outnumber points).
    init_centers:
        Optional warm-start centers (``(n_clusters, dim)``). Missing rows
        are filled by k-means++.

    The result can contain an empty cluster: re-seeding an empty one may
    take the only point of another (known defect).
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise AlignmentError("kmeans needs at least one point")
    if not np.all(np.isfinite(arr)):
        raise AlignmentError("points contain non-finite values")
    n_clusters = check_positive_int(n_clusters, "n_clusters", minimum=1)
    n_clusters = min(n_clusters, n)
    max_iter = check_positive_int(max_iter, "max_iter", minimum=1)
    rng = as_rng(seed)

    if init_centers is not None:
        warm = np.asarray(init_centers, dtype=float)
        if warm.ndim != 2 or warm.shape[1] != arr.shape[1]:
            raise AlignmentError(
                f"init_centers must be (*, {arr.shape[1]}), got {warm.shape}"
            )
        if warm.shape[0] >= n_clusters:
            centers = warm[:n_clusters].copy()
        else:
            centers = np.vstack(
                [warm, kmeans_plusplus_init(arr, n_clusters - warm.shape[0], rng)]
            )
    else:
        centers = kmeans_plusplus_init(arr, n_clusters, rng)

    # Per point: ``upper`` bounds the distance to its assigned center from
    # above, ``lower`` the distance to every other center from below; inf
    # and 0 force a row to be computed. A row is skipped only when the
    # bounds prove its float argmin (DESIGN.md, "Exact pruned Lloyd").
    gamma = (2 * arr.shape[1] + 16) * np.finfo(float).eps
    p_sq = _sq_norms(arr)
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    assignments = np.full(n, -1, dtype=int)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        c_sq = _sq_norms(centers)
        # Bound on the rounding error of every expansion in this iteration.
        err = gamma * (p_sq + c_sq.max())
        reach = (upper * upper + 2.0 * err) * (1.0 + _SLACK)
        rows = np.flatnonzero(reach >= lower * lower * (1.0 - _SLACK))
        if rows.size == n:
            distances = _expansion_sq_dists(arr, p_sq, centers, c_sq)
        else:
            distances = _row_sq_dists(arr, p_sq, centers, c_sq, rows)
        nearest = np.argmin(distances, axis=1)
        new_assignments = assignments.copy()
        new_assignments[rows] = nearest
        block = np.arange(rows.size)
        closest = distances[block, nearest]
        distances[block, nearest] = np.inf
        runner_up = distances.min(axis=1)  # inf when there is one center
        upper[rows] = np.sqrt(closest + err[rows]) * (1.0 + _SLACK)
        lower[rows] = np.sqrt(np.maximum(runner_up - err[rows], 0.0)) * (1.0 - _SLACK)

        # Re-seed empty clusters on the points farthest from their centers
        # (a victim may be the only member of its cluster; see docstring).
        # The order needs every point's closest distance: the full matrix.
        counts = np.bincount(new_assignments, minlength=n_clusters)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            distances = _expansion_sq_dists(arr, p_sq, centers, c_sq)
            closest = distances[np.arange(n), new_assignments]
            order = np.argsort(-closest)
            for slot, empty in enumerate(empties):
                if slot >= n:
                    break
                victim = int(order[slot])
                new_assignments[victim] = empty
                centers[empty] = arr[victim]
            # Centers jumped and victims left their nearest center.
            upper.fill(np.inf)

        new_centers = _cluster_means(arr, new_assignments, centers.copy())
        moved = float(np.max(np.abs(new_centers - centers))) if centers.size else 0.0

        stable = np.array_equal(new_assignments, assignments)
        shifts = np.sqrt(_sq_norms(new_centers - centers)) * (1.0 + gamma)
        centers = new_centers
        assignments = new_assignments
        if stable or moved <= tol:
            converged = True
            break
        # Triangle inequality: the assigned center moved at most its shift
        # away, every other center at most the largest other shift closer.
        upper += shifts[assignments]
        upper *= 1.0 + _SLACK
        if n_clusters > 1:
            top = int(np.argmax(shifts))
            runner = np.max(np.delete(shifts, top))
            lower -= np.where(assignments == top, runner, shifts[top])
            np.maximum(lower, 0.0, out=lower)
            lower *= 1.0 - _SLACK

    final_dists = _expansion_sq_dists(arr, p_sq, centers, _sq_norms(centers))
    inertia = float(final_dists[np.arange(n), assignments].sum())
    return KMeansResult(centers, assignments, inertia, iteration, converged)


def assign_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center index for each point (ties go to the lowest index)."""
    arr = np.asarray(points, dtype=float)
    cen = np.asarray(centers, dtype=float)
    if arr.ndim != 2 or cen.ndim != 2 or arr.shape[1] != cen.shape[1]:
        raise AlignmentError(
            f"dimension mismatch: points {arr.shape} vs centers {cen.shape}"
        )
    if cen.shape[0] == 0:
        raise AlignmentError("no centers to assign to")
    return np.argmin(_pairwise_sq_dists(arr, cen), axis=1)
