"""Exact k-th-neighbor radii in joint space plus marginal neighbor counts.

Distances are Chebyshev (max-norm) in both the joint and the marginal
spaces, so a point inside the joint ball is inside both marginal balls.
Marginal counts use strict inequality (< epsilon) and exclude the query
point, the KSG "algorithm 1" convention. Consequences worth remembering:

* the k-th joint neighbor sits at marginal distance exactly epsilon on at
  least one side and is therefore NOT counted there, so n_x, n_y >= k - 1
  (not k);
* duplicate joint points make epsilon = 0 and are a hard error — silent
  jitter would perturb the estimate invisibly;
* coordinate differences that overflow float64 become inf, which still
  compares correctly against a finite epsilon; an epsilon that itself
  overflows is a hard error.

The scan is exact brute force over all pairs: samples are transposed to
feature-major layout once, then each feature's |a_i - a_j| plane is folded
into a running max, blocked over query rows (reducing over a short last
axis would hit numpy's slow strided path). A block's four float planes and
one bool plane are sized to stay in a core's L2 cache: every ufunc pass
re-reads them, and planes that spill to memory made the scan two to three
times slower on a 2-vCPU Xeon with 4 MiB of L2 per core. Query blocks are
shared out to one thread per CPU in the process's affinity mask (numpy
releases the GIL inside each pass); each thread owns its scratch planes
and writes disjoint rows of the result. Every reduction (max, partition,
integer count) is order-independent, so results are bit-identical for any
block size and thread count.
"""

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigurationError, DuplicatePointError, RadiusOverflowError

# doubles per scratch plane (512 KiB): one thread's four float planes and
# one bool plane fit in 4 MiB of L2. Fastest of 2**15..2**18 measured at
# (N, d) = (10000, 1), (10000, 8), (1000, 512); output is the same for any value
_SCRATCH_ELEMS = 2**16


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RadiusSet:
    """Per-point k-th-neighbor distances and marginal ball counts.

    epsilon[i] is the joint-space max-norm distance from sample i to its
    k-th nearest neighbor (self excluded); n_x[i] and n_y[i] count samples
    j != i whose marginal distance is strictly below epsilon[i].
    """

    epsilon: np.ndarray
    n_x: np.ndarray
    n_y: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.epsilon.shape[0]


def compute_knn_radii(data: Dataset, k: int) -> RadiusSet:
    """Joint k-th-neighbor radius and marginal counts for every sample.

    Parameters
    ----------
    data : Dataset
        Paired samples; requires n >= k + 1.
    k : int
        Number of joint-space neighbors (1 <= k < n).

    Raises
    ------
    ConfigurationError
        If k is out of range for the sample count.
    DuplicatePointError
        If a sample coincides with k or more others in joint space
        (epsilon would be 0).
    RadiusOverflowError
        If a sample's max-norm distance to its k-th neighbor overflows.

    Either error names the first failing sample in row order.
    """
    n = data.n
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    if k >= n:
        raise ConfigurationError(
            f"k = {k} requires at least k + 1 = {k + 1} samples, got {n}"
        )

    epsilon = np.empty(n, dtype=np.float64)
    n_x = np.empty(n, dtype=np.int64)
    n_y = np.empty(n, dtype=np.int64)

    x_features = np.ascontiguousarray(data.x.T)
    y_features = np.ascontiguousarray(data.y.T)

    block = max(8, min(n, _SCRATCH_ELEMS // n))
    starts = deque(range(0, n, block))
    workers = min(_cpu_count(), len(starts))

    # numpy's error state is per thread, so it is set in the worker; an inf
    # difference is not an error (see the check after the scan)
    @np.errstate(over="ignore")
    def scan_blocks() -> None:
        """Pop query blocks in row order until none is left; scratch is per call."""
        dist_x = np.empty((block, n))
        dist_y = np.empty((block, n))
        dist_joint = np.empty((block, n))
        plane = np.empty((block, n))
        inside = np.empty((block, n), dtype=bool)

        def marginal_distances(features: np.ndarray, dist: np.ndarray, start: int, stop: int):
            """Fill dist[i - start, j] = ||a[i] - a[j]||_inf from feature-major rows."""
            if not len(features):
                dist.fill(0.0)
                return
            np.subtract(features[0, start:stop, None], features[0, None, :], out=dist)
            np.abs(dist, out=dist)
            p = plane[: stop - start]
            for col in features[1:]:
                np.subtract(col[start:stop, None], col[None, :], out=p)
                np.abs(p, out=p)
                np.maximum(dist, p, out=dist)

        while True:
            try:
                start = starts.popleft()
            except IndexError:
                return
            stop = min(start + block, n)
            b = stop - start
            dx = dist_x[:b]
            dy = dist_y[:b]
            dj = dist_joint[:b]

            marginal_distances(x_features, dx, start, stop)
            marginal_distances(y_features, dy, start, stop)
            np.maximum(dx, dy, out=dj)

            dj[np.arange(b), np.arange(start, stop)] = np.inf  # exclude self
            dj.partition(k - 1, axis=1)
            eps_block = dj[:, k - 1]

            # self sits at marginal distance 0 < eps and must not be counted
            np.less(dx, eps_block[:, None], out=inside[:b])
            n_x[start:stop] = np.count_nonzero(inside[:b], axis=1) - 1
            np.less(dy, eps_block[:, None], out=inside[:b])
            n_y[start:stop] = np.count_nonzero(inside[:b], axis=1) - 1
            epsilon[start:stop] = eps_block

            if eps_block.min() == 0.0 or eps_block.max() == np.inf:
                # every earlier block is already taken and will finish, so the
                # check below still sees the first failing row; skip the rest
                starts.clear()

    if workers == 1:
        scan_blocks()
    else:
        # imported on first use: it pulls in logging, about 10 ms that every
        # import of the package (and every single-block scan) would pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(scan_blocks) for _ in range(workers)]:
                future.result()

    bad = np.flatnonzero((epsilon == 0.0) | (epsilon == np.inf))
    if bad.size:
        i = int(bad[0])
        raise (DuplicatePointError if epsilon[i] == 0.0 else RadiusOverflowError)(i)

    return RadiusSet(epsilon=epsilon, n_x=n_x, n_y=n_y, k=int(k))
