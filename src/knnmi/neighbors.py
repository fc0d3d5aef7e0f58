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

Three exact scans give bit-identical radii and counts, and the shape picks
one: the sorted window at d_x = d_y = 1 (D = 2), the pair-once scan at any
other D while n * n <= _SCRATCH_ELEMS (n <= 256), and brute force above
that. The sorted window and brute force share their work out in chunks to
one thread per CPU in the process's affinity mask (numpy releases the GIL
inside each array operation); the calling thread is one of them, so a
single chunk starts no thread. Threads pop chunks in order from one queue,
own their scratch and write disjoint rows of the result. Every reduction
(max, partition, integer count) is order-independent, so results are
bit-identical for any chunk size and thread count.

At d_x = d_y = 1 (D = 2) the rows are sorted once by the coordinate with
more distinct values, called x here (x itself on a tie; a run of tied keys
holds windows open), and each row's epsilon is the k-th smallest of
max(|x_p - x_q|, |y_p - y_q|) over a window of x-sorted neighbours, with
the same float operations as brute force. A row is accepted once the
nearest row outside its window on each side has |x_p - x_q| >= epsilon:
fl(x_q - x_p) is monotone in sorted order, so every row outside is at least
that far in the joint max-norm and the k-th smallest is exact. Rows that
fail are retried with a window _WINDOW_GROWTH times wider, and a window of
all N rows always passes; each pass shares its rows out in chunks. The
counts come from x-sorted and y-sorted order with the subtraction predicate
|v_q - v_p| < epsilon, whose hits are a contiguous run around p. The
addition form v_q < v_p + epsilon rounds differently and miscounts on
decimal data, so it only seeds the search for each edge of the run. This
is the simplest form of the box-assisted search of Kraskov, Stoegbauer and
Grassberger (PRE 69, 066138, 2004). On Gaussian data at N = 10000 a row's
k-th neighbour lies among a few hundred x-sorted rows, not N.

Brute force scans all ordered pairs: samples are transposed to
feature-major layout once, then each feature's |a_i - a_j| plane is folded
into a running max, blocked over query rows (reducing over a short last
axis would hit numpy's slow strided path). A block's four float planes and
one bool plane are sized to stay in a core's L2 cache: every ufunc pass
re-reads them, and planes that spill to memory made the scan two to three
times slower on a 2-vCPU Xeon with 4 MiB of L2 per core.

The pair-once scan computes each unordered pair once, in circular order:
for offsets t = 1..n // 2, row t - 1 of a marginal's plane holds
max_f |a_f[i] - a_f[(i + t) % n]| for every sample i, read from one sliding
window over the wrapped features. Sample i's distances at the other
n - 1 - n // 2 offsets are the distances at offset n - t of sample
(i + t) % n; fl(a - b) = -fl(b - a), so they are the same numbers brute
force computes from the other end, and they are copied in through a skewed
view of the same rows. Column i of the (n - 1, n) plane then holds sample
i's distance to every other sample, self excluded; the joint plane is the
max of the marginal planes and is partitioned down its columns, and the
marginal counts are sums down the columns. Each feature costs one
subtract, abs and max over n // 2 rows where brute force needs n, so at
N = 200, k = 5 the scan takes 0.6 of brute force's time at
d_x = d_y = 64 and 0.9 at d_x = d_y = 2, where the partition and the
compares it shares with brute force dominate. It starts no thread.
"""

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .errors import ConfigurationError, DuplicatePointError, RadiusOverflowError

# doubles per scratch plane (512 KiB). Brute force: per thread, so one
# thread's four float planes and one bool plane fit in 4 MiB of L2; fastest
# of 2**15..2**18 measured at (N, d) = (10000, 1), (10000, 8), (1000, 512).
# Sorted window: per scan, split evenly over the threads, so that threading
# holds no more memory than one thread did. Pair once: taken at D != 2 when
# a whole (n, n) plane fits (n <= 256), so that its (n - 1, n) planes are no
# larger than brute force's one block. Output is the same for any value
_SCRATCH_ELEMS = 2**16

# sorted-window scan: the first window spans _FIRST_WINDOW * sqrt(k N) rows
# (Gaussian data need about sqrt(k N) at the median) and grows by
# _WINDOW_GROWTH per pass. Fastest of 1..3 and 2..4 measured at N = 200 and
# 10000; output is the same for any values
_FIRST_WINDOW = 1.5
_WINDOW_GROWTH = 4


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
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    if k >= n:
        raise ConfigurationError(
            f"k = {k} requires at least k + 1 = {k + 1} samples, got {n}"
        )

    if data.d_x == data.d_y == 1:
        scan = _sorted_window_scan
    elif n * n <= _SCRATCH_ELEMS:
        scan = _pair_once_scan
    else:
        scan = _brute_force_scan
    epsilon, n_x, n_y = scan(data.x, data.y, int(k))

    bad = np.flatnonzero((epsilon == 0.0) | (epsilon == np.inf))
    if bad.size:
        i = int(bad[0])
        raise (DuplicatePointError if epsilon[i] == 0.0 else RadiusOverflowError)(i)

    return RadiusSet(epsilon=epsilon, n_x=n_x, n_y=n_y, k=int(k))


@np.errstate(over="ignore")
def _sorted_window_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) at d_x = d_y = 1 from windows of sorted neighbours."""
    n = x.shape[0]
    # sort by the coordinate with more distinct values, x on a tie, since a
    # run of tied keys keeps windows from being accepted; swapping x and y
    # changes no float operation, and n_x, n_y are swapped back at the end
    order = np.argsort(x[:, 0], kind="stable")
    sorted_x, sorted_y = x[order, 0], np.sort(y[:, 0])
    swap = np.count_nonzero(np.diff(sorted_y)) > np.count_nonzero(np.diff(sorted_x))
    if swap:
        x, y, sorted_y = y, x, sorted_x
        order = np.argsort(x[:, 0], kind="stable")
    planes = np.stack([x[order, 0], y[order, 0]])  # x-sorted x and y
    xs, ys = planes
    padded = np.concatenate([[-np.inf], xs, [np.inf]])  # padded[j] is xs[j - 1]
    eps = np.empty(n)
    todo = np.arange(n)
    width = min(n, max(int(_FIRST_WINDOW * math.sqrt(k * n)), k + 1))
    while todo.size:
        windows = sliding_window_view(planes, width, axis=1)
        lo = np.minimum(np.maximum(todo - width // 2, 0), n - width)  # window starts
        # a row's epsilon is exact once the nearest rows outside its window are
        # at least that far in x, hence in the joint max-norm (inf at an end)
        query = xs[todo]
        gap = np.minimum(np.abs(query - padded[lo]), np.abs(query - padded[lo + width + 1]))
        rows = max(1, _SCRATCH_ELEMS // (width * _cpu_count()))
        starts = range(0, todo.size, rows)
        # one slot per chunk, joined in chunk order: the next pass is the same
        # for any thread count
        unresolved = [None] * len(starts)

        def scan_chunks(chunks: deque) -> None:
            """Pop chunks of todo until none is left; scratch is per call."""
            scratch = np.empty((2, min(rows, todo.size), width))
            while True:
                try:
                    c = chunks.popleft()
                except IndexError:
                    return
                s = slice(starts[c], starts[c] + rows)
                p, first = todo[s], lo[s]
                if first[-1] - first[0] == p[-1] - p[0] == p.size - 1:
                    # consecutive rows (todo is ascending): their windows are
                    # one strided view, read with no copy
                    near, dist = windows[:, first[0] : first[-1] + 1], scratch[:, : p.size]
                else:
                    near = dist = windows[:, first]  # a copy, overwritten below
                np.subtract(planes[:, p, None], near, out=dist)
                np.abs(dist, out=dist)
                joint = np.maximum(dist[0], dist[1], out=dist[0])
                joint[np.arange(p.size), p - first] = np.inf  # exclude self
                joint.partition(k - 1, axis=1)
                e = joint[:, k - 1]
                done = gap[s] >= e
                eps[p[done]] = e[done]
                unresolved[c] = p[~done]

        _share_out(scan_chunks, range(len(starts)))
        todo = np.concatenate(unresolved)
        width = min(n, _WINDOW_GROWTH * width)

    n_x = _count_within(xs, xs, eps)
    n_y = _count_within(sorted_y, ys, eps)
    if swap:
        n_x, n_y = n_y, n_x
    unsorted = np.empty_like(order)
    unsorted[order] = np.arange(n)  # row i sits at sorted position unsorted[i]
    return eps[unsorted], n_x[unsorted], n_y[unsorted]


def _count_within(sorted_values: np.ndarray, values: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """#{j : |sorted_values[j] - v| < eps} - 1 for each v.

    fl(s_j - v) is nondecreasing in j, so the rows inside form the run
    [first j with s_j - v > -eps, first j with s_j - v >= eps). searchsorted
    on v -+ eps guesses each edge; the guess is then moved, one run of equal
    values at a time, until the subtraction predicate holds at it and fails
    just before it.
    """
    # padded[j] is sorted_values[j - 1]; the infinite ends stop both moves
    padded = np.concatenate([[-np.inf], sorted_values, [np.inf]])
    edges = []
    for guess, at_or_past in (
        (np.searchsorted(sorted_values, values - eps, "right"), lambda d: d > -eps),
        (np.searchsorted(sorted_values, values + eps, "left"), lambda d: d >= eps),
    ):
        j = guess
        while True:
            back = at_or_past(padded[j] - values)
            ahead = ~at_or_past(padded[j + 1] - values)
            if not (back.any() or ahead.any()):
                break
            j[back] = np.searchsorted(sorted_values, padded[j[back]], "left")
            j[ahead] = np.searchsorted(sorted_values, padded[j[ahead] + 1], "right")
        edges.append(j)
    return edges[1] - edges[0] - 1


@np.errstate(over="ignore")
def _pair_once_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) from each unordered pair's distance, computed once."""
    n = x.shape[0]
    half, rest = n // 2, n - 1 - n // 2  # offsets computed; offsets read back
    d_x, d_y = x.shape[1], y.shape[1]
    # features[f, i] = a_f[i % n] for i < n + half, so that
    # windows[f, t - 1, i] = features[f, i + t] = a_f[(i + t) % n] for t = 1..half;
    # built by the ndarray constructor, which checks the view against the
    # buffer: sliding_window_view took 20 us per call, and 130 us under the
    # benchmark's tracemalloc. Filled in place: a transposing copy of the
    # wrapped joint array took 2.5 times as long at d_x = d_y = 64
    features = np.empty((d_x + d_y, n + half))
    features[:d_x, :n] = x.T
    features[d_x:, :n] = y.T
    features[:, n:] = features[:, :half]
    step = features.itemsize
    windows = np.ndarray(
        (len(features), half + 1, n), features.dtype, features,
        strides=(features.strides[0], step, step),
    )[:, 1:]

    # dist[m, r, i] = marginal m's distance from sample i to sample (i + r + 1) % n
    # for r < half, and to sample (i - (r - half) - 1) % n after that: column i
    # holds sample i's distance to every other sample once
    dist = np.empty((2, n - 1, n))
    plane = np.empty((half, n))
    # wrapped[:, c] = dist[m, :half, (c - rest) % n], so that skew[r, i] =
    # wrapped[r, i + rest - 1 - r] is sample i's distance to sample (i - r - 1) % n:
    # rows rest + n - 1 apart in the flat buffer (n = 2 reads nothing back)
    wrapped = np.empty((half, rest + n))
    skew = wrapped.reshape(-1)[max(rest - 1, 0) :][: rest * (rest + n - 1)]
    skew = skew.reshape(rest, rest + n - 1)[:, :n]
    for m, features_m in enumerate((range(d_x), range(d_x, d_x + d_y))):
        top = dist[m, :half]
        if not features_m:
            dist[m].fill(0.0)
            continue
        for f in features_m:
            out = top if f == features_m[0] else plane
            np.subtract(features[f, :n], windows[f], out=out)
            np.abs(out, out=out)
            if out is plane:
                np.maximum(top, plane, out=top)
        # fl(a - b) = -fl(b - a), so the read-back distances are the ones that
        # brute force computes from the other end of each pair
        wrapped[:, rest:] = top
        wrapped[:, :rest] = top[:, n - rest :]
        dist[m, half:] = skew

    dist_joint = np.maximum(dist[0], dist[1])
    dist_joint.partition(k - 1, axis=0)
    epsilon = dist_joint[k - 1].copy()

    # a column holds n - 1 distances, so its count fits the smallest type that
    # holds n - 1; summing bytes in it (uint8 up to n = 256) down the columns
    # is about four times faster than count_nonzero there
    inside = np.empty((n - 1, n), dtype=bool)
    tally = np.min_scalar_type(n - 1)
    counts = []
    for dist_m in dist:
        np.less(dist_m, epsilon, out=inside)
        counts.append(inside.view(np.uint8).sum(axis=0, dtype=tally).astype(np.int64))
    return epsilon, *counts


def _brute_force_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) over all pairs, blocked over query rows and threaded."""
    n = x.shape[0]
    epsilon = np.empty(n, dtype=np.float64)
    n_x = np.empty(n, dtype=np.int64)
    n_y = np.empty(n, dtype=np.int64)

    x_features = np.ascontiguousarray(x.T)
    y_features = np.ascontiguousarray(y.T)

    block = max(8, min(n, _SCRATCH_ELEMS // n))

    def scan_blocks(starts: deque) -> None:
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

    _share_out(scan_blocks, range(0, n, block))
    return epsilon, n_x, n_y


def _share_out(worker, items) -> None:
    """Call worker(pending) in one thread per CPU, and in no more threads than items.

    pending is a deque of `items` shared by every call; each call pops from
    its left until it is empty, so items are taken in order. The calling
    thread makes one of the calls, so a single call starts no thread; plain
    threads rather than a ThreadPoolExecutor, whose import and extra thread
    raised peak RSS by about 1 MiB at N = 10000. numpy's error state is per
    thread, so each call ignores float overflow in its own thread: an inf
    difference is not an error (see the check after the scan). The first
    exception of any call stops the hand-out and is raised here.
    """
    pending = deque(items)
    errors = []

    def run() -> None:
        try:
            with np.errstate(over="ignore"):
                worker(pending)
        except BaseException as exc:  # re-raised in the calling thread below
            pending.clear()
            errors.append(exc)

    helpers = [threading.Thread(target=run) for _ in range(min(_cpu_count(), len(pending)) - 1)]
    for thread in helpers:
        thread.start()
    run()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
