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

Three exact scans give the same radii and counts; the shape picks one: pair
once at any D while n * n <= _SCRATCH_ELEMS (n <= 256), the sorted window at
d_x = d_y = 1 (D = 2) above that, brute force elsewhere. All take each
distance with the same float operations, every reduction (max, partition,
integer count) is order-independent and threads (`_share_out`) write
disjoint rows: results are bit-identical for any scan, chunk and thread count.
"""

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .errors import ConfigurationError, DuplicatePointError, RadiusOverflowError, integer

# doubles per scratch plane (512 KiB); output is the same for any value.
# Brute force: per thread, so one thread's four float planes and one bool
# plane fit in 4 MiB of L2. At d_x = d_y = d, 2**16 gave 2**15's 8-row blocks
# at (N, d) = (10000, 8), was the fastest of 2**15..2**18 on two threads at
# (1000, 512), and 2**22 made (10000, 8) 2.5 times slower; that measurement's
# (10000, 1) ran brute force at D = 2, now the sorted window's. Sorted window:
# one budget per scan, split over its threads (a per-thread one raised peak
# RSS by 2.4 MiB at N = 10000, D = 2); not tuned there. Pair once: taken
# while n * n <= _SCRATCH_ELEMS (n <= 256), so its (n - 1, n) planes are no
# larger than brute force's one block; measured at N = 200 only
_SCRATCH_ELEMS = 2**16

# sorted-window scan: the first window spans _FIRST_WINDOW * sqrt(k N) rows
# (Gaussian data need about sqrt(k N) at the median) and grows by
# _WINDOW_GROWTH per pass. Fastest of 1..3 and 2..4 measured at N = 200 and
# 10000; output is the same for any values
_FIRST_WINDOW = 1.5
_WINDOW_GROWTH = 4

# pair-once scratch (_carve) is kept, since freed planes of about a MiB went
# back to the OS, and faulting them in again took over half of a d = 2 scan
# at N = 200; a subtract into a 64-byte-aligned output ran 1.3 times as fast
# as into malloc's 16-byte-aligned blocks (N = 200 plane, AVX-512 Xeon)
_ALIGN = 64
_scratch = threading.local()


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pair_once(n: int) -> bool:
    """Whether a scan of n samples pairs each pair once, the one scan that starts no thread."""
    return n * n <= _SCRATCH_ELEMS


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
    k = integer("k", k, 1)
    if k >= n:
        raise ConfigurationError(f"k = {k} requires at least k + 1 = {k + 1} samples, got {n}")

    if _pair_once(n):
        scan = _pair_once_scan
    elif data.d_x == data.d_y == 1:
        scan = _sorted_window_scan
    else:
        scan = _brute_force_scan
    # an overflowing difference is inf, not an error: the check below reports it
    with np.errstate(over="ignore"):
        epsilon, n_x, n_y = scan(data.x, data.y, k)

    bad = np.flatnonzero((epsilon == 0.0) | (epsilon == np.inf))
    if bad.size:
        i = int(bad[0])
        raise (DuplicatePointError if epsilon[i] == 0.0 else RadiusOverflowError)(i)

    return RadiusSet(epsilon=epsilon, n_x=n_x, n_y=n_y, k=k)


def _sorted_window_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) at d_x = d_y = 1 from windows of sorted neighbours.

    The rows are sorted once by each coordinate (numpy's default argsort). A
    row's epsilon is the k-th smallest joint distance over a window of its
    sorted neighbours, exact once the nearest row outside the window on each
    side is epsilon or more away in the sorting coordinate: fl(x_q - x_p) is
    monotone in sorted order, so no row outside is nearer in the max-norm,
    whichever of two tied rows the window holds (the sort need not be
    stable). Rows the first pass leaves are retried in the other order,
    where the same test holds: a row in a sparse stretch of one coordinate,
    such as a tail, often lies in a dense stretch of the other. Its window
    grows until it settles, as a window of all N rows, with no row outside,
    always does. This is the simplest form of the box-assisted search of
    Kraskov, Stoegbauer and Grassberger (PRE 69, 066138, 2004).
    """
    n = x.shape[0]
    coords = x[:, 0], y[:, 0]
    # orders[a] sorts coordinate a; planes[a] holds it and the other
    # coordinate in that order, so planes[a][0] is sorted
    orders = [np.argsort(c) for c in coords]
    planes = [np.stack([coords[a][orders[a]], coords[1 - a][orders[a]]]) for a in (0, 1)]
    # the first pass runs in the order with more distinct values, x on a tie,
    # since a run of tied keys keeps windows from being accepted
    a = int(np.count_nonzero(np.diff(planes[1][0])) > np.count_nonzero(np.diff(planes[0][0])))
    b = 1 - a
    # NaN until a row settles: a radius, a max of absolute differences of
    # finite data, is finite or inf, never NaN
    eps = np.full(n, np.nan)
    width = min(n, max(int(_FIRST_WINDOW * math.sqrt(k * n)), k + 1))
    _window_pass(planes[a], orders[a], np.arange(n), k, width, eps)
    while (todo := np.flatnonzero(np.isnan(eps[orders[b]]))).size:
        _window_pass(planes[b], orders[b], todo, k, width, eps)
        width = min(n, _WINDOW_GROWTH * width)

    counts = np.empty((2, n), dtype=np.int64)  # n_x and n_y, one coordinate per thread

    def count(a: int, _) -> None:
        counts[a, orders[a]] = _count_within(planes[a][0], eps[orders[a]])

    _share_out(count, (0, 1), lambda: None)
    return eps, counts[0], counts[1]


def _window_pass(planes: np.ndarray, order: np.ndarray, todo: np.ndarray, k: int, width: int,
                 eps: np.ndarray) -> None:
    """Settle the rows of todo whose window of width sorted neighbours holds their epsilon.

    planes[0] is sorted, and order maps its positions to sample rows; todo
    holds ascending positions. A settled row's epsilon goes to
    eps[order[position]]; the other rows' entries are left as they are.
    """
    lead, n = planes[0], planes.shape[1]
    padded = np.concatenate([[-np.inf], lead, [np.inf]])  # padded[j] is lead[j - 1]
    lo = np.minimum(np.maximum(todo - width // 2, 0), n - width)
    # distance to the nearer of the positions just outside each window, inf past an end
    gap = np.minimum(*np.abs(lead[todo] - padded[[lo, lo + width + 1]]))
    windows = sliding_window_view(planes, width, axis=1)
    rows = max(1, _SCRATCH_ELEMS // (width * _cpu_count()))
    kth = np.empty(todo.size)  # each row's window k-th distance; chunks fill disjoint slices

    def scan_chunk(start: int, scratch: np.ndarray) -> None:
        """kth of the rows of todo from start, a chunk of up to rows rows."""
        s = slice(start, start + rows)
        p, first = todo[s], lo[s]
        if first[-1] - first[0] == p[-1] - p[0] == p.size - 1:
            # consecutive rows (todo is ascending): one strided view, no copy
            near, dist = windows[:, first[0] : first[-1] + 1], scratch[:, : p.size]
        else:
            near = dist = windows[:, first]  # a copy, overwritten below
        # one subtract, abs and max over both coordinates, not _fold_max: a
        # scan through it took 51-53 against 40-46 ms (N = 10000, t nu = 1)
        np.subtract(planes[:, p, None], near, out=dist)
        np.abs(dist, out=dist)
        joint = np.maximum(dist[0], dist[1], out=dist[0])
        # the window holds its own row at distance 0, as in brute force
        joint.partition(k, axis=1)
        kth[s] = joint[:, k]

    _share_out(scan_chunk, range(0, todo.size, rows), lambda: np.empty((2, min(rows, todo.size), width)))
    done = gap >= kth
    eps[order[todo[done]]] = kth[done]


def _count_within(sorted_values: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """#{j : |s_j - s_i| < eps[i]} - 1 for each i, where s = sorted_values.

    fl(s_j - s_i) is nondecreasing in j, so the rows inside form the run
    [first j with s_j - s_i > -eps[i], first j with s_j - s_i >= eps[i]).
    searchsorted of the keys s_i -+ eps[i] only seeds each edge: that
    addition form rounds differently and miscounts on decimal data. A seed
    stands where the predicate fails just before it and holds at it. Any
    other edge is bracketed on the seed's side in the values padded with
    -inf and inf (where the predicate fails first and holds last, also at
    eps = inf); one probe tries the seed's neighbour (every failed seed in
    Gaussian samples at N = 10000 was one off) and bisection the rest, in
    ceil(log2 n) + 1 steps at most, as a far outlier's seeds land mid-sample.
    """
    n = sorted_values.shape[0]
    padded = np.concatenate([[-np.inf], sorted_values, [np.inf]])  # padded[j] is s_(j - 1)
    edges = []
    for key, side, holds, bound in ((sorted_values - eps, "right", np.greater, -eps),
                                    (sorted_values + eps, "left", np.greater_equal, eps)):
        # searchsorted on sorted keys: 0.17 ms against 0.47 ms in row order at
        # N = 10000, and the argsort costs 0.09 ms
        by_key = np.argsort(key)
        j = np.empty(n, dtype=np.intp)
        j[by_key] = np.searchsorted(sorted_values, key[by_key], side)
        back = holds(padded[j] - sorted_values, bound)
        off = np.flatnonzero(back | ~holds(padded[j + 1] - sorted_values, bound))
        # the predicate fails at padded[lo] and holds at padded[hi]; the edge is lo once hi = lo + 1
        back, seed, v, b = back[off], j[off], sorted_values[off], bound[off]
        lo, hi = np.where(back, 0, seed + 1), np.where(back, seed, n + 1)
        mid = np.where(back, seed - 1, seed + 2)
        while (hi - lo > 1).any():
            at = holds(padded[mid] - v, b)
            lo, hi = np.where(at, lo, mid), np.where(at, mid, hi)
            mid = (lo + hi) // 2
        j[off] = lo
        edges.append(j)
    return edges[1] - edges[0] - 1


def _pair_once_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) from each unordered pair's distance, computed once.

    Each marginal's distances are computed for offsets t = 1..n // 2 in
    circular order and read back for the other end of each pair:
    fl(a - b) = -fl(b - a), so they are the numbers brute force computes
    there. A feature thus costs one subtract, abs and max over n // 2 rows,
    not n: at N = 200, k = 5 the scan took 0.6 of brute force's time at
    d_x = d_y = 64 and 0.9 at 2, where the partition and compares that both
    pay dominate, and 0.30 against the sorted window's 0.52 ms at 1 (40
    Gaussian and Student-t samples, 2-vCPU Xeon). It starts no thread.
    """
    n = x.shape[0]
    half, rest = n // 2, n - 1 - n // 2  # offsets computed; offsets read back
    d_x, d_y = x.shape[1], y.shape[1]
    # dist[m, r, i] = marginal m's distance from sample i to sample (i + r + 1) % n
    # for r < half, and to sample (i - (r - half) - 1) % n after that: column i
    # holds sample i's distance to every other sample once
    dist, features, plane, wrapped = _carve(
        ((2, n - 1, n), float), ((d_x + d_y, n + half), float), ((half, n), float),
        ((half, rest + n), float),
    )

    # features[f, i] = a_f[i % n] for i < n + half, so that
    # windows[f, t - 1, i] = features[f, i + t] = a_f[(i + t) % n] for t = 1..half;
    # built by the ndarray constructor, which checks the view against the buffer:
    # sliding_window_view took 20 us per call, and 130 us under the benchmark's
    # tracemalloc. Filled in place: a transposing copy of the wrapped joint
    # array took 2.5 times as long at d_x = d_y = 64
    features[:d_x, :n] = x.T
    features[d_x:, :n] = y.T
    features[:, n:] = features[:, :half]
    step = features.itemsize
    windows = np.ndarray(
        (len(features), half + 1, n), features.dtype, features,
        strides=(features.strides[0], step, step),
    )[:, 1:]

    # wrapped[:, c] = dist[m, :half, (c - rest) % n], so that skew[r, i] =
    # wrapped[r, i + rest - 1 - r] is sample i's distance to sample (i - r - 1) % n:
    # rows rest + n - 1 apart in the flat buffer (n = 2 reads nothing back)
    skew = wrapped.reshape(-1)[max(rest - 1, 0) :][: rest * (rest + n - 1)]
    skew = skew.reshape(rest, rest + n - 1)[:, :n]
    for m, features_m in enumerate((range(d_x), range(d_x, d_x + d_y))):
        top = dist[m, :half]
        _fold_max(top, plane, ((features[f, :n], windows[f]) for f in features_m))
        wrapped[:, rest:] = top
        wrapped[:, :rest] = top[:, n - rest :]
        dist[m, half:] = skew

    # the partition's planes (9n^2 bytes past dist) lie over the dead loop planes
    # (over 10n^2), so the buffer does not grow and dist keeps its place and values
    _, dist_joint, inside = _carve(((2, n - 1, n), float), ((n - 1, n), float), ((n - 1, n), bool))
    np.maximum(dist[0], dist[1], out=dist_joint)
    dist_joint.partition(k - 1, axis=0)
    epsilon = dist_joint[k - 1].copy()

    # a column's count is at most n - 1, so it fits that type; summing bytes
    # (uint8 up to n = 256) down the columns is about four times faster than count_nonzero
    tally = np.min_scalar_type(n - 1)
    counts = []
    for dist_m in dist:
        np.less(dist_m, epsilon, out=inside)
        counts.append(inside.view(np.uint8).sum(axis=0, dtype=tally).astype(np.int64))
    return epsilon, *counts


def _carve(*layout):
    """Scratch arrays for layout, (shape, dtype) pairs, from this thread's buffer.

    The arrays lie end to end from the start of the buffer, each from an
    _ALIGN-byte boundary, so none overlaps another; arrays of two calls
    may overlap, and an array that leads both has the same place in each.
    The buffer is kept between calls and grows to the largest layout its
    thread has asked for: about 1.6 MiB at the pair-once scan's n = 256,
    plus its D x 1.5n features. The arrays hold whatever an earlier call
    left, so callers write before they read. Brute force and the sorted
    window allocate per call instead: their scans run 30 ms to 8 s, and kept
    planes would pin up to 8 * N doubles each.
    """
    spans, size = [], 0
    for shape, dtype in layout:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        spans.append((size, nbytes, shape, dtype))
        size += -(-nbytes // _ALIGN) * _ALIGN
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        _scratch.buffer = buffer = None  # freed before the larger one is taken
        raw = np.empty(size + _ALIGN, dtype=np.uint8)
        skip = -raw.ctypes.data % _ALIGN
        buffer = _scratch.buffer = raw[skip : skip + size]
    return [buffer[at : at + nbytes].view(dtype).reshape(shape) for at, nbytes, shape, dtype in spans]


def _fold_max(out: np.ndarray, plane: np.ndarray, pairs) -> None:
    """out = max |a - b| over the (a, b) operand pairs, and 0 with none.

    The first pair is written straight into out; each later one into plane,
    scratch of out's shape, and folded in.
    """
    target = out
    for a, b in pairs:
        np.subtract(a, b, out=target)
        np.abs(target, out=target)
        if target is plane:
            np.maximum(out, plane, out=out)
        target = plane
    if target is out:
        out.fill(0.0)


def _brute_force_scan(x: np.ndarray, y: np.ndarray, k: int):
    """(epsilon, n_x, n_y) over all pairs, blocked over query rows and threaded.

    The features are transposed once, so that each feature's |a_i - a_j|
    plane is built from contiguous rows: reducing over a short last axis
    takes numpy's slow strided path. A block with a zero or infinite radius
    ends the hand-out, since the scan then fails anyway (compute_knn_radii).
    """
    n = x.shape[0]
    epsilon, n_x, n_y = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    x_features, y_features = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    block = max(8, min(n, _SCRATCH_ELEMS // n))

    def scan_block(start: int, planes) -> bool:
        """Rows start.. of one query block; True once a radius is zero or infinite."""
        stop = min(start + block, n)
        b = stop - start
        dx, dy, dj, plane, inside = (p[:b] for p in planes)
        for features, dist in ((x_features, dx), (y_features, dy)):
            _fold_max(dist, plane, ((col[start:stop, None], col[None, :]) for col in features))
        np.maximum(dx, dy, out=dj)

        # each row keeps its own sample at distance 0, which spares a write to mask
        # it out: the k-th neighbour is the (k + 1)-th smallest, and counts take 1 off
        dj.partition(k, axis=1)
        eps_block = dj[:, k]

        np.less(dx, eps_block[:, None], out=inside)
        n_x[start:stop] = np.count_nonzero(inside, axis=1) - 1
        np.less(dy, eps_block[:, None], out=inside)
        n_y[start:stop] = np.count_nonzero(inside, axis=1) - 1
        epsilon[start:stop] = eps_block
        return eps_block.min() == 0.0 or eps_block.max() == np.inf

    # each thread's dist_x, dist_y, dist_joint, feature plane and bool plane
    _share_out(scan_block, range(0, n, block),
               lambda: [np.empty((block, n)) for _ in range(4)] + [np.empty((block, n), dtype=bool)])
    return epsilon, n_x, n_y


def _share_out(task, items, scratch) -> None:
    """Run task(item, kept) for each item in order, on one thread per CPU and no more than items.

    Each thread calls scratch() once, keeps what it returns, and pops items
    from one shared deque (numpy releases the GIL inside each array
    operation). A task that returns True ends the hand-out; items already
    taken still finish, so every item before it runs. The calling thread is
    one of the threads; plain threads rather than a ThreadPoolExecutor,
    whose import and extra thread raised peak RSS by about 1 MiB at
    N = 10000. numpy's error state is per thread, so each ignores float
    overflow (see compute_knn_radii). The first exception of any thread
    ends the hand-out and is raised here.
    """
    pending = deque(items)
    errors = []

    def run() -> None:
        try:
            with np.errstate(over="ignore"):
                kept = scratch()
                while True:
                    try:
                        item = pending.popleft()
                    except IndexError:
                        return
                    if task(item, kept):
                        pending.clear()
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
