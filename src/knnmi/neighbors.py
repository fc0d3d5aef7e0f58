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
one: the pair-once scan at any D while n * n <= _SCRATCH_ELEMS (n <= 256),
the sorted window at d_x = d_y = 1 (D = 2) above that, and brute force
elsewhere. The sorted window and brute force share their work out in
chunks to one thread per CPU in the process's affinity mask (numpy releases
the GIL inside each array operation); the calling thread is one of them, so
a single chunk starts no thread. Threads take chunks in order from one
hand-out (`_share_out`), each with its own scratch, and write disjoint rows
of the result; brute force ends the hand-out after a block with a zero or
infinite radius, since the scan then fails anyway. Every reduction
(max, partition, integer count) is order-independent, so results are
bit-identical for any chunk size and thread count.

At d_x = d_y = 1 (D = 2) the rows are sorted once by each coordinate
(numpy's default argsort), and the first pass runs in the order of the one
with more distinct values, called x here (x itself on a tie; a run of tied
keys holds windows open). Each row's epsilon is the k-th smallest of
max(|x_p - x_q|, |y_p - y_q|) over a window of sorted neighbours, with the
same float operations as brute force. The window holds the row itself at
distance 0, so epsilon is read at partition index k, with no write to mask
self out. A row is accepted once the nearest row outside its window on each
side has |x_p - x_q| >= epsilon: fl(x_q - x_p) is monotone in sorted order,
so every row outside is at least that far in the joint max-norm and the
k-th smallest is exact. Which of two tied rows a window holds is then of no
account, so the sort need not be stable. Every row the first pass leaves is
retried in y order, where the same test holds with the coordinates' roles
exchanged (max is commutative): a row in a sparse stretch of x, such as a
tail, often lies in a dense stretch of y. Its y window starts at the first
width and grows _WINDOW_GROWTH times per pass until the row settles, and a
window of all N rows always settles it. A row not settled yet holds NaN,
which no radius can be: a max of absolute differences of finite data is
finite, 0 or inf. Each pass shares its rows out in chunks (`_window_pass`).
The counts come from each coordinate's sorted order with the subtraction
predicate |v_q - v_p| < epsilon, whose hits are a contiguous run around p;
n_x and n_y run at the same time, one coordinate per thread, through the
same hand-out. The addition form v_q < v_p + epsilon rounds differently and
miscounts on decimal data, so it only seeds each edge of the run: the keys
v_p -+ epsilon are searched in their own sorted order, which is faster than
in row order. An edge whose seed the subtraction predicate rejects is found
by one probe of the seed's neighbour, then by bisection of the sorted
positions on that side, so a far outlier, whose seeds land mid-sample,
costs about log2 N steps, not N (`_count_within`). This is the simplest
form of the box-assisted search of Kraskov, Stoegbauer and Grassberger
(PRE 69, 066138, 2004). On Gaussian data at N = 10000 a row's k-th
neighbour lies among a few hundred sorted rows, not N.

Brute force scans all ordered pairs, self included, so like the sorted
window it reads epsilon at partition index k: samples are transposed to
feature-major layout once, then each feature's |a_i - a_j| plane is folded
into a running max (`_fold_max`, the pair-once scan's fold too), blocked
over query rows (reducing over a short last axis would hit numpy's slow
strided path). A block's four float planes and one bool plane are sized to
stay in a core's L2 cache: every ufunc pass re-reads them, and planes that
spill to memory made the scan two to three times slower on a 2-vCPU Xeon
with 4 MiB of L2 per core.

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
compares it shares with brute force dominate. At d_x = d_y = 1 it beats
the sorted window too: 0.30 ms against 0.52 ms per N = 200, k = 5 scan on
40 Gaussian and Student-t samples (2-vCPU Xeon). It starts no thread.

The pair-once scan carves its planes from one byte buffer per thread, kept
between calls (`_carve`): each plane starts on a 64-byte boundary, and the
partition's planes are carved in a second call over the marginal loop's,
which are dead by then. The buffer is bounded by the largest small-sample
scan its thread has run: about 1.6 MiB at n = 256, plus the D x 1.5n
feature array. It is scratch, not a cache: no value passes from one call to
the next, and the arrays returned are fresh. Brute force and the sorted
window allocate their planes per call; their scans run 30 ms to 8 s, and
kept planes would pin up to 8 * N doubles each.
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

# doubles per scratch plane (512 KiB). Brute force: per thread, so one
# thread's four float planes and one bool plane fit in 4 MiB of L2; fastest
# of 2**15..2**18 measured at (N, d) = (10000, 1), (10000, 8), (1000, 512).
# Sorted window: per scan, split evenly over the threads, so that threading
# holds no more memory than one thread did. Pair once: taken at any D when a
# whole (n, n) plane fits (n * n <= _SCRATCH_ELEMS, so n <= 256), so that its
# (n - 1, n) planes are no larger than brute force's one block. Output is the
# same for any value
_SCRATCH_ELEMS = 2**16

# sorted-window scan: the first window spans _FIRST_WINDOW * sqrt(k N) rows
# (Gaussian data need about sqrt(k N) at the median) and grows by
# _WINDOW_GROWTH per pass. Fastest of 1..3 and 2..4 measured at N = 200 and
# 10000; output is the same for any values
_FIRST_WINDOW = 1.5
_WINDOW_GROWTH = 4

# pair-once scratch: each thread keeps one byte buffer between calls (_carve).
# Freed planes of about a MiB went back to the OS, and faulting them in again
# took over half of a d = 2 scan at N = 200; a subtract into an output on a
# 64-byte boundary ran 1.3 times as fast as into the 16-byte-aligned blocks
# that malloc gives large arrays (N = 200 plane, AVX-512 Xeon)
_ALIGN = 64
_scratch = threading.local()


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
    k = integer("k", k, 1)
    if k >= n:
        raise ConfigurationError(f"k = {k} requires at least k + 1 = {k + 1} samples, got {n}")

    if n * n <= _SCRATCH_ELEMS:
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
    """(epsilon, n_x, n_y) at d_x = d_y = 1 from windows of sorted neighbours."""
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
    eps = np.full(n, np.nan)  # NaN until a row settles: no radius is NaN
    width = min(n, max(int(_FIRST_WINDOW * math.sqrt(k * n)), k + 1))
    _window_pass(planes[a], orders[a], np.arange(n), k, width, eps)
    # every row left is retried in the other order, its window growing until it settles
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
    # split per scan, not per thread as in brute force: a per-thread budget
    # raised peak RSS by 2.4 MiB at N = 10000, D = 2
    rows = max(1, _SCRATCH_ELEMS // (width * _cpu_count()))
    kth = np.empty(todo.size)  # each row's window k-th distance; chunks fill disjoint slices

    def scan_chunk(start: int, scratch: np.ndarray) -> None:
        """kth of the rows of todo from start, a chunk of up to rows rows."""
        s = slice(start, start + rows)
        p, first = todo[s], lo[s]
        if first[-1] - first[0] == p[-1] - p[0] == p.size - 1:
            # consecutive rows (todo is ascending): their windows are
            # one strided view, read with no copy
            near, dist = windows[:, first[0] : first[-1] + 1], scratch[:, : p.size]
        else:
            near = dist = windows[:, first]  # a copy, overwritten below
        # one subtract, abs and max over both coordinates, not _fold_max: a
        # scan through it took 51-53 against 40-46 ms (N = 10000, t nu = 1)
        np.subtract(planes[:, p, None], near, out=dist)
        np.abs(dist, out=dist)
        joint = np.maximum(dist[0], dist[1], out=dist[0])
        # every window holds its own row at distance 0, so the k-th
        # neighbour's distance is the (k + 1)-th smallest
        joint.partition(k, axis=1)
        kth[s] = joint[:, k]

    _share_out(scan_chunk, range(0, todo.size, rows), lambda: np.empty((2, min(rows, todo.size), width)))
    done = gap >= kth
    eps[order[todo[done]]] = kth[done]


def _count_within(sorted_values: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """#{j : |s_j - s_i| < eps[i]} - 1 for each i, where s = sorted_values.

    fl(s_j - s_i) is nondecreasing in j, so the rows inside form the run
    [first j with s_j - s_i > -eps[i], first j with s_j - s_i >= eps[i]).
    searchsorted of the keys s_i -+ eps[i], taken in sorted order, seeds
    each edge; a seed is kept where the subtraction predicate fails just
    before it and holds at it. Any other edge is searched with the same
    predicate over the sorted values padded with -inf and inf, where it is
    false at the first position and true at the last (also at eps = inf):
    the failed check brackets the edge on the seed's side, one probe tries
    the seed's neighbour (in Gaussian samples at N = 10000 every seed that
    failed was one position off), and bisection halves what is left. A row
    takes at most ceil(log2 n) + 1 steps however far its seed was: a far
    outlier's seeds land mid-sample.
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
    """(epsilon, n_x, n_y) from each unordered pair's distance, computed once."""
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
    # built by the ndarray constructor, which checks the view against the
    # buffer: sliding_window_view took 20 us per call, and 130 us under the
    # benchmark's tracemalloc. Filled in place: a transposing copy of the
    # wrapped joint array took 2.5 times as long at d_x = d_y = 64
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
        # fl(a - b) = -fl(b - a), so the read-back distances are the ones that
        # brute force computes from the other end of each pair
        wrapped[:, rest:] = top
        wrapped[:, :rest] = top[:, n - rest :]
        dist[m, half:] = skew

    # the partition's planes (9n^2 bytes past dist) lie over the dead loop planes
    # (over 10n^2), so the buffer does not grow and dist keeps its place and values
    _, dist_joint, inside = _carve(((2, n - 1, n), float), ((n - 1, n), float), ((n - 1, n), bool))
    np.maximum(dist[0], dist[1], out=dist_joint)
    dist_joint.partition(k - 1, axis=0)
    epsilon = dist_joint[k - 1].copy()

    # a column holds n - 1 distances, so its count fits the smallest type that
    # holds n - 1; summing bytes in it (uint8 up to n = 256) down the columns
    # is about four times faster than count_nonzero there
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
    thread has asked for, dropping the old buffer before it allocates the
    new one. The arrays hold whatever an earlier call left in them.
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
    """(epsilon, n_x, n_y) over all pairs, blocked over query rows and threaded."""
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

        # each row holds its own sample at distance 0, so the k-th neighbour's
        # distance is the (k + 1)-th smallest, as in the sorted window
        dj.partition(k, axis=1)
        eps_block = dj[:, k]

        # self sits at marginal distance 0 < eps and must not be counted
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
    from one shared deque. A task that returns True ends the hand-out; items
    already taken still finish, so every item before it runs. The calling
    thread is one of the threads; plain threads rather than a
    ThreadPoolExecutor, whose import and extra thread raised peak RSS by
    about 1 MiB at N = 10000. numpy's error state is per thread, so each
    ignores float overflow (see compute_knn_radii). The first exception of
    any thread ends the hand-out and is raised here.
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
