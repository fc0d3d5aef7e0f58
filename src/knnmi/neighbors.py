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

The pair-once scan is one pipeline whose planes are int16 or float64: it
stages the features, folds them into planes, partitions each sample's
joint distances and counts both marginals with one compare. On int16
planes it quantizes the features first and then decides in float64 only
what quantization leaves open, in a radius band and a count band (a
floating-point filter in Shewchuk's sense, DCG 18:305-363, 1997). Its
input alone picks the type; with z running over every feature value,
int16 needs all of:
* D = d_x + d_y >= 8 (_INT16_MIN_FEATURES);
* max |z| <= 64 mean |z| (_INT16_TAIL): heavier tails leave few
  quantization steps near epsilon;
* 2^-1000 <= max |z| <= 2^1020: else the scale is subnormal or a
  difference could overflow;
* a radius band of at most 4n entries (_INT16_BAND_ROWS).
An input that fails one of them runs the pipeline on float64 planes, from
the start or after its int16 pass. Radii and counts are bit-identical on
both (see _pair_once_scan).
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

# the pair-once scan's int16 rules (module docstring); output is the same for
# any values. At N = 200, k = 5 (Gaussian rho 0.5, 2-vCPU Xeon) int16 planes
# took 0.40 against 0.46 ms a scan at D = 8 and 1.55 against 3.50 at 128
_INT16_MIN_FEATURES = 8
_INT16_TAIL = 64
_INT16_BAND_ROWS = 4


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

    # n_x and n_y in the calling thread: a helper thread for one of them was
    # no faster (estimate-d1-n10k estimate_s, medians of 10 alternating runs:
    # 31.1 ms with it, 29.7 without)
    counts = np.empty((2, n), dtype=np.int64)
    for a in (0, 1):
        counts[a, orders[a]] = _count_within(planes[a][0], eps[orders[a]])
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

    One pipeline serves both plane types, in a loop that tries int16 planes
    where the module docstring's rules allow and float64 planes after them.
    Each pass stages the features once, in float64, into z; folds them into
    the marginal planes dist; takes the joint max into each sample's row of
    part and partitions the rows; and counts both marginals with one
    compare. int16 planes add three steps of their own: the quantization
    before the fold, the radius band after the partition, and the count
    band after the compare. A radius band too wide for int16 ends the pass,
    and the float64 pass gives the result.

    The int16 steps: with M = max |z| over every feature value and
    s = fl(M / 16383), each value is quantized once to q = rint(fl(z / s)),
    so |q| <= 16383 and the fold, partition and compares are exact integer
    work. With u = 2^-53 and |z / s| < 2^14, fl(z / s) is within 2^14 u of
    z / s and rint within 1/2 of that, so q_a - q_b is within 1 + 2^15 u of
    (a - b) / s; and |fl(a - b)| / s, below 2^15 (M <= 2^1020 keeps
    fl(a - b) finite), is within 2^15 u of |a - b| / s. A max moves by no
    more than the largest move of its terms, so every quantized distance Q
    is within delta = 1 + 2^-37 units of F / s, where
    F = max_f |fl(a_f - b_f)| is the float64 distance. Where Q cannot
    decide, F is computed again from z with the float64 planes' operations:
    - radii: with K a sample's k-th smallest Q, its epsilon is within delta
      of K s. An entry with Q < K - 2 lies below epsilon and one with
      Q > K + 2 above it (2 delta < 3), so epsilon is the (k - c)-th
      smallest F of the entries with |Q - K| <= 2, c the entries below them.
      A band of over _INT16_BAND_ROWS * n entries takes float64 planes.
    - counts: an entry with Q < ceil(fl(epsilon / s) - (1 + 2^-30)) is
      below epsilon, and one with Q > floor(fl(epsilon / s) + (1 + 2^-30))
      is not: 2^-30 covers delta and the rounding of epsilon / s and the
      sum (each under 2^15 u). The F of the entries between are compared.
    Radii and counts are therefore bit-identical to the float64 planes'.
    """
    n, d_x = x.shape
    d = d_x + y.shape[1]
    half, rest = n // 2, n - 1 - n // 2  # offsets computed; offsets read back
    for planes in (np.int16, float) if d >= _INT16_MIN_FEATURES else (float,):
        int16 = planes is np.int16
        # z: the features, one per row, and half spare columns for the fold's
        # wrap, so that float64 planes fold z itself.
        # dist[m, r, i] = marginal m's distance from sample i to sample (i + r + 1) % n
        # for r < half, and to sample (i - (r - half) - 1) % n after that: column i
        # holds sample i's distance to every other sample once
        lead = ((d, n + half), float), ((2, n - 1, n), planes)
        z, dist, plane, wrapped, *own = _carve(*lead, ((half, n), planes), ((half, rest + n), planes), *((
            # int16's quantized features, joint plane and bands' scratch
            ((d, n + half), planes), ((n - 1, n), planes), ((2, n - 1, n), np.uint16),
            ((d * n,), float), ((d * n,), float),
        ) if int16 else ()))
        z[:d_x, :n], z[d_x:, :n] = x.T, y.T
        if int16:
            features, joint, offset, taken, other = own
            scaled = taken.reshape(d, n)  # scratch until the bands
            np.abs(z[:, :n], out=scaled)
            big = scaled.max()
            if not 2.0**-1000 <= big <= 2.0**1020 or big > _INT16_TAIL * scaled.mean():
                continue
            s = big / 16383
            np.divide(z[:, :n], s, out=scaled)
            np.rint(scaled, out=scaled)
            features[:, :n] = scaled
        _pair_distances(d_x, dist, features if int16 else z, plane, wrapped)

        # each sample's distances in one row of part, the max written
        # transposed: as fast as a partition down the columns (80 us int16,
        # 180 float64, at N = 200). A joint plane copied transposed would save
        # 20 us, but float64 has no room for one beside part. part lies over
        # the fold's dead scratch, and inside over part once its first k
        # columns are read
        _, _, part = _carve(*lead, ((n, n - 1), planes))
        np.maximum(*dist.transpose(0, 2, 1), out=part)
        part.partition(k - 1, axis=1)
        if int16:
            low = part[:, k - 1] - 2
            below = np.count_nonzero(part[:, : k - 1] < low[:, None], axis=1)
        else:
            epsilon = low = part[:, k - 1].copy()
        _, _, inside = _carve(*lead, ((2, n - 1, n), bool))
        if int16:
            np.maximum(dist[0], dist[1], out=joint)
            _, samples, partners = _band(joint[None], low, 4, inside[:1], offset[:1])
            if samples.size > _INT16_BAND_ROWS * n:
                continue
            near = _exact_distances(z, samples, partners, taken, other)
            # the band sorted by sample, then by distance; each sample's entries start at first
            by_sample = np.bincount(samples, minlength=n)
            first = np.cumsum(by_sample) - by_sample
            epsilon = near[np.lexsort((near, samples))][first + k - 1 - below]
            scaled = epsilon / s
            low = np.ceil(scaled - (1 + 2.0**-30)).astype(np.int16)
            width = (np.floor(scaled + (1 + 2.0**-30)) - low).astype(np.uint16)

        np.less(dist, low, out=inside)
        counts = _column_counts(inside)
        if int16:
            marginal, samples, partners = _band(dist, low, width, inside, offset)
            cut = np.searchsorted(marginal, 1)  # the band holds the x entries first
            near = np.concatenate([_exact_distances(z[:d_x], samples[:cut], partners[:cut], taken, other),
                                   _exact_distances(z[d_x:], samples[cut:], partners[cut:], taken, other)])
            inner = near < epsilon[samples]
            counts += np.bincount(marginal[inner] * n + samples[inner], minlength=2 * n).reshape(2, n)
        return epsilon, *counts


def _pair_distances(d_x: int, dist: np.ndarray, features: np.ndarray, plane: np.ndarray,
                    wrapped: np.ndarray) -> None:
    """Fill dist, the pair-once scan's (2, n - 1, n) planes, from features[:, :n].

    features holds the x then the y features, one per row, and n // 2 spare
    columns; plane and wrapped are scratch. All four share one dtype.
    """
    n, half = dist.shape[2], plane.shape[0]
    rest = n - 1 - half
    # features[f, i] = a_f[i % n] for i < n + half, so that
    # windows[f, t - 1, i] = features[f, i + t] = a_f[(i + t) % n] for t = 1..half;
    # built by the ndarray constructor, which checks the view against the buffer:
    # sliding_window_view took 20 us per call, and 130 us under the benchmark's
    # tracemalloc. Filled in place: a transposing copy of the wrapped joint
    # array took 2.5 times as long at d_x = d_y = 64
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
    for m, features_m in enumerate((range(d_x), range(d_x, len(features)))):
        top = dist[m, :half]
        _fold_max(top, plane, ((features[f, :n], windows[f]) for f in features_m))
        wrapped[:, rest:] = top
        wrapped[:, :rest] = top[:, n - rest :]
        dist[m, half:] = skew


def _band(planes: np.ndarray, low: np.ndarray, width, inside: np.ndarray, offset: np.ndarray):
    """(plane, sample, partner) of each entry of planes, int16 pair-once planes
    stacked on a first axis, that lies in low..low + width of its column, in
    flat order; inside and offset, of planes' shape, are scratch."""
    n = planes.shape[-1]
    # entries below low wrap to 2^16 - (low - entry) > width
    np.subtract(planes.view(np.uint16), low.view(np.uint16), out=offset)
    np.less_equal(offset, width, out=inside)
    # the flat index: np.nonzero of a 2-D plane took 87 against 7 us (N = 200)
    rows, samples = np.divmod(np.flatnonzero(inside), n)
    which, rows = np.divmod(rows, n - 1)
    return which, samples, (samples + np.where(rows < n // 2, rows + 1, n // 2 - 1 - rows)) % n


def _exact_distances(z: np.ndarray, samples: np.ndarray, partners: np.ndarray, taken: np.ndarray,
                     other: np.ndarray) -> np.ndarray:
    """max_f |fl(z[f, i] - z[f, j])| for each pair (i, j) of samples and partners,
    0 where z has no row; z holds one feature per row, and taken and other
    are flat scratch of at least z's size."""
    near = np.zeros(samples.size)
    step = taken.size // max(len(z), 1)
    for start in range(0, samples.size if len(z) else 0, step):
        i, j = samples[start : start + step], partners[start : start + step]
        a, b = (g[: len(z) * i.size].reshape(len(z), i.size) for g in (taken, other))
        np.take(z, i, axis=1, out=a, mode="clip")  # "clip" skips numpy's buffered copy
        np.take(z, j, axis=1, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.abs(a, out=a)
        a.max(axis=0, out=near[start : start + step])
    return near


def _column_counts(inside: np.ndarray) -> np.ndarray:
    """True entries down each column of inside, (..., n - 1, n) planes, as int64."""
    # a column's count is at most n - 1, so it fits that type; summing bytes
    # (uint8 up to n = 256) down the columns is about four times faster than count_nonzero
    tally = np.min_scalar_type(inside.shape[-2])
    return inside.view(np.uint8).sum(axis=-2, dtype=tally).astype(np.int64)


def _carve(*layout):
    """Scratch arrays for layout, (shape, dtype) pairs, from this thread's buffer.

    The arrays lie end to end from the start of the buffer, each from an
    _ALIGN-byte boundary, so none overlaps another. Arrays of two calls may
    overlap, and the arrays that lead both have the same places in each,
    unless the later call grew the buffer: the buffer is kept between calls
    and grows to the largest layout its thread has asked for, so a caller
    that overlays makes its largest layout its first call. The arrays hold
    whatever an earlier call left, so callers write before they read.

    The pair-once scan leads each call of a pass with z and dist. Its first
    call adds the fold's scratch, plane and wrapped, and after them int16's
    own arrays. Later calls carve part, and then inside, over plane and
    wrapped, which hold at least as many bytes as part, and part at least
    as many as inside. So z and dist keep their places and values, part and
    inside overlap neither them nor int16's arrays, and neither call grows
    the buffer. Kept buffer, in bytes: at n = 256, 1,895,424 after a float64
    scan at D = 64 and 1,832,192 after an int16 scan at D = 128; at
    n = 200, 1,291,520 after the scans of a Gaussian (dims 1-64) and a
    Student-t (dims 1-32) sweep.

    Brute force and the sorted window allocate per call instead: their
    scans run 30 ms to 8 s, and kept planes would pin up to 8 * N doubles
    each.
    """
    starts, size = [], 0
    for shape, dtype in layout:
        starts.append(size)
        size += -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        _scratch.buffer = buffer = None  # freed before the larger one is taken
        raw = np.empty(size + _ALIGN, dtype=np.uint8)
        skip = -raw.ctypes.data % _ALIGN
        buffer = _scratch.buffer = raw[skip : skip + size]
    # the ndarray constructor took 0.36 against 0.64 us an array for slice, view and reshape
    return [np.ndarray(shape, dtype, buffer, at) for (shape, dtype), at in zip(layout, starts)]


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
