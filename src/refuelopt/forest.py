"""Seeded bagged regression trees.

Each tree is grown greedily by variance reduction on a bootstrap resample
(with replacement, same size as the training set), considering every
feature at every split, to a maximum depth with a minimum of two samples to
split. A split's threshold is the midpoint of the two values it separates
(halved before adding where their sum overflows), or the lower one where
that midpoint rounds up to the higher. The ensemble prediction is the mean
of the tree outputs. Everything is deterministic given (data, seed): tree
t's bootstrap is
`np.random.default_rng([seed, t]).integers(0, n, size=n)`, so parallel and
sequential training agree bit-for-bit.

A batch draws all of its trees' bootstraps in one vectorised pass that
reproduces those numpy streams word for word (`_bootstraps`): SeedSequence
mixing of the entropy words `[seed, t]` into a pool of four and
`generate_state(4, uint64)`, one lane per tree; PCG64 seeded from those
words (XSL-RR output, each state reached in one affine jump); and
Generator.integers' Lemire draw over the 32-bit halves of each output, low
half first. A word that Lemire rejects shifts the rest of its stream, so a
tree whose first n words hold a rejected one (under n²/2³² of trees) is
drawn again with `default_rng` itself.

Trees are grown level by level in numpy, a batch of trees at a time, not
node by node. As in CART presorting (Breiman et al., 1984) and XGBoost's
presorted column blocks (Chen & Guestrin, 2016), a batch keeps one index
array per feature that lists every node's rows sorted by that feature, with
their feature values and targets, plus one in bootstrap order; a node owns
the same contiguous segment of each, and a split partitions the segments
stably, so no node is sorted again. The batch is presorted by one stable
sort per feature of the integer keys `tree · n + rank`, where rank is the
dense rank of the row's value in its column of X, found once per fit.
Values that numpy's float sort ties (equal values, and -0.0 with 0.0)
share a rank, so each tree's rows come out in the stable float sort's
order. The result equals depth-first CART that argsorts each node, bit for
bit:
- a stable partition of a stable sort is the stable sort of the child, so
  each node sees its rows in the same order;
- split search pads the nodes of one level, largest first, to the largest
  size in a chunk. A pad lane repeats its node's last row, so every real
  lane's prefix sums accumulate the same operands in the same sequence; a
  node's totals are its own last real lane and `n - nl` is per node, so its
  children-SSE scores see the same operands. A pad lane ties with the lane
  before it, so the mask of tied neighbours makes it +inf, and the
  column-major argmin over (feature, lane) picks the same lowest feature,
  then lowest threshold;
- node values are sums of one `np.add.reduce(rows, axis=1)` per node size
  n, over rows that are never padded, divided by n; so each equals
  `np.mean` of its node's targets (tests/test_forest.py guards the rule).

A fitted forest is stored flat: node k has `feature[k]` (-1 for a leaf),
`threshold[k]`, children `left[k]`/`right[k]` and `value[k]`, the mean
target of its rows; `roots[t]` is tree t's root, and children always have
higher indices than their parent. `predict` walks all trees at once and
adds their outputs in tree order, one tree at a time.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

DEFAULT_N_TREES = 150
DEFAULT_MAX_DEPTH = 6
MIN_SAMPLES_SPLIT = 2
# Memory bounds, whatever the number of trees and rows: a fit's numpy
# buffers add to the process's peak memory. A batch of trees holds at most
# BATCH_ELEMENTS row positions (rows x (features + 1)); one split search
# works on at most CHUNK_ELEMENTS (nodes x features x rows, rows padded to
# the chunk's largest node), unless one node alone is larger.
BATCH_ELEMENTS = 1 << 16
CHUNK_ELEMENTS = 1 << 12
# The split search scales targets beyond 2**SCORE_EXP down below it, so that
# squares of sums of up to 2**20 targets stay finite.
SCORE_EXP = 480


@dataclass(frozen=True, eq=False)
class BaggedTrees:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    seed: int
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        rows = np.arange(len(X))
        node = np.broadcast_to(self.roots[:, None], (len(self.roots), len(X)))
        while True:
            feature = self.feature[node]
            inner = feature >= 0
            if not inner.any():
                break
            go_left = X[rows, feature] <= self.threshold[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)
        # One tree at a time, in tree order, from 0.0, as the pinned
        # predictions were summed; a pairwise reduction over trees could round
        # differently. accumulate adds row after row, and the zero row keeps
        # an all -0.0 sum at 0.0.
        outputs = np.vstack((np.zeros((1, len(X))), self.value[node]))
        return np.add.accumulate(outputs, axis=0)[-1] / len(self.roots)


def _best_splits(xv: np.ndarray, yv: np.ndarray, starts: np.ndarray,
                 sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node, in one search padded to the largest.

    Node i owns columns `starts[i] : starts[i] + sizes[i]` of the per-feature
    sorted values `xv`/`yv` (d, width). The children's summed SSE is minimised
    with ties broken on the lowest feature index, then the lowest threshold.
    Returns (feature, threshold, ok); ok is False where no split separates
    any rows.
    """
    g = len(sizes)
    pad = int(sizes.max())
    lanes = starts[:, None] + np.minimum(np.arange(pad), sizes[:, None] - 1)
    xs = np.take(xv, lanes, axis=1)  # (d, g, pad), sorted along pad
    ys = np.take(yv, lanes, axis=1)
    del lanes
    nodes = np.arange(g)
    n = sizes[:, None].astype(float)
    nl = np.arange(1.0, pad)
    # Pad lanes divide by zero (n - nl == 0) or subtract infinities; the
    # mask below overwrites every such lane with +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        csum = np.cumsum(ys, axis=2)
        csum_sq = np.cumsum(np.multiply(ys, ys, out=ys), axis=2, out=ys)
        total, total_sq = csum[:, nodes, sizes - 1, None], csum_sq[:, nodes, sizes - 1, None]
        cl, ql = csum[..., :-1], csum_sq[..., :-1]
        # (csum_sq - csum**2/nl) + (total_sq - csum_sq) - (total - csum)**2/(n - nl),
        # evaluated in that order.
        scores = np.square(cl)
        scores /= nl
        np.subtract(ql, scores, out=scores)
        right = np.subtract(total_sq, ql)
        scores += right
        np.subtract(total, cl, out=right)
        np.square(right, out=right)
        right /= n - nl
        scores -= right
    # No split between tied values; lanes at or past a node's last row are
    # pads, which tie with it (features are finite).
    np.copyto(scores, np.inf, where=xs[..., :-1] == xs[..., 1:])
    # Per node, feature-major: argmin prefers the lowest feature, then the
    # lowest threshold.
    flat = scores.transpose(1, 0, 2).reshape(g, -1)
    best = flat.argmin(axis=1)
    j, i = np.divmod(best, pad - 1)
    lo, hi = xs[j, nodes, i], xs[j, nodes, i + 1]
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    # Beyond about 9e307 the sum overflows; halve first there.
    over = np.isinf(threshold)
    threshold[over] = lo[over] / 2.0 + hi[over] / 2.0
    # A midpoint rounded up to `hi` would send every row left.
    np.copyto(threshold, lo, where=threshold == hi)
    return j, threshold, np.isfinite(flat[nodes, best])


# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# PCG64 multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 words; its constant moves on at every call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _seed_pool(entropy: list) -> list:
    """SeedSequence(entropy).pool, one lane per element of the uint32 word arrays."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


@functools.lru_cache(maxsize=16)
def _pcg_jumps(k: int) -> tuple:
    """PCG64's state j = 1..k after seeding, as A_j·init + C_j·inc mod 2¹²⁸.

    Seeding sets state = ((inc + init)·M + inc) and output j steps j more
    times, so A_j = M^(j+1) and C_j = 1 + M + ... + M^(j+1). Each is returned
    as uint64 rows (high, low, low & 2³²-1, low >> 32) of length k.
    """
    mod = (1 << 128) - 1
    a, c = _PCG_MULT ** 2 & mod, (1 + _PCG_MULT + _PCG_MULT ** 2) & mod
    jumps = []
    for _ in range(k):
        jumps.append((a, c))
        a, c = a * _PCG_MULT & mod, (c * _PCG_MULT + 1) & mod
    return tuple(np.array([[v >> 64, v & _MASK64, v & _MASK32, v >> 32 & _MASK32] for v in column],
                          dtype=np.uint64).T.copy() for column in zip(*jumps))


def _mul128(hi: np.ndarray, lo: np.ndarray, const: np.ndarray) -> tuple:
    """(hi, lo) · const mod 2¹²⁸ on uint64 halves; const as from `_pcg_jumps`."""
    c_hi, c_lo, c0, c1 = const
    a0, a1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = (a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
            + hi * c_lo + lo * c_hi)
    return high, mid << 32 | p00 & _MASK32


def _bootstraps(seed: int, trees: range, n: int) -> np.ndarray:
    """Row t - trees.start is `np.random.default_rng([seed, t]).integers(0, n, size=n)`.

    Raises as SeedSequence does: TypeError for a non-integer seed, ValueError
    for a negative one. Tree indices are below 2³², one entropy word each.
    """
    rest = operator.index(seed)
    if rest < 0:
        raise ValueError(f"expected non-negative integer, got seed {seed}")
    entropy = []
    while True:
        entropy.append(np.full(len(trees), rest & _MASK32, dtype=np.uint32))
        rest >>= 32
        if not rest:
            break
    entropy.append(np.arange(trees.start, trees.stop, dtype=np.uint32))
    # generate_state(4, uint64): eight hashed pool words, paired low word first.
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(word).astype(np.uint64)[:, None] for word in _seed_pool(entropy) * 2]
    init_hi, init_lo, seq_hi, seq_lo = (lo | hi << 32 for lo, hi in zip(words[0::2], words[1::2]))
    # PCG64: the first uint64 of each pair is the high half; inc = 2·seq + 1.
    a, c = _pcg_jumps(-(-n // 2))
    hi_a, lo_a = _mul128(init_hi, init_lo, a)
    hi_c, lo_c = _mul128(seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1, c)
    lo = lo_a + lo_c
    hi = hi_a + hi_c + (lo < lo_a)
    # XSL-RR output: (hi ^ lo) rotated right by the top six bits.
    out = hi ^ lo
    rot = hi >> 58
    out = out >> rot | out << ((64 - rot) & 63)
    # Lemire: word u maps to u·n >> 32 unless u·n mod 2³² < 2³² mod n.
    m = np.stack([out & _MASK32, out >> 32], axis=2).reshape(len(trees), -1)[:, :n] * n
    boot = (m >> 32).astype(np.int64)
    for i in np.flatnonzero(((m & _MASK32) < (1 << 32) % n).any(axis=1)):
        boot[i] = np.random.default_rng([seed, trees[i]]).integers(0, n, size=n)
    return boot


def _value_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of each value in its column of X, as int32 of X's shape.

    Ranks follow numpy's float sort of finite values. Values it ties share
    a rank: equal values, and -0.0 with 0.0.
    """
    by_value = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, by_value, axis=0)
    sorted_ranks = np.zeros(X.shape, dtype=np.int32)
    np.cumsum(xs[1:] != xs[:-1], axis=0, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, by_value, sorted_ranks, axis=0)
    return ranks


def _grow_batch(X: np.ndarray, y: np.ndarray, ranks: np.ndarray, trees: range, seed: int,
                max_depth: int, first_id: int, out: list) -> np.ndarray:
    """Grow `trees` level by level; append each level's node arrays to `out`.

    `ranks` is `_value_ranks(X)`. Nodes are numbered from `first_id` in
    level order. Returns the roots.
    """
    n, d = X.shape
    width = len(trees) * n
    boot = _bootstraps(seed, trees, n).ravel()
    # A level's nodes own consecutive column segments, in node order, of
    # every array below. Rows are positions into the batch's concatenated
    # bootstraps: order[0] lists a segment's rows in bootstrap order and
    # yb[c] is the target of row order[0, c]; order[1 + j] lists them sorted
    # by feature j (stable), and xv[j, c], yv[j, c] are the feature-j value
    # and the target of row order[1 + j, c].
    order = np.empty((d + 1, width), dtype=np.int32)
    order[0] = np.arange(width)
    yb = y.take(boot)
    xv = np.empty((d, width))
    yv = np.empty((d, width))
    # Keys tree · n + rank sort each tree's rows by feature j, stably, in one
    # sort per feature; 16-bit keys take numpy's radix sort.
    key_type = np.int16 if width < 1 << 15 else np.int32
    tree_base = np.repeat(np.arange(0, width, n, dtype=key_type), n)
    for j in range(d):
        key = ranks[:, j].astype(key_type).take(boot)
        key += tree_base
        ranked = np.argsort(key, kind="stable")
        order[1 + j] = ranked
        np.take(X[:, j], boot, out=yv[j])  # stages feature j in bootstrap order
        np.take(yv[j], ranked, out=xv[j])
        np.take(yb, ranked, out=yv[j])
    del boot, tree_base, key, ranked  # the levels' temporaries set a fit's peak memory
    top = np.abs(y).max(initial=0.0)
    if top >= 2.0 ** SCORE_EXP:  # a power of two scales every score exactly; yb is kept
        yv *= 2.0 ** (SCORE_EXP - np.frexp(top)[1])
    goes_left = np.zeros(width, dtype=bool)

    sizes = np.full(len(trees), n)
    ids = first_id + np.arange(len(trees))
    roots = ids
    depth = 0
    while len(ids):
        k = len(ids)
        starts = np.cumsum(sizes) - sizes
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        by_size = np.argsort(sizes, kind="stable")
        ordered, first = sizes[by_size], starts[by_size]
        cuts = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), k]
        sums = np.empty(k)
        for a, b in zip(cuts, cuts[1:]):
            size = int(ordered[a])
            # Every window of `size` targets as a view: sliding_window_view's checks cost more.
            windows = np.ndarray((len(yb) - size + 1, size), buffer=yb, strides=2 * yb.strides)
            np.add.reduce(windows[first[a:b]], axis=1, out=sums[a:b])
        value = np.empty(k)
        value[by_size] = sums / ordered
        if depth < max_depth:
            # Nodes with at least MIN_SAMPLES_SPLIT rows whose targets differ,
            # largest first.
            big = np.flatnonzero(sizes >= MIN_SAMPLES_SPLIT)
            used = starts[-1] + sizes[-1]
            changes = np.concatenate([[0], np.cumsum(yb[1:used] != yb[:used - 1])])
            ends = starts[big] + sizes[big] - 1
            todo = big[changes[ends] > changes[starts[big]]]
            todo = todo[np.argsort(-sizes[todo], kind="stable")]
            c = 0
            while c < len(todo):
                chunk = todo[c:c + max(1, CHUNK_ELEMENTS // (d * sizes[todo[c]]))]
                j, thr, ok = _best_splits(xv, yv, starts[chunk], sizes[chunk])
                feature[chunk[ok]], threshold[chunk[ok]] = j[ok], thr[ok]
                c += len(chunk)
        split = np.flatnonzero(feature >= 0)
        children = ids[-1] + 1 + np.arange(2 * len(split))
        left = np.full(k, -1)
        right = np.full(k, -1)
        left[split], right[split] = children[0::2], children[1::2]
        out.append((feature, threshold, left, right, value))
        if len(split):
            nl = _partition(order, xv, yv, yb, goes_left, starts[split], sizes[split],
                            feature[split], threshold[split])
            sizes = np.column_stack([nl, sizes[split] - nl]).ravel()
        ids = children
        depth += 1
    return roots


def _partition(order, xv, yv, yb, goes_left, starts, sizes, feature, threshold) -> np.ndarray:
    """Split the given nodes' segments; return each node's left-child size.

    Every array is partitioned stably inside each segment, rows going left
    first, and the segments are written back in node order from column 0,
    so the children own consecutive segments in child order.
    """
    m = int(sizes.sum())
    offsets = np.cumsum(sizes) - sizes
    rank = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.arange(m) + np.repeat(starts - offsets, sizes)
    j = feature[rank]
    goes = xv[j, cols] <= threshold[rank]
    goes_left[order[1 + j, cols]] = goes
    del j
    # 16-bit keys take numpy's radix sort.
    key = 2 * rank.astype(np.int16 if 2 * len(sizes) + 1 < 1 << 15 else np.int32)
    # np.take, not fancy indexing: it is about twice as fast on 1-d arrays.
    for r, row in enumerate(order):
        moved = cols.take(np.argsort(key + ~goes_left.take(row.take(cols)), kind="stable"))
        row[:m] = row.take(moved)
        if r:
            xv[r - 1, :m] = xv[r - 1].take(moved)
            yv[r - 1, :m] = yv[r - 1].take(moved)
        else:
            yb[:m] = yb.take(moved)
    return np.add.reduceat(goes, offsets, dtype=np.intp)


def fit_bagged_trees(X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_N_TREES,
                     max_depth: int = DEFAULT_MAX_DEPTH, seed: int = 0) -> BaggedTrees:
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or 0 in X.shape:
        raise ValueError(f"X must have at least one row and one feature, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("every feature must be finite")
    if not np.isfinite(y).all():
        raise ValueError("every target must be finite")
    # Equal batches of at most BATCH_ELEMENTS order entries each.
    per_tree = max(1, len(y) * (X.shape[1] + 1))
    n_batches = max(1, -(-n_trees * per_tree // BATCH_ELEMENTS))
    per_batch = max(1, -(-n_trees // n_batches))
    ranks = _value_ranks(X)
    levels: list = []
    roots = []
    for first in range(0, n_trees, per_batch):
        next_id = sum(len(level[0]) for level in levels)
        roots += _grow_batch(X, y, ranks, range(first, min(n_trees, first + per_batch)),
                             seed, max_depth, next_id, levels).tolist()
    return _forest([np.concatenate(c) for c in zip(*levels)], roots, seed, max_depth)


def _forest(columns, roots, seed: int, max_depth: int) -> BaggedTrees:
    """A BaggedTrees from the (feature, threshold, left, right, value) columns."""
    dtypes = (np.intp, float, np.intp, np.intp, float)
    return BaggedTrees(*(np.asarray(c, dtype=t) for c, t in zip(columns, dtypes)),
                       roots=np.asarray(roots, dtype=np.intp), seed=seed, max_depth=max_depth)


# --- persistence (model format v1: nested nodes, round-trip exact via repr'd floats)

def dump_trees(model: BaggedTrees) -> dict:
    # Children have higher indices, so building from the last node backwards
    # finds every child's object already built.
    objs: list = [None] * len(model.value)
    nodes = zip(model.feature.tolist(), model.threshold.tolist(), model.left.tolist(),
                model.right.tolist(), model.value.tolist())
    for k, (f, t, lo, hi, v) in reversed(list(enumerate(nodes))):
        objs[k] = {"v": v} if f < 0 else {"f": f, "t": t, "l": objs[lo], "r": objs[hi], "v": v}
    return {"seed": model.seed, "max_depth": model.max_depth,
            "trees": [objs[r] for r in model.roots.tolist()]}


def load_trees(obj: dict) -> BaggedTrees:
    # Breadth-first over all trees, so children get higher indices.
    nodes = list(obj["trees"])
    rows = []
    for node in nodes:  # grows while iterated
        if "f" in node:
            rows.append((node["f"], node["t"], len(nodes), len(nodes) + 1, node["v"]))
            nodes += [node["l"], node["r"]]
        else:
            rows.append((-1, 0.0, -1, -1, node["v"]))
    return _forest(list(zip(*rows)), range(len(obj["trees"])), obj["seed"], obj["max_depth"])
