"""Seeded bagged regression trees.

Each tree is grown greedily by variance reduction on a bootstrap resample
(with replacement, same size as the training set), considering every
feature at every split, to a maximum depth with a minimum of two samples to
split. The ensemble prediction is the mean of the tree outputs. Everything
is deterministic given (data, seed): tree t draws its bootstrap from a
stream seeded by (seed, t), so parallel and sequential training agree
bit-for-bit.

Trees are grown level by level in numpy, a batch of trees at a time, not
node by node. As in CART presorting (Breiman et al., 1984) and XGBoost's
presorted column blocks (Chen & Guestrin, 2016), a batch keeps one index
array per feature that lists every node's rows sorted by that feature, with
their feature values and targets, plus one in bootstrap order; a node owns
the same contiguous segment of each, and a split partitions the segments
stably, so no node is sorted again. The result equals depth-first CART that
argsorts each node, bit for bit:
- a stable partition of a stable sort is the stable sort of the child, so
  each node sees its rows in the same order;
- split search pads the nodes of one level, largest first, to the largest
  size in a chunk. A pad lane repeats its node's last row, so every real
  lane's prefix sums accumulate the same operands in the same sequence; a
  node's totals are its own last real lane and `n - nl` is per node, so its
  children-SSE scores see the same operands. Lanes with `nl >= n` are +inf
  by an explicit mask, so the column-major argmin over (feature, lane)
  picks the same lowest feature, then lowest threshold;
- node values are `np.add.reduce(rows, axis=1) / n` over same-size nodes
  (never padded: the pairwise grouping depends on the length), which equals
  `np.mean` of each row (tests/test_forest.py guards this).

A fitted forest is stored flat: node k has `feature[k]` (-1 for a leaf),
`threshold[k]`, children `left[k]`/`right[k]` and `value[k]`, the mean
target of its rows; `roots[t]` is tree t's root, and children always have
higher indices than their parent. `predict` walks all trees at once and
adds their outputs in tree order, one tree at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_N_TREES = 150
DEFAULT_MAX_DEPTH = 6
MIN_SAMPLES_SPLIT = 2
# Memory bounds, whatever the number of trees and rows: a fit's numpy
# buffers add to the process's peak memory. A batch of trees holds at most
# BATCH_ELEMENTS row positions (rows x (features + 1)); one split search or
# presort works on at most CHUNK_ELEMENTS (nodes x features x rows, rows
# padded to the chunk's largest node), unless one node alone is larger.
BATCH_ELEMENTS = 1 << 16
CHUNK_ELEMENTS = 1 << 12


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
        # One tree at a time, in tree order, as the pinned predictions were
        # summed; a pairwise reduction over trees could round differently.
        out = np.zeros(len(X))
        for tree_out in self.value[node]:
            out += tree_out
        return out / len(self.roots)


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
    # Lanes at or past a node's last row are pads; an explicit mask, since
    # NaN features make pad == pad false.
    np.copyto(scores, np.inf, where=(xs[..., :-1] == xs[..., 1:]) | (nl >= n))
    # Per node, feature-major: argmin prefers the lowest feature, then the
    # lowest threshold.
    flat = scores.transpose(1, 0, 2).reshape(g, -1)
    best = flat.argmin(axis=1)
    j, i = np.divmod(best, pad - 1)
    threshold = (xs[j, nodes, i] + xs[j, nodes, i + 1]) / 2.0
    return j, threshold, np.isfinite(flat[nodes, best])


def _grow_batch(X: np.ndarray, y: np.ndarray, trees: range, seed: int,
                max_depth: int, first_id: int, out: list) -> np.ndarray:
    """Grow `trees` level by level; append each level's node arrays to `out`.

    Nodes are numbered from `first_id` in level order. Returns the roots.
    """
    n, d = X.shape
    width = len(trees) * n
    boot = np.concatenate([np.random.default_rng([seed, t]).integers(0, n, size=n)
                           for t in trees])
    # A level's nodes own consecutive column segments, in node order, of
    # every array below. Rows are positions into the batch's concatenated
    # bootstraps: order[0] lists a segment's rows in bootstrap order and
    # yb[c] is the target of row order[0, c]; order[1 + j] lists them sorted
    # by feature j (stable), and xv[j, c], yv[j, c] are the feature-j value
    # and the target of row order[1 + j, c].
    order = np.empty((d + 1, width), dtype=np.int32)
    order[0] = np.arange(width)
    yb = y[boot]
    xv = np.empty((d, width))
    yv = np.empty((d, width))
    per_sort = max(1, CHUNK_ELEMENTS // max(1, n * d))
    for t in range(0, len(trees), per_sort):
        span = slice(t * n, (t + per_sort) * n)
        xb = X[boot[span]].reshape(-1, n, d)
        ranked = np.argsort(xb, axis=1, kind="stable")
        xv[:, span] = np.take_along_axis(xb, ranked, axis=1).transpose(2, 0, 1).reshape(d, -1)
        yv[:, span] = yb[span].reshape(-1, n)[np.arange(len(xb))[:, None, None],
                                             ranked].transpose(2, 0, 1).reshape(d, -1)
        ranked += (t + np.arange(len(xb)))[:, None, None] * n
        order[1:, span] = ranked.transpose(2, 0, 1).reshape(d, -1)
    del boot
    goes_left = np.zeros(width, dtype=bool)

    sizes = np.full(len(trees), n)
    ids = first_id + np.arange(len(trees))
    roots = ids
    depth = 0
    while len(ids):
        k = len(ids)
        starts = np.cumsum(sizes) - sizes
        value = np.empty(k)
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        # Values are summed per node size, not padded: np.add.reduce's
        # pairwise grouping depends on the length.
        by_size = np.argsort(sizes, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(sizes[by_size])) + 1).tolist(), k]
        for a, b in zip(cuts, cuts[1:]):
            sel = by_size[a:b]
            size = int(sizes[sel[0]])
            value[sel] = np.add.reduce(yb.take(starts[sel, None] + np.arange(size)), axis=1) / size
        if depth < max_depth:
            # Nodes with at least MIN_SAMPLES_SPLIT rows whose targets differ
            # (NaN differs from everything), largest first.
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
    # Equal batches of at most BATCH_ELEMENTS order entries each.
    per_tree = max(1, len(y) * (X.shape[1] + 1))
    n_batches = max(1, -(-n_trees * per_tree // BATCH_ELEMENTS))
    per_batch = max(1, -(-n_trees // n_batches))
    levels: list = []
    roots = []
    for first in range(0, n_trees, per_batch):
        next_id = sum(len(level[0]) for level in levels)
        roots += _grow_batch(X, y, range(first, min(n_trees, first + per_batch)),
                             seed, max_depth, next_id, levels).tolist()
    return _forest([np.concatenate(c) for c in zip(*levels)], roots, seed, max_depth)


def _forest(columns, roots, seed: int, max_depth: int) -> BaggedTrees:
    """A BaggedTrees from the (feature, threshold, left, right, value) columns."""
    columns = columns or [()] * 5
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
