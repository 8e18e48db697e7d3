"""Seeded bagged regression trees.

Each tree is grown greedily by variance reduction on a bootstrap resample
(with replacement, same size as the training set), considering every
feature at every split, to a maximum depth with a minimum of two samples to
split. The ensemble prediction is the mean of the tree outputs. Everything
is deterministic given (data, seed): tree t draws its bootstrap from a
stream seeded by (seed, t), so parallel and sequential training agree
bit-for-bit.

Trees are grown level by level in numpy, a batch of trees at a time, not
node by node. As in CART presorting (Breiman et al., 1984), a batch keeps
one index array per feature that lists every node's rows sorted by that
feature, plus one in bootstrap order; a node owns the same contiguous
segment of each, and a split partitions the segments stably, so no node is
sorted again. The result equals depth-first CART that argsorts each node,
bit for bit:
- a stable partition of a stable sort is the stable sort of the child, so
  each node sees its rows in the same order;
- split search is batched over the nodes of one level that have exactly
  the same size (never padded), so each node's prefix sums, children-SSE
  scores and column-major argmin see the same operands, accumulated in the
  same sequence;
- node values are `np.add.reduce(rows, axis=1) / n` over same-size nodes,
  which equals `np.mean` of each row (tests/test_forest.py guards this).

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
# presort works on at most CHUNK_ELEMENTS (nodes x features x rows).
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


def _best_splits(XT: np.ndarray, y: np.ndarray, boot: np.ndarray, order: np.ndarray,
                 pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node whose segment positions are `pos`.

    `pos` is (nodes, n) for nodes of one size n. The children's summed SSE is
    minimised with ties broken on the lowest feature index, then the lowest
    threshold. Returns (feature, threshold, ok); ok is False where no split
    separates any rows.
    """
    g, n = pos.shape
    features = np.arange(len(XT))[:, None]
    rows = boot[order[1:][features, pos[:, None, :]]]  # (g, d, n), sorted along n
    xs = XT[features, rows]
    ys = y[rows]
    del rows
    csum = np.cumsum(ys, axis=2)
    csum_sq = np.cumsum(np.multiply(ys, ys, out=ys), axis=2, out=ys)
    nl = np.arange(1.0, n)
    cl, ql = csum[..., :-1], csum_sq[..., :-1]
    # (csum_sq - csum**2/nl) + (total_sq - csum_sq) - (total - csum)**2/(n - nl),
    # evaluated in that order.
    scores = np.square(cl)
    scores /= nl
    np.subtract(ql, scores, out=scores)
    right = np.subtract(csum_sq[..., -1:], ql)
    scores += right
    np.subtract(csum[..., -1:], cl, out=right)
    np.square(right, out=right)
    right /= n - nl
    scores -= right
    np.copyto(scores, np.inf, where=xs[..., :-1] == xs[..., 1:])
    flat = scores.reshape(g, -1)
    best = flat.argmin(axis=1)
    nodes = np.arange(g)
    j, i = np.divmod(best, n - 1)
    threshold = (xs[nodes, j, i] + xs[nodes, j, i + 1]) / 2.0
    return j, threshold, np.isfinite(flat[nodes, best])


def _grow_batch(X: np.ndarray, y: np.ndarray, trees: range, seed: int,
                max_depth: int, first_id: int, out: list) -> np.ndarray:
    """Grow `trees` level by level; append each level's node arrays to `out`.

    Nodes are numbered from `first_id` in level order. Returns the roots.
    """
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    boot = np.concatenate([np.random.default_rng([seed, t]).integers(0, n, size=n)
                           for t in trees])
    # Positions index the batch's concatenated bootstraps. order[0] lists
    # them in bootstrap order, order[1 + j] sorted by feature j (stable).
    order = np.empty((d + 1, len(boot)), dtype=np.int32)
    order[0] = np.arange(len(boot))
    per_sort = max(1, CHUNK_ELEMENTS // max(1, n * d))
    for t in range(0, len(trees), per_sort):
        span = slice(t * n, (t + per_sort) * n)
        ranked = np.argsort(X[boot[span]].reshape(-1, n, d), axis=1, kind="stable")
        ranked += (t + np.arange(len(ranked)))[:, None, None] * n
        order[1:, span] = ranked.transpose(2, 0, 1).reshape(d, -1)
    goes_left = np.zeros(len(boot), dtype=bool)

    starts = np.arange(len(trees)) * n
    sizes = np.full(len(trees), n)
    ids = first_id + np.arange(len(trees))
    roots = ids
    depth = 0
    while len(ids):
        k = len(ids)
        value = np.empty(k)
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        n_left = np.zeros(k, dtype=np.intp)
        # Not np.unique: its first call alone maps ~1.5 MB (numpy 2.4).
        for size in sorted(set(sizes.tolist())):
            sel = np.flatnonzero(sizes == size)
            pos = starts[sel, None] + np.arange(size)
            y_node = y[boot[order[0, pos]]]
            value[sel] = np.add.reduce(y_node, axis=1) / size
            if depth >= max_depth or size < MIN_SAMPLES_SPLIT:
                continue
            varied = ~(y_node == y_node[:, :1]).all(axis=1)
            sel, pos = sel[varied], pos[varied]
            step = max(1, CHUNK_ELEMENTS // (d * size))
            for c in range(0, len(sel), step):
                csel, cpos = sel[c:c + step], pos[c:c + step]
                j, thr, ok = _best_splits(XT, y, boot, order, cpos)
                csel, cpos, j, thr = csel[ok], cpos[ok], j[ok], thr[ok]
                rows = order[0, cpos]
                goes = XT[j[:, None], boot[rows]] <= thr[:, None]
                goes_left[rows] = goes
                feature[csel], threshold[csel] = j, thr
                n_left[csel] = goes.sum(axis=1)
                # Stable partition of every order row inside each segment.
                segment = order[:, cpos].reshape(-1, size)
                moved = np.argsort(~goes_left[segment], axis=1, kind="stable")
                lanes = np.arange(len(segment))[:, None]
                order[:, cpos] = segment[lanes, moved].reshape(d + 1, -1, size)
        split = np.flatnonzero(feature >= 0)
        children = ids[-1] + 1 + np.arange(2 * len(split))
        left = np.full(k, -1)
        right = np.full(k, -1)
        left[split], right[split] = children[0::2], children[1::2]
        out.append((feature, threshold, left, right, value))
        nl = n_left[split]
        starts = np.column_stack([starts[split], starts[split] + nl]).ravel()
        sizes = np.column_stack([nl, sizes[split] - nl]).ravel()
        ids = children
        depth += 1
    return roots


def fit_bagged_trees(X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_N_TREES,
                     max_depth: int = DEFAULT_MAX_DEPTH, seed: int = 0) -> BaggedTrees:
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
