import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refuelopt import forest
from refuelopt.forest import dump_trees, fit_bagged_trees, load_trees


def forest_case(rows):
    """Training inputs and 20 held-out rows for one pinned forest case.

    Column 1 has four tied levels, column 2 is constant and column 3 is
    rounded to one decimal, so splits meet tied values; targets are whole
    numbers, so they repeat and some nodes are constant.
    """
    rng = np.random.default_rng(rows)

    def features(k):
        return np.column_stack([rng.normal(size=k),
                                rng.integers(0, 4, size=k).astype(float),
                                np.full(k, 1.5),
                                np.round(rng.normal(size=k), 1)])

    X = features(rows)
    y = np.round(8.0 * X[:, 0] + 3.0 * X[:, 1] + rng.normal(size=rows) + 20.0)
    return X, y, features(20)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of json.dumps(dump_trees(model)) (model format v1) and of
# repr(model.predict(held_out).tolist()) for the default forest (150 trees,
# depth 6). Any change to the tree-growing or prediction arithmetic moves
# these bytes.
FOREST_DIGESTS = {
    (14, 0): ('66d66662bb4960c60d609aed0cc6a24caabced772258e9f32419dc08bee0de48',
              'a6e3d9258c9d6b8fc9d16db8890ab9e081dc7e953015e148c819bf388d719a89'),
    (14, 1): ('9dd0b52036ab4b48f2d850792e643c43b21b7cfd36d8c170f89716748cf72867',
              '37d324f90f05675f69215551c5d9e2d2a56260a452b413d5481ee148220aed7f'),
    (14, 2): ('006c3133734b573adfb3b8bac24f0b9977ad956eb55dfd35456647e8f4f7df79',
              '6fcfe87f3e66171a2b71d22c2f1d3705790acc47cfd16e23daf7d528247897da'),
    (35, 0): ('209594377c9c261d11aed7a54932cf5bc5cab995bd9b514ccd52a0e3dd45d147',
              '31806be02a52318dd606a4ae0633b2f33619d45ae56aca8f607ee5ad856863c2'),
    (35, 1): ('94af5bd93e07f443c3077b4fc478e2e63f3a3d5defd038ac7b426f9731d361ce',
              'fd749e0794523fa413e6bcab6a2ab118ddb7feb735a08b1238ae33d8b8610562'),
    (35, 2): ('419a998a5669e0f5a50333ecf744cf63f0abf90b873cba6e9bdd2ee6944c9f19',
              '6e8376d832ff887b811fa2c3d447e15e75860f7f8c3d369bf0a9bf14f4d8d5b9'),
    (42, 0): ('564cf21e06c5c18199a061b6f1bbad2d6ec7c1c945d2434b5b121a3ea24064fa',
              '787ef7d078e6016970bf100e04158ab66ec8e63cbc39357835ecde88ac6fc750'),
    (42, 1): ('d8ed1d1f12b22f77ab77713ad441be1d2b8de45fe7ccbfb46569beee2c3c1188',
              'bdc02bd707eba08978261b2251ef3dc051f56e166be8a394c4b5d6f50a403586'),
    (42, 2): ('1fa62c0aea2c947471b457ee7329a984f2d45d8d21ca6ad3d449d1157335d6b2',
              'd6f14f39b42ab9d234bb370ebc39e3b79640d5b01ee997c08733d7bc17149489'),
    (84, 0): ('8852d1ccb724b4014825737fc466ab20b4beaca6eaedb3dfaae2d7d6768d25f7',
              'e54b5cb21a71320af25162aacfad1603f90c9e29516bafbc12cf7e0a7b727662'),
    (84, 1): ('d8b56b09fffd91bc555287c0b60b0408b7ccfdff2f54fdb77375c6e03712015a',
              'e196adf279013a8b080b51830ccee0df09e68ae99fa3a9e37b29d83b9137c38a'),
    (84, 2): ('7baa4eb846e94b3329c281a89282f24665ab355e42068ca84b8dad66eca458ec',
              'a34e2d81e613454b14cf57a37fc031c2f05533576a3b277a6e7f4803e34c8859'),
    (168, 0): ('77e5a9fd7e9e7d067c966b8b01a8ee01065c5b7229d29584a26119f4a97611ce',
              '570f74ef43e2f1c4f84c9834296d8f6a171341dd8239ea9c158dac2956213366'),
    (168, 1): ('d563e570903576ef86c0d7d310dc142f087019da68385a5fff7d42b093070cd6',
              '04c9cdf983800213d9b31cefa65661a9e39e644ed904642545032d3c6c079a30'),
    (168, 2): ('4a69e6d0c167b77fa0298c44a36315b3e0a57521ca7ea7f2d4a863ecab18eff7',
              '23eb7a5edb05ab2401be02001721a5693b7c8a91c5e3858890afe422c3353209'),
}


@pytest.mark.parametrize("rows,seed", sorted(FOREST_DIGESTS), ids=str)
def test_forest_bytes_are_pinned(rows, seed):
    X, y, held_out = forest_case(rows)
    model = fit_bagged_trees(X, y, seed=seed)
    dumped = dump_trees(model)
    preds = model.predict(held_out)
    assert (sha(json.dumps(dumped)), sha(repr(preds.tolist()))) == FOREST_DIGESTS[rows, seed]
    loaded = load_trees(json.loads(json.dumps(dumped)))
    assert dump_trees(loaded) == dumped
    assert loaded.predict(held_out).tolist() == preds.tolist()


def reference_best_split(X, y):
    """(feature, threshold) of depth-first CART's best split of one node, or None."""
    n = len(y)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)[:-1]
    csum_sq = np.cumsum(ys * ys, axis=0)[:-1]
    total = csum[-1] + ys[-1]
    total_sq = csum_sq[-1] + ys[-1] ** 2
    nl = np.arange(1, n)[:, None]
    scores = (csum_sq - csum ** 2 / nl) + (total_sq - csum_sq) - (total - csum) ** 2 / (n - nl)
    scores[xs[:-1] == xs[1:]] = np.inf
    j, i = divmod(int(np.argmin(scores.T)), n - 1)
    if not np.isfinite(scores[i, j]):
        return None
    lo, hi = float(xs[i, j]), float(xs[i + 1, j])
    total = lo + hi
    mid = lo / 2.0 + hi / 2.0 if math.isinf(total) else total / 2.0
    return j, lo if mid == hi else mid


def reference_forest(X, y, n_trees, max_depth, seed):
    """dump_trees output of depth-first CART that argsorts every node."""
    def grow(X, y, depth):
        value = float(np.mean(y))
        split = (None if depth >= max_depth or len(y) < 2 or np.all(y == y[0])
                 else reference_best_split(X, y))
        if split is None:
            return {"v": value}
        j, thr = split
        mask = X[:, j] <= thr
        return {"f": j, "t": thr, "l": grow(X[mask], y[mask], depth + 1),
                "r": grow(X[~mask], y[~mask], depth + 1), "v": value}

    trees = []
    for t in range(n_trees):
        idx = np.random.default_rng([seed, t]).integers(0, len(y), size=len(y))
        trees.append(grow(X[idx], y[idx], 0))
    return {"seed": seed, "max_depth": max_depth, "trees": trees}


def reference_predict(dumped, X):
    out = []
    for x in X:
        total = 0
        for node in dumped["trees"]:
            while "f" in node:
                node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
            total += node["v"]
        out.append(total / len(dumped["trees"]))
    return out


# Few distinct values, so features and targets tie; -0.0 ties with 0.0 in
# the float sort; 1 + 2**-52 and 1 + 2**-51 are adjacent floats whose
# midpoint rounds up to the larger one, where a midpoint threshold would send
# every row of a node left.
forest_values = st.sampled_from([-3.0, -0.0, 0.0, 1.0, 1.0 + 2 ** -52, 1.0 + 2 ** -51, 2.5,
                                 1e6])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_forest_matches_depth_first_cart(d, data):
    n = data.draw(st.integers(1, 30))
    X = np.array(data.draw(st.lists(st.lists(forest_values, min_size=d, max_size=d),
                                    min_size=n + 5, max_size=n + 5)))
    y = np.array(data.draw(st.lists(st.one_of(forest_values, st.floats(-50, 50)),
                                    min_size=n, max_size=n)))
    n_trees, max_depth, seed = (data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6)),
                                data.draw(st.integers(0, 3)))
    model = fit_bagged_trees(X[:n], y, n_trees=n_trees, max_depth=max_depth, seed=seed)
    preds = model.predict(X[n:])
    expected = reference_forest(X[:n], y, n_trees, max_depth, seed)
    assert json.dumps(dump_trees(model)) == json.dumps(expected)
    assert repr(preds.tolist()) == repr(reference_predict(expected, X[n:]))


def test_value_ranks_tie_as_the_float_sort_does():
    X = np.array([[0.0, 2.0], [-0.0, 1.0], [5.0, 1.0], [1.0, -0.0], [-0.0, 5.0],
                  [5.0, 0.0], [-7.0, 2.0], [1.0, 0.0], [3.0, -1.0]])
    ranks = forest._value_ranks(X)
    assert ranks.T.tolist() == [[1, 1, 4, 2, 1, 4, 0, 2, 3], [3, 2, 2, 1, 4, 1, 3, 1, 0]]
    rows = np.random.default_rng(0).integers(0, len(X), size=200)
    for j in range(2):
        assert (np.argsort(ranks[rows, j], kind="stable").tolist()
                == np.argsort(X[rows, j], kind="stable").tolist())


def test_wide_batch_matches_depth_first_cart():
    # The first batch holds two trees of 20000 rows, so its sort keys pass
    # 2**15 - 1 and need 32 bits.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20000, 1))
    tied = rng.random(len(X)) < 0.3
    X[tied, 0] = rng.choice([-0.0, 0.0, 1.5], size=tied.sum())
    y = np.round(rng.normal(size=len(X)) * 4.0) + 3.0 * X[:, 0]
    model = fit_bagged_trees(X, y, n_trees=3, max_depth=3, seed=0)
    expected = reference_forest(X, y, 3, 3, 0)
    assert json.dumps(dump_trees(model)) == json.dumps(expected)


def test_empty_child_matches_depth_first_cart():
    # The midpoint of the two adjacent floats rounds up to the larger one; a
    # split there must still leave rows on both sides, so no leaf is a 0/0.
    X = np.array([[1.0], [1.0 + 2 ** -51], [1.0 + 2 ** -52]] * 2)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    model = fit_bagged_trees(X, y, n_trees=4, seed=1)
    dumped = json.dumps(dump_trees(model))
    assert "NaN" not in dumped
    assert dumped == json.dumps(reference_forest(X, y, 4, 6, 1))
    a, b = 1 + 2 ** -52, 1 + 2 ** -51
    pair = fit_bagged_trees(np.array([[a], [b]] * 4), np.array([0.0, 1.0] * 4),
                            n_trees=3, max_depth=2, seed=0)
    assert np.isfinite(pair.predict([[1.5], [a], [b]])).all()
    assert pair.predict([[1.5]])[0] == pair.predict([[b]])[0]


def test_huge_features_split_at_a_finite_midpoint():
    # Beyond about 9e307 the sum of two features overflows; the threshold is
    # then halved first, so it still separates them, with no warning.
    y = np.array([0.0, 1.0] * 4)
    for sign in (1.0, -1.0):
        X = sign * np.array([[1e308], [1.5e308]] * 4)
        one = fit_bagged_trees(X, y, n_trees=1, seed=0)
        assert one.threshold[one.feature >= 0].tolist() == [sign * 1.25e308]
        assert one.predict(X[:2]).tolist() == [0.0, 1.0]
        model = fit_bagged_trees(X, y, n_trees=20, seed=0)
        assert np.isfinite(model.threshold[model.feature >= 0]).all()
        assert not np.isnan(model.predict(X[:2])).any()
        assert json.dumps(dump_trees(model)) == json.dumps(reference_forest(X, y, 20, 6, 0))


def test_huge_targets_split_as_scaled_ones():
    # Split scores square the targets: past about 1.3e154 they overflowed and
    # no tree split. Scaled down by a power of two, such targets split as the
    # same targets / 1e200 do, and the leaves keep their scale.
    y = np.array([0.0, 0.0, 1e200, 1e200] * 2)
    for X in (np.arange(8.0)[:, None], np.array([[0.0, 5], [1, 3], [2, 2], [3, 7], [4, 1],
                                                  [5, 0], [6, 4], [7, 6]])):
        huge = fit_bagged_trees(X, y, n_trees=20, seed=0)
        small = fit_bagged_trees(X, y / 1e200, n_trees=20, seed=0)
        assert (huge.feature >= 0).any()
        assert huge.feature.tolist() == small.feature.tolist()
        assert huge.threshold.tolist() == small.threshold.tolist()
        np.testing.assert_allclose(huge.value / 1e200, small.value, rtol=1e-15)


def test_predict_sums_trees_in_order_from_zero():
    # Leaves of both signs from 1e-300 to 1e300, -0.0 among them: the sum
    # must be the tree-order loop from 0.0, byte for byte.
    rng = np.random.default_rng(7)
    X, y, held_out = forest_case(35)
    model = fit_bagged_trees(X, y, seed=0)
    scale = rng.choice([-1.0, 1.0], size=model.value.shape) * 10.0 ** rng.integers(
        -300, 301, size=model.value.shape)
    value = model.value * scale
    value[rng.random(len(value)) < 0.3] = -0.0
    for values in (value, np.full_like(value, -0.0)):
        mixed = forest.BaggedTrees(model.feature, model.threshold, model.left, model.right,
                                   values, model.roots, model.seed, model.max_depth)
        expected = reference_predict(dump_trees(mixed), held_out)
        assert mixed.predict(held_out).tobytes() == np.array(expected).tobytes()


def test_node_means_match_np_mean():
    # Node values are np.add.reduce(rows, axis=1) / n over nodes of one size
    # class, each row padded with -0.0 to its class's lanes; the pinned bytes
    # rely on that equalling np.mean of each unpadded row, which a numpy
    # release could change by summing in another order.
    rng = np.random.default_rng(0)
    sizes = np.arange(1, 257)
    for n, lanes in zip(sizes.tolist(), forest._sum_lanes(sizes).tolist()):
        rows = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-8, 9, size=(4, n))
        rows[1, rng.random(n) < 0.3] = -0.0
        rows[2] = rng.choice([-0.0, 0.0], size=n)
        rows[3] = -0.0
        padded = np.full((4, lanes), -0.0)
        padded[:, :n] = rows
        for summed in (rows, padded):
            assert ((np.add.reduce(summed, axis=1) / n).tobytes()
                    == np.array([np.mean(r) for r in rows]).tobytes()), (n, lanes)


@pytest.mark.parametrize("chunk", [64, 1 << 20])
def test_forest_bytes_do_not_depend_on_chunking(monkeypatch, chunk):
    # 64 searches one node at a time; 1 << 20 pads a whole level into one search.
    monkeypatch.setattr(forest, "CHUNK_ELEMENTS", chunk)
    for rows, seed in sorted(FOREST_DIGESTS):
        test_forest_bytes_are_pinned(rows, seed)


@pytest.mark.parametrize("kwargs", [{"n_trees": 0}, {"n_trees": -2}, {"max_depth": -1}])
def test_fit_rejects_empty_forest_and_negative_depth(kwargs):
    X, y, _ = forest_case(14)
    with pytest.raises(ValueError, match="must be >= "):
        fit_bagged_trees(X, y, **kwargs)


@pytest.mark.parametrize("shape", [(0, 3), (5, 0)])
def test_fit_rejects_empty_input_with_its_shape(shape):
    with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
        fit_bagged_trees(np.empty(shape), np.zeros(shape[0]))


def default_rng_rows(seed, trees, n):
    return [np.random.default_rng([seed, t]).integers(0, n, size=n).tolist() for t in trees]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 3) | st.integers(1 << 32, 1 << 130), first=st.integers(0, 500),
       count=st.integers(1, 6), n=st.integers(1, 3000))
@example(seed=0, first=0, count=150, n=35)
@example(seed=(1 << 32) + 5, first=100, count=50, n=168)
def test_bootstraps_match_default_rng(seed, first, count, n):
    trees = range(first, first + count)
    boot = forest._bootstraps(seed, trees, n)
    assert boot.dtype == np.int64
    assert boot.tolist() == default_rng_rows(seed, trees, n)


def test_rejected_word_redraws_its_tree(monkeypatch):
    # Tree 3831 of seed 1, found by search: one of the first 1000 32-bit words
    # of its PCG64 stream (low half of each output first) is one that
    # Lemire's bounded draw rejects, which shifts the rest of its bootstrap.
    n = 1000
    raw = np.random.default_rng([1, 3831]).bit_generator.random_raw(n // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    assert ((words * n) % (1 << 32) < (1 << 32) % n).any()
    expected = default_rng_rows(1, range(3830, 3833), n)
    real = np.random.default_rng
    redrawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda s: redrawn.append(s) or real(s))
    assert forest._bootstraps(1, range(3830, 3833), n).tolist() == expected
    assert redrawn == [[1, 3831]]


@pytest.mark.parametrize("rows,seed", [(35, 1), (168, 2)], ids=str)
def test_fit_draws_without_generators(monkeypatch, rows, seed):
    X, y, _ = forest_case(rows)

    def no_generator(*args):
        raise AssertionError("a Generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model = fit_bagged_trees(X, y, seed=seed)
    assert sha(json.dumps(dump_trees(model))) == FOREST_DIGESTS[rows, seed][0]


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError)])
def test_fit_rejects_bad_seed_as_numpy_does(seed, error):
    with pytest.raises(error):
        np.random.default_rng([seed, 0])
    X, y, _ = forest_case(14)
    with pytest.raises(error):
        fit_bagged_trees(X, y, seed=seed)


def test_fit_memory_stays_bounded():
    # A fit's numpy buffers add to the benchmark's peak RSS, which has a 5 %
    # bound; this fit peaks at ≈1.1 MB with numpy 2.4.
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=35), rng.integers(0, 7, size=35),
                         rng.normal(size=(35, 3))])
    y = np.round(8.0 * X[:, 0] + rng.normal(size=35) + 20.0)
    fit_bagged_trees(X, y)
    tracemalloc.start()
    try:
        fit_bagged_trees(X, y, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def crafted_level():
    """Nodes of sizes 2..35 with three features and whole-number targets.

    Features 0 and 1 end in a run of one value (feature 1's largest), so a
    node's last real lanes tie as its pad lanes do, and one equality mask
    must score both +inf.
    """
    rng = np.random.default_rng(11)
    nodes = []
    for n in range(2, 36):
        tail = n // 3
        x0 = np.concatenate([rng.normal(size=n - tail), np.full(tail, 4.0)])
        x1 = np.concatenate([rng.integers(0, 5, size=n - tail - 1).astype(float),
                             np.full(tail + 1, 9.0)])
        X = np.column_stack([x0, x1, np.round(rng.normal(size=n), 1)])
        perm = rng.permutation(n)
        nodes.append((X[perm], np.round(rng.normal(size=n) * 4.0)))
    return nodes


def test_padded_level_search_matches_depth_first_cart():
    nodes = crafted_level()
    sizes = np.array([len(y) for _, y in nodes])
    starts = np.cumsum(sizes) - sizes
    xv = np.concatenate([np.take_along_axis(X, np.argsort(X, axis=0, kind="stable"), axis=0)
                         for X, _ in nodes]).T.copy()
    yv = np.concatenate([y[np.argsort(X, axis=0, kind="stable")] for X, y in nodes]).T.copy()
    # One search pads all 34 nodes to 35 lanes, largest first as a level is searched.
    by_size = np.argsort(-sizes, kind="stable")
    j, thr, ok = forest._best_splits(xv, yv, starts[by_size], sizes[by_size])
    got = [(int(f), float(t)) if good else None for f, t, good in zip(j, thr, ok)]
    expected = [reference_best_split(*nodes[k]) for k in by_size]
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("X", [[[0.0], [1.0], [np.nan], [np.nan], [2.0], [np.nan]],
                               [[-np.inf], [np.inf]] * 3], ids=["nan", "inf"])
def test_non_finite_features_are_refused(X):
    # A NaN feature would split at a NaN threshold, which sends every row
    # right and leaves an empty child with a NaN value.
    with pytest.raises(ValueError, match="^every feature must be finite$"):
        fit_bagged_trees(X, [0.0, 1.0, 5.0, 6.0, 2.0, 7.0], n_trees=5, seed=0)


@pytest.mark.parametrize("y", [[0.0, np.nan, 1.0, 2.0], [0.0, 1.0, np.inf, 2.0]],
                         ids=["nan", "inf"])
def test_non_finite_targets_are_refused(y):
    # A NaN target would make every node mean above it NaN, and with it
    # every prediction.
    with pytest.raises(ValueError, match="^every target must be finite$"):
        fit_bagged_trees([[0.0], [1.0], [2.0], [3.0]], y, n_trees=3, seed=0)
