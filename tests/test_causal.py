import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (_impurity_gain_sweep, binomial_3sigma, reference_cell_keys,
                      reference_fit_cart, reference_fit_causal_tree, tree_leaf, tree_leaves)
from conftest import make_dataset
from fairmatch import causal, core, ope, synth


def score_tree(cuts):
    """Stub decision tree that splits the score axis at the given thresholds."""
    def build(lo_idx, cuts_left):
        if not cuts_left:
            return causal.TreeNode(value=0.0, count=1)
        node = causal.TreeNode(0, cuts_left[0],
                               causal.TreeNode(value=0.0, count=1),
                               build(lo_idx + 1, cuts_left[1:]))
        return node
    root = build(0, sorted(cuts))
    return causal.DecisionTree(root, "binary-regression", 1)


def stub_causal_tree(cuts, resource="b"):
    return causal.CausalTree(score_tree(cuts), resource, "a", True, 1, "score")


class TestFitCart:
    def test_separable_data_pure_leaves(self):
        X = np.array([[0.0]] * 50 + [[1.0]] * 50)
        y = np.array([0] * 50 + [1] * 50)
        tree = causal.fit_cart(X, y, "multiclass", {"min_node_size": 10})
        assert tree.n_leaves == 2
        probs = tree.predict(np.array([[0.0], [1.0]]))
        # Laplace smoothing keeps probabilities strictly inside (0, 1)
        assert probs[0][0] > 0.95 and probs[1][1] > 0.95

    def test_constant_target_single_leaf(self):
        X = np.linspace(0, 1, 30)[:, None]
        y = np.full(30, 7.0)
        tree = causal.fit_cart(X, y, "binary-regression", {"min_node_size": 5})
        assert tree.n_leaves == 1
        assert tree.predict(np.array([[0.5]]))[0] == 7.0

    def test_step_function_threshold_recovery(self):
        grid = np.linspace(0, 1, 200)
        y = (grid > 0.4).astype(float)
        tree = causal.fit_cart(grid[:, None], y, "binary-regression",
                               {"min_node_size": 5})
        cut = tree.root.threshold
        step = grid[1] - grid[0]
        assert abs(cut - 0.4) <= step + 1e-9

    def test_min_node_size_enforced(self):
        X = np.linspace(0, 1, 10)[:, None]
        with pytest.raises(ValueError):
            causal.fit_cart(X, np.zeros(10), "binary-regression",
                            {"min_node_size": 8})


    def test_threshold_between_adjacent_floats(self):
        # the midpoint of these neighbours rounds to 1.0 itself
        X = np.array([[np.nextafter(1.0, 0.0)], [1.0], [2.0]])
        tree = causal.fit_cart(X, np.array([0.0, 1.0, 1.0]), "binary-regression", {})
        assert tree.root.threshold == X[0, 0]
        assert tree.predict(X).tolist() == [0.0, 1.0, 1.0]
        X = np.array([[np.nextafter(1.0, 0.0)], [1.0]])
        tree = causal.fit_cart(X, np.array([0, 1]), "multiclass", {})
        assert tree.leaf_ids(X).tolist() == [0, 1]

    @pytest.mark.parametrize("top", [True, False])
    def test_memory_not_held_along_the_path(self, top):
        """Twelve pure blocks of 60 rows at one end of 20k one-feature rows,
        the rest of random classes, make a path of ten nodes that each split
        off one block, so every node on it holds nearly all the rows. A node
        frees its split-search arrays, rows and orders before its children
        grow, so the peak is about the root's own search: 2.9 MB traced,
        against 8.7 MB when every ancestor on the path kept its arrays. The
        bound, 200 bytes a row, is 4 MB."""
        n, m = 20_000, 60
        y = np.random.default_rng(0).integers(0, 3, n)
        blocks = np.repeat(np.arange(12) % 3, m)
        if top:
            y[n - len(blocks):] = blocks
        else:
            y[:len(blocks)] = blocks
        tracemalloc.start()
        try:
            tree = causal.fit_cart(np.arange(n, dtype=float)[:, None], y, "multiclass",
                                   {"min_node_size": 50, "max_depth": 10})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.n_leaves == 11
        assert peak < 200 * n

    def test_unknown_params_rejected(self):
        X = np.linspace(0, 1, 10)[:, None]
        for key in ("min_impurity_decrease", "min_node_sise"):
            with pytest.raises(ValueError, match=key):
                causal.fit_cart(X, np.zeros(10), "binary-regression", {key: 0.0})


@st.composite
def _design(draw, n_min=2):
    """Rows on a grid of sixty-fourths (many ties), sometimes with a constant
    column. Midpoints of grid values are exact; the reference growers put a
    threshold on the upper of two adjacent floats, see
    ``test_threshold_between_adjacent_floats``."""
    n = draw(st.integers(n_min, 60))
    n_features = draw(st.integers(1, 3))
    cols = []
    for _ in range(n_features):
        if draw(st.integers(0, 4)) == 0:
            cols.append(np.full(n, draw(st.sampled_from(_GRID))))
        else:
            cols.append(np.array(draw(st.lists(st.integers(-64, 64).map(lambda k: k / 64),
                                               min_size=n, max_size=n))))
    return np.column_stack(cols)


_DEPTHS = st.none() | st.integers(0, 4)


def _dumps(tree):
    # json text, so NaN leaf values compare equal to themselves
    return json.dumps(causal.tree_to_json(tree))


class TestGrowerMatchesReference:
    """The shared grower reproduces the earlier CART and causal-tree growers
    bit for bit (see ``_oracles.reference_fit_cart``)."""

    @given(X=_design(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cart(self, X, data):
        n = len(X)
        kind = data.draw(st.sampled_from(["multiclass", "binary-regression"]))
        if kind == "multiclass":
            # from 8 classes up, numpy sums a row of Gini terms pairwise
            labels = data.draw(st.sampled_from([["SO", "RRH", "PSH", "x"], [0, 1, 2, 7],
                                                list(range(11))]))
            pool = labels[:data.draw(st.integers(1, len(labels)))]
            y = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        else:
            values = st.sampled_from([0.0, 1.0, 0.5, -2.25]) | st.floats(-3, 3)
            y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        params = {"min_node_size": data.draw(st.integers(1, max(1, n // 2))),
                  "max_depth": data.draw(_DEPTHS)}
        assert _dumps(causal.fit_cart(X, y, kind, params)) == \
            _dumps(reference_fit_cart(X, y, kind, params))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_gini_scores(self, data):
        # the trees above seldom turn on the last bit of a score, and from 8
        # classes up numpy sums a row of Gini terms pairwise
        n_classes = data.draw(st.integers(1, 13))
        ys = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                         min_size=2, max_size=300)))
        cum = np.cumsum((ys[:, None] == np.arange(n_classes)).astype(float), axis=0)
        scores, _ = causal._Gini(1, n_classes).scores(ys)
        assert np.array_equal(scores, _impurity_gain_sweep(None, cum, cum[-1], len(ys),
                                                           "multiclass"))

    @given(X=_design(n_min=4), data=st.data())
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
    def test_causal_tree(self, X, data):
        n = len(X)
        arms = data.draw(st.lists(st.sampled_from(["a", "b"]), min_size=n - 2, max_size=n - 2))
        treat = np.array(["a", "b"] + arms, dtype=object)
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        ds = core.Dataset(X, X[:, 0], {}, treat, y, np.arange(n, dtype=float),
                          ["a", "b"], [f"f{j}" for j in range(X.shape[1])])
        params = {"min_node_size": data.draw(st.integers(1, 4)),
                  "max_depth": data.draw(_DEPTHS), "honest": data.draw(st.booleans())}
        features = data.draw(st.sampled_from(["all", "score"]))
        seed = data.draw(st.integers(0, 3))
        new = _dumps(causal.fit_causal_tree(ds, "b", params, features, seed).tree)
        ref = _dumps(reference_fit_causal_tree(ds, "b", params, features, seed).tree)
        if "NaN" in ref:
            # the reference keeps NaN where neither honest half holds both arms
            assert "NaN" not in new
        else:
            assert new == ref

    def test_rounding_gain_does_not_split(self):
        # three copies of one block: every child has the parent's effect, and
        # rounding leaves a gain of about 9e-16, under the 1e-12 minimum
        block = [("a", 1), ("a", 1), ("a", 0), ("b", 0), ("b", 0)]
        ds = make_dataset([float(x) for x in range(3) for _ in block],
                          [t for _ in range(3) for t, _ in block],
                          [y for _ in range(3) for _, y in block])
        params = {"min_node_size": 1, "honest": False}
        tree = causal.fit_causal_tree(ds, "b", params, "score")
        assert tree.n_leaves == 1
        assert _dumps(tree.tree) == _dumps(reference_fit_causal_tree(ds, "b", params,
                                                                     "score").tree)

    def test_unknown_params_rejected(self):
        ds = make_dataset([0.1, 0.2, 0.3, 0.4] * 5, ["a", "b"] * 10, [0, 1] * 10)
        for key in ("split_fraction", "min_node_sise"):
            with pytest.raises(ValueError, match=key):
                causal.fit_causal_tree(ds, "b", {key: 0.5}, "score", 0)


# Thresholds and row values share a grid, so rows often sit exactly on a threshold.
_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@st.composite
def _random_tree_and_rows(draw):
    n_features = draw(st.integers(1, 3))
    multiclass = draw(st.booleans())

    def grow(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            if multiclass:
                return causal.TreeNode(value=np.array(
                    draw(st.lists(st.floats(0, 1), min_size=3, max_size=3))))
            return causal.TreeNode(value=draw(st.floats(-1, 1)))
        return causal.TreeNode(draw(st.integers(0, n_features - 1)),
                               draw(st.sampled_from(_GRID)), grow(depth - 1), grow(depth - 1))

    tree = causal.DecisionTree(grow(draw(st.integers(0, 5))),
                               "multiclass" if multiclass else "binary-regression",
                               n_features, ["a", "b", "c"] if multiclass else None)
    values = st.sampled_from(_GRID) | st.floats(-1.5, 1.5)
    rows = draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features),
                         max_size=25))
    return tree, np.array(rows, dtype=float).reshape(len(rows), n_features)


class TestTreeWalk:
    @given(case=_random_tree_and_rows(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_descent(self, case, data):
        tree, X = case
        leaves = tree_leaves(tree.root)
        reached = [tree_leaf(tree.root, x) for x in X]
        expected_ids = [next(i for i, leaf in enumerate(leaves) if leaf is r)
                        for r in reached]
        ids = tree.leaf_ids(X)
        pred = tree.predict(X)
        assert tree.n_leaves == len(leaves)
        assert ids.tolist() == expected_ids
        n_classes = (len(tree.classes),) if tree.classes else ()
        assert pred.shape == (len(X),) + n_classes
        for p, r in zip(pred, reached):
            assert np.array_equal(p, r.value)
        # a row's leaf does not depend on which other rows are in X
        perm = np.array(data.draw(st.permutations(range(len(X)))), dtype=int)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(X),
                                           max_size=len(X))), dtype=bool)
        for sub in (perm, keep):
            assert np.array_equal(tree.leaf_ids(X[sub]), ids[sub])
            assert np.array_equal(tree.predict(X[sub]), pred[sub])


class TestNuisanceModels:
    def test_zero_rows_keep_their_shape(self):
        ds = make_dataset([0.1, 0.2, 0.3, 0.4] * 5, ["a", "b"] * 10, [0, 1] * 10)
        prop = causal.fit_propensity(ds, {"min_node_size": 2}, "score")
        out = causal.fit_outcome(ds, {"min_node_size": 2}, "score")
        empty = np.zeros((0, 1))
        assert prop.predict_proba(empty).shape == (0, 2)
        assert out.predict(empty, "a").shape == (0,)

    def test_propensity_recovers_generator_table(self):
        ds = synth.generate(synth.SynthParams(n=30_000, seed=0))
        prop = causal.fit_propensity(ds, {"min_node_size": 2000, "max_depth": 6},
                                     "score")
        for s, expected in [(-0.3, (0.3, 0.3, 0.4)), (0.1, (0.3, 0.4, 0.3)),
                            (0.6, (0.3, 0.2, 0.5))]:
            probs = prop.predict_proba(np.array([[s]]))[0]
            for p, e in zip(probs, expected):
                assert abs(p - e) < 0.04

    def test_propensity_rows_sum_to_one(self):
        ds = synth.generate(synth.SynthParams(n=5_000, seed=1))
        prop = causal.fit_propensity(ds, {"min_node_size": 50}, "score")
        probs = prop.predict_proba(ds.features)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_propensity_never_exactly_zero(self):
        ds = synth.generate(synth.SynthParams(n=5_000, seed=2))
        prop = causal.fit_propensity(ds, {"min_node_size": 50}, "score")
        assert prop.predict_proba(ds.features).min() > 0.0

    def test_unobserved_resource_rejected(self):
        ds = make_dataset([0.1, 0.2, 0.3, 0.4], ["a"] * 4, [0, 1, 0, 1],
                          resources=("a", "b"))
        with pytest.raises(ValueError):
            causal.fit_propensity(ds, {"min_node_size": 1}, "score")

    def test_outcome_baseline_near_zero(self):
        ds = synth.generate(synth.SynthParams(n=20_000, seed=3))
        out = causal.fit_outcome(ds, {"min_node_size": 50}, "score")
        preds = out.predict(ds.features, "SO")
        assert np.max(preds) == 0.0

    def test_outcome_recovers_step_profile(self):
        ds = synth.generate(synth.SynthParams(n=40_000, seed=4))
        out = causal.fit_outcome(ds, {"min_node_size": 1000, "max_depth": 6},
                                 "score")
        for s, expected in [(0.1, 0.6), (0.4, 0.2), (0.8, 0.6)]:
            pred = out.predict(np.array([[s]]), "PSH")[0]
            assert abs(pred - expected) < binomial_3sigma(expected, 1000)

    def test_constant_outcome(self):
        ds = make_dataset([0.1, 0.2, 0.3, 0.4] * 5, ["a", "b"] * 10, [1] * 20)
        out = causal.fit_outcome(ds, {"min_node_size": 2}, "score")
        assert np.all(out.predict(ds.features, "a") == 1.0)


class TestCausalTree:
    def test_zero_effect_single_leaf(self):
        rng = np.random.default_rng(5)
        n = 4000
        ds = make_dataset(rng.uniform(-1, 1, n),
                          rng.choice(["a", "b"], n),
                          rng.integers(0, 2, n))
        tree = causal.fit_causal_tree(ds, "b", {"min_node_size": 400,
                                                "max_depth": 3}, "score", 0)
        root_effect = tree.tree.root.value if tree.tree.root.is_leaf else None
        if root_effect is None:
            leaves = tree.tree.predict(np.linspace(-1, 1, 50)[:, None])
            assert np.max(np.abs(leaves)) < 0.1
        else:
            assert abs(root_effect) < 0.1

    def test_generator_thresholds_recovered(self):
        ds = synth.generate(synth.SynthParams(n=40_000, seed=6))
        sub = ds.subset(np.isin(ds.treatment, ("SO", "RRH")))
        tree = causal.fit_causal_tree(sub, "RRH", {"min_node_size": 400,
                                                   "max_depth": 3,
                                                   "honest": True}, "score", 0)
        cuts = sorted(_collect_thresholds(tree.tree.root))
        assert any(abs(c - 0.2) < 0.05 for c in cuts)
        assert any(abs(c - 0.7) < 0.05 for c in cuts)

    def test_planted_step_recovered(self):
        rng = np.random.default_rng(7)
        n = 10_000
        scores = rng.uniform(0, 1, n)
        treat = rng.choice(["a", "b"], n)
        effect = np.where(scores > 0.5, 0.5, 0.0)
        y = (rng.random(n) < np.where(treat == "b", 0.2 + effect, 0.2)).astype(int)
        ds = make_dataset(scores, treat, y)
        tree = causal.fit_causal_tree(ds, "b", {"min_node_size": 500,
                                                "max_depth": 2,
                                                "honest": True}, "score", 0)
        cuts = _collect_thresholds(tree.tree.root)
        assert any(abs(c - 0.5) < 0.02 for c in cuts)

    def test_empty_arm_rejected(self):
        ds = make_dataset([0.1, 0.2, 0.3], ["a", "a", "a"], [0, 1, 0],
                          resources=("a", "b"))
        with pytest.raises(ValueError):
            causal.fit_causal_tree(ds, "b", {"min_node_size": 1}, "score", 0)

    @pytest.mark.filterwarnings("error")
    def test_halves_without_both_arms_stay_finite(self):
        # each honest half holds one record, so neither has both arms; the
        # leaf takes the whole subset's effect instead of NaN, and no numpy
        # warning is raised on the way
        ds = make_dataset([0.1, 0.2], ["a", "b"], [0, 1])
        tree = causal.fit_causal_tree(ds, "b", {"min_node_size": 1}, "score", 0)
        assert tree.tree.predict(np.array([[0.1], [0.2]])).tolist() == [1.0, 1.0]

    @given(n=st.integers(2, 12), data=st.data())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_honest_leaves_finite(self, n, data):
        arms = data.draw(st.lists(st.sampled_from(["a", "b"]), min_size=n - 2, max_size=n - 2))
        scores = data.draw(st.lists(st.integers(0, 4).map(lambda k: k / 4),
                                    min_size=n, max_size=n))
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        ds = make_dataset(scores, ["a", "b"] + arms, y)
        tree = causal.fit_causal_tree(ds, "b", {"min_node_size": data.draw(st.integers(1, 3))},
                                      "score", data.draw(st.integers(0, 3)))
        assert np.all(np.isfinite(tree.tree.predict(np.linspace(-1, 2, 13)[:, None])))

    def test_min_node_size_below_one_rejected(self):
        ds = make_dataset([0.1, 0.2, 0.3, 0.4], ["a", "b", "a", "b"], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="min_node_size"):
            causal.fit_causal_tree(ds, "b", {"min_node_size": 0}, "score", 0)

    def test_honest_leaves_meet_arm_minimum(self):
        ds = synth.generate(synth.SynthParams(n=20_000, seed=8))
        sub = ds.subset(np.isin(ds.treatment, ("SO", "PSH")))
        mns = 300
        tree = causal.fit_causal_tree(sub, "PSH", {"min_node_size": mns,
                                                   "max_depth": 4,
                                                   "honest": True}, "score", 0)
        # each leaf's estimation count covers at least min_node_size per arm
        counts = _collect_leaf_counts(tree.tree.root)
        assert min(counts) >= 2 * mns


def _collect_thresholds(node):
    if node.is_leaf:
        return []
    return ([node.threshold] + _collect_thresholds(node.left)
            + _collect_thresholds(node.right))


def _collect_leaf_counts(node):
    if node.is_leaf:
        return [node.count]
    return _collect_leaf_counts(node.left) + _collect_leaf_counts(node.right)


class TestPartitions:
    def test_worked_intersection_example(self):
        scores = np.arange(0, 18, dtype=float)
        ds = make_dataset(scores, ["a", "b"] * 9, [0, 1] * 9)
        psh = stub_causal_tree([6.5, 10.5])
        rrh = stub_causal_tree([8.5])
        part = causal.intersect_partitions([psh, rrh], ds, "score")
        assert part.n_queues == 4
        assignments = np.array(part.assign_dataset(ds))
        blocks = [assignments[(scores >= lo) & (scores <= hi)]
                  for lo, hi in [(0, 6), (7, 8), (9, 10), (11, 17)]]
        for block in blocks:
            assert len(set(block.tolist())) == 1
        assert len({b[0] for b in blocks}) == 4

    def test_single_tree_queues_are_leaves(self):
        scores = np.linspace(0, 1, 20)
        ds = make_dataset(scores, ["a", "b"] * 10, [0, 1] * 10)
        tree = stub_causal_tree([0.5])
        part = causal.intersect_partitions([tree], ds, "score")
        assert part.n_queues == tree.n_leaves == 2

    def test_identical_trees_idempotent(self):
        scores = np.linspace(0, 1, 20)
        ds = make_dataset(scores, ["a", "b"] * 10, [0, 1] * 10)
        t1, t2 = stub_causal_tree([0.5]), stub_causal_tree([0.5])
        part = causal.intersect_partitions([t1, t2], ds, "score")
        assert part.n_queues == 2

    def test_unseen_tuple_falls_back_to_nearest(self):
        scores = np.array([0.1, 0.1, 0.9, 0.9])
        ds = make_dataset(scores, ["a", "b", "a", "b"], [0, 1, 0, 1])
        part = causal.intersect_partitions(
            [stub_causal_tree([0.2]), stub_causal_tree([0.5])], ds, "score")
        # observed tuples are (0,0) and (1,1); a score of 0.3 yields (1,0),
        # Hamming-equidistant from both, so the lexicographic tie goes to (0,0)
        probe = make_dataset([0.3], ["a"], [0])
        assert _assigned_ids(part, probe).tolist() == ["q0"]

    def test_group_split_counts(self):
        rng = np.random.default_rng(9)
        n = 600
        scores = rng.uniform(0, 1, n)
        groups = {"race": rng.choice(["A", "B", "C"], n)}
        ds = make_dataset(scores, rng.choice(["a", "b"], n),
                          rng.integers(0, 2, n), groups=groups)
        base = causal.intersect_partitions(
            [stub_causal_tree([0.25, 0.5, 0.75])], ds, "score")
        refined = causal.split_queues_by_group(base, ds, "race")
        assert refined.n_queues == 12
        assert len(refined.score_cells) == 4

    def test_group_split_rejects_cells_the_partition_never_saw(self):
        rng = np.random.default_rng(4)
        n = 400
        scores = rng.uniform(0, 1, n)
        ds = make_dataset(scores, rng.choice(["a", "b"], n), rng.integers(0, 2, n),
                          groups={"race": rng.choice(["A", "B"], n)})
        base = causal.intersect_partitions(
            [stub_causal_tree([0.25, 0.5, 0.75])], ds.subset(scores < 0.3), "score")
        assert base.n_queues == 2
        with pytest.raises(ValueError, match="never saw"):
            causal.split_queues_by_group(base, ds, "race")

    @pytest.mark.parametrize("n_queues", [129, 200, 256])
    def test_split_rule_on_uint8_rows_as_the_record_holds_them(self, n_queues):
        """fit's record holds rows as uint8 below 256 queues; the rule splits
        them as it splits the same rows as int64, and each record lands in
        (its queue, its label)."""
        rng = np.random.default_rng(n_queues)
        queues = [f"q{i}" for i in range(n_queues)]
        rows = np.concatenate([np.arange(n_queues), rng.integers(0, n_queues, 3000)])
        labels = rng.choice(np.array(["A", "B"], dtype=object), len(rows))
        small = rows.astype(np.uint8)
        assert np.array_equal(small, rows)
        split, wide = (causal.split_by_label(r, labels, queues) for r in (small, rows))
        assert split[:3] == wide[:3]
        assert np.array_equal(split[3], wide[3])
        ids = list(split[0].values())
        assert [ids[i] for i in split[3]] == [f"q{q}:{g}" for q, g in zip(rows, labels)]
        lam = tuple(Fraction(1 + i % 7, 3) for i in range(n_queues))
        instance = core.MCMSInstance(tuple(queues), ("a", "b"), lam,
                                     (Fraction(1), Fraction(2)), 0.5)
        narrow_split, wide_split = (causal.split_instance(instance, r, labels)
                                    for r in (small, rows))
        assert narrow_split[0] == wide_split[0]
        assert narrow_split[0].lam_total == instance.lam_total
        assert np.array_equal(narrow_split[1], wide_split[1])
        assert narrow_split[2:] == wide_split[2:] == split[1:3]

    def test_group_split_constant_group_unchanged(self):
        scores = np.linspace(0, 1, 20)
        ds = make_dataset(scores, ["a", "b"] * 10, [0, 1] * 10,
                          groups={"race": np.array(["A"] * 20, dtype=object)})
        base = causal.intersect_partitions([stub_causal_tree([0.5])], ds, "score")
        refined = causal.split_queues_by_group(base, ds, "race")
        assert refined.n_queues == base.n_queues


def _assigned_ids(part, ds):
    """The queue id of each record's row that ``assign_dataset`` returns."""
    rows = part.assign_dataset(ds)
    assert rows.dtype == np.int64
    return np.array(part.queues)[rows]


def _brute_force_queues(part, ds):
    """Per-row reading of the documented assignment rule."""
    X = ds.score[:, None] if part.feature_mode == "score" else ds.features
    labels = (ds.groups[part.group_dimension] if part.group_dimension
              else [None] * len(ds))
    out = []
    for x, g in zip(X, labels):
        tup = tuple(int(t.leaf_ids(x[None, :])[0]) for t in part.trees)
        if part.group_dimension:
            key = (tup, str(g))
            pool = ([k for k in part.queue_table if k[1] == key[1]]
                    or list(part.queue_table))
            rank = lambda k: (sum(a != b for a, b in zip(k[0], tup)), k[0], k[1])
        else:
            key, pool = tup, list(part.queue_table)
            rank = lambda k: (sum(a != b for a, b in zip(k, tup)), k)
        out.append(part.queue_table[key] if key in part.queue_table
                   else part.queue_table[min(pool, key=rank)])
    return out


class TestAssignDataset:
    @given(seed=st.integers(0, 2**32 - 1), grouped=st.booleans(),
           int_labels=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_row_rule(self, seed, grouped, int_labels):
        rng = np.random.default_rng(seed)
        n = 240
        X = rng.uniform(0, 1, (n, 2))
        labels = rng.integers(0, 3, n)
        groups = {"g": labels if int_labels else np.array([f"L{v}" for v in labels],
                                                           dtype=object)}
        ds = core.Dataset(X, X[:, 1], groups, rng.choice(["a", "b"], n),
                          rng.integers(0, 2, n), np.arange(1.0, n + 1),
                          ["a", "b"], ["x0", "x1"])
        trees = [causal.CausalTree(causal.fit_cart(X, rng.random(n), "binary-regression",
                                                   {"min_node_size": 20, "max_depth": 3}),
                                   "b", "a", False, 20, "all")
                 for _ in range(2)]
        # training sees part of the feature space and no label 2 in its upper
        # half, so the probe meets unseen tuples and unseen (tuple, label) keys
        train = ds.subset((X[:, 0] < 0.6) & ((labels < 2) | (X[:, 1] < 0.5)))
        part = causal.intersect_partitions(trees, train, "all")
        if grouped:
            part = causal.split_queues_by_group(part, train, "g")
            assert part.group_dimension == "g"
        assert list(_assigned_ids(part, ds)) == _brute_force_queues(part, ds)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cell_keys_match_row_unique(self, data):
        """Keys, their order and each row's index into them are those of a
        row-wise unique over the leaf-id columns, huge leaf ids included."""
        n = data.draw(st.integers(0, 40))
        ids = st.lists(st.sampled_from([0, 1, 2, 7, 2**40]), min_size=n, max_size=n)
        cols = [np.array(data.draw(ids), dtype=np.int64)
                for _ in range(data.draw(st.integers(1, 3)))]
        trees = [SimpleNamespace(leaf_ids=lambda X, c=c: c) for c in cols]
        rows, inverse = np.unique(np.column_stack(cols), axis=0, return_inverse=True)
        keys, got = causal._cell_keys(trees, None)
        assert keys == [tuple(row) for row in rows.tolist()]
        assert np.array_equal(got, inverse.reshape(-1))

    @given(data=st.data(), kind=st.sampled_from(["str", "object", "int"]))
    @settings(max_examples=200, deadline=None)
    def test_cell_keys_with_labels_match_reference(self, data, kind):
        """Grouped keys, their order and each row's index into them are those
        of the np.unique factorisation, for text and integer labels; 9 and 10
        sort as numbers, not as text."""
        n = data.draw(st.integers(0, 40))
        cols = [np.array(data.draw(st.lists(st.sampled_from([0, 1, 5]),
                                            min_size=n, max_size=n)), dtype=np.int64)
                for _ in range(data.draw(st.integers(1, 2)))]
        trees = [SimpleNamespace(leaf_ids=lambda X, c=c: c) for c in cols]
        pool = [9, 10, 0, 2] if kind == "int" else ["B", "A", "10", "9", "é", ""]
        raw = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        labels = np.array(raw, dtype={"str": str, "object": object, "int": np.int64}[kind])
        keys, inverse = causal._cell_keys(trees, None, labels)
        ref_keys, ref_inverse = reference_cell_keys(trees, None, labels)
        assert keys == ref_keys
        assert np.array_equal(inverse, ref_inverse)

    def test_cell_keys_order_integer_labels_numerically(self):
        trees = [SimpleNamespace(leaf_ids=lambda X: np.array([3, 3, 3]))]
        keys, inverse = causal._cell_keys(trees, None, np.array([10, 9, 10]))
        assert keys == [((3,), "9"), ((3,), "10")]
        assert inverse.tolist() == [1, 0, 1]
        keys, _ = causal._cell_keys(trees, None, np.array(["10", "9", "10"], dtype=object))
        assert keys == [((3,), "10"), ((3,), "9")]

    def test_integer_labels_reach_their_own_queues(self):
        scores = np.linspace(0, 1, 40)
        labels = np.arange(40) % 2
        ds = make_dataset(scores, ["a", "b"] * 20, [0, 1] * 20, groups={"g": labels})
        base = causal.intersect_partitions([stub_causal_tree([0.5])], ds, "score")
        part = causal.split_queues_by_group(base, ds, "g")
        queue_ids = _assigned_ids(part, ds)
        assert [q.endswith(f":{g}") for q, g in zip(queue_ids, labels)] == [True] * 40
        _, kept = causal.estimate_cate_dr(ds, part, _StubProp(0.5),
                                          _StubOut({"a": 0.0, "b": 0.5}))
        assert kept == part.queues


def _with_noise(ds, seed=0):
    """The same records with a noise feature in front of the score."""
    noise = np.random.default_rng(seed).uniform(5.0, 6.0, len(ds))
    return core.Dataset(np.column_stack([noise, ds.score]), ds.score, ds.groups,
                        ds.treatment, ds.outcome, ds.arrival_time, ds.resource_set,
                        ["noise", "score"], potential_outcomes=ds.potential_outcomes)


class TestFeatureMode:
    """Models fit on the score alone read the score, whatever else the
    dataset carries."""

    def test_score_models_ignore_other_features(self, tmp_path):
        plain = synth.generate(synth.alpha_variant(synth.SynthParams(n=4_000, seed=15),
                                                   0.02))
        noisy = _with_noise(plain)
        prop = causal.fit_propensity(noisy, {"min_node_size": 50}, "score")
        out = causal.fit_outcome(noisy, {"min_node_size": 50}, "score")
        tree = causal.fit_causal_tree(noisy, "PSH", {"min_node_size": 300,
                                                     "max_depth": 2}, "score", 0)
        kept, dropped = causal.positivity_screen(plain, prop, 0.05)
        assert len(dropped) > 0
        assert np.array_equal(causal.positivity_screen(noisy, prop, 0.05)[0].ids,
                              kept.ids)
        part = causal.intersect_partitions([tree], kept, "score")
        tau, _ = causal.estimate_cate_dr(kept, part, prop, out)
        tau2, _ = causal.estimate_cate_dr(_with_noise(kept), part, prop, out)
        assert np.array_equal(tau.tau, tau2.tau)
        assert tau.baseline_mean == tau2.baseline_mean

        causal.save_models(tmp_path / "models.json", prop, out, [tree])
        prop2, out2, _ = causal.load_models(tmp_path / "models.json")
        assert (prop2.feature_mode, out2.feature_mode) == ("score", "score")
        assert np.array_equal(causal.positivity_screen(noisy, prop2, 0.05)[0].ids,
                              kept.ids)

    def test_off_policy_estimates_ignore_other_features(self):
        plain = synth.generate(synth.SynthParams(n=3_000, seed=16))
        prop = causal.fit_propensity(plain, {"min_node_size": 50}, "score")
        out = causal.fit_outcome(plain, {"min_node_size": 50}, "score")
        part = causal.intersect_partitions([stub_causal_tree([0.2], "RRH")], plain,
                                           "score")
        instance = causal.arrival_rates(plain, part, float(plain.arrival_time.max()))
        policy = core.Policy(np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]))
        queue_ids = _assigned_ids(part, plain)
        tables = [ope.score_table(ds, queue_ids, instance.queues, out, prop)
                  for ds in (_with_noise(plain), plain)]
        for name in ("DM", "IPW", "DR"):
            assert tables[0].value(name, policy) == tables[1].value(name, policy)


class _StubProp:
    feature_mode = "score"
    resources = ["a", "b"]

    def __init__(self, value=0.5):
        self.value = value

    def predict_proba(self, X):
        return np.full((len(np.atleast_2d(X)), 2), self.value)


class _StubOut:
    resources = ["a", "b"]
    feature_mode = "score"

    def __init__(self, table):
        self.table = table

    def predict(self, X, resource):
        return np.full(len(np.atleast_2d(X)), self.table[resource])


class _OneQueue:
    queues = ["q0"]

    def assign_dataset(self, ds):
        return np.zeros(len(ds), dtype=np.int64)


class TestDREstimation:
    def test_hand_worked_two_records(self):
        ds = make_dataset([0.0, 1.0], ["b", "a"], [1, 0])
        tau, queues = causal.estimate_cate_dr(ds, _OneQueue(), _StubProp(0.5),
                                              _StubOut({"a": 0.0, "b": 0.5}))
        assert queues == ["q0"]
        assert tau.tau[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert tau.baseline_mean == pytest.approx(0.0, abs=1e-12)

    def test_interpolating_outcome_model_reduces_to_plugin(self):
        rng = np.random.default_rng(10)
        n = 200
        scores = rng.uniform(0, 1, n)
        treat = rng.choice(["a", "b"], n)
        y = rng.integers(0, 2, n)
        ds = make_dataset(scores, treat, y)

        class Interp:
            resources = ["a", "b"]
            feature_mode = "score"

            def predict(self, X, resource):
                # matches each record's observed outcome exactly
                return np.where(treat == resource, y,
                                float(y[treat == resource].mean()))

        tau, _ = causal.estimate_cate_dr(ds, _OneQueue(), _StubProp(0.5), Interp())
        plugin = y[treat == "b"].mean() - y[treat == "a"].mean()
        assert tau.tau[0, 1] == pytest.approx(plugin, abs=1e-12)

    def test_baseline_column_zero(self):
        ds = synth.generate(synth.SynthParams(n=3_000, seed=11))
        prop = causal.fit_propensity(ds, {"min_node_size": 50}, "score")
        out = causal.fit_outcome(ds, {"min_node_size": 50}, "score")
        part = causal.intersect_partitions(
            [stub_causal_tree([0.2], "RRH"), stub_causal_tree([0.5], "PSH")],
            ds, "score")
        tau, _ = causal.estimate_cate_dr(ds, part, prop, out)
        assert np.all(tau.tau[:, 0] == 0.0)


class TestScreeningAndRates:
    def test_screen_keeps_everything_when_propensities_large(self):
        ds = synth.generate(synth.SynthParams(n=2_000, seed=12))
        kept, dropped = causal.positivity_screen(ds, _StubProp(0.5), 0.001)
        assert len(dropped) == 0 and len(kept) == len(ds)

    def test_screen_excludes_low_propensity_stratum(self):
        params = synth.alpha_variant(synth.SynthParams(n=5_000, seed=13), 0.02)
        ds = synth.generate(params)

        class TruthProp:
            feature_mode = "score"

            def predict_proba(self, X):
                return synth.true_propensity(X[:, 0], params.propensity_table)

        kept, dropped = causal.positivity_screen(ds, TruthProp(), 0.05)
        in_mid = (ds.score > 0.0) & (ds.score <= 0.2)
        assert len(dropped) == int(in_mid.sum())

    def test_rate_from_counts(self):
        ds = make_dataset(np.zeros(100), ["a"] * 100, [0] * 100,
                          resources=("a",), arrival=np.linspace(0.5, 50, 100))
        inst = causal.arrival_rates(ds, _OneQueue(), 50.0, 1.0)
        assert inst.lam[0] == Fraction(2)

    def test_baseline_rate_floored_when_oversupplied(self):
        n = 100
        treat = ["b"] * 60 + ["c"] * 40
        ds = make_dataset(np.zeros(n), treat, [0] * n, resources=("a", "b", "c"),
                          arrival=np.linspace(1, 50, n))
        # lam_total = 2/day, mu_b + mu_c = 2/day -> baseline pinned at the floor
        inst = causal.arrival_rates(ds, _OneQueue(), 50.0, 1.0)
        assert inst.mu[0] == Fraction(1, 10 ** 6)

    def test_baseline_rate_tops_up_demand(self):
        n = 100
        treat = ["b"] * 40 + ["a"] * 60
        ds = make_dataset(np.zeros(n), treat, [0] * n, resources=("a", "b"),
                          arrival=np.linspace(1, 50, n))
        inst = causal.arrival_rates(ds, _OneQueue(), 50.0, 1.0)
        # lam_total = 2, mu_b = 0.8 -> baseline 1.2
        assert inst.mu[0] == Fraction(6, 5)


class TestLearn:
    """``causal.learn`` against the stage functions called one by one."""

    NUISANCE = {"min_node_size": 50, "max_depth": 10}
    TREES = {"min_node_size": 300, "max_depth": 3, "honest": True}
    PARAMS = {"tree_params": TREES, "nuisance_params": NUISANCE,
              "positivity_threshold": 0.05}

    def _data(self):
        # PSH has propensity 0.02 in the mid stratum, so the screen drops it
        return synth.generate(synth.alpha_variant(synth.SynthParams(
            n=4_000, seed=17, group_probs={"race": {"A": 0.4, "B": 0.6}}), 0.02))

    def _by_hand(self, ds, models, dim):
        if models is None:
            prop = causal.fit_propensity(ds, self.NUISANCE, "score")
            out = causal.fit_outcome(ds, self.NUISANCE, "score")
        else:
            prop, out, trees = models
        kept, dropped = causal.positivity_screen(ds, prop, 0.05)
        if models is None:
            trees = [causal.fit_causal_tree(kept, r, self.TREES, "score", 3)
                     for r in ds.resource_set[1:]]
        part = causal.intersect_partitions(trees, kept, "score")
        if dim:
            part = causal.split_queues_by_group(part, kept, dim)
        tau, _ = causal.estimate_cate_dr(kept, part, prop, out)
        inst = causal.arrival_rates(kept, part, float(kept.arrival_time.max()), 0.99)
        return prop, out, trees, kept, len(dropped), part, inst, tau

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("dim", [None, "race"])
    def test_matches_hand_wired_stages(self, tmp_path, loaded, dim):
        """``learn``, and with ``loaded`` the route of the later CLI verbs:
        saved models, and the rows and instance of an ungrouped ``learn``
        split by the kept records' labels through ``split_instance``."""
        ds = self._data()
        models = None
        if loaded:
            fitted = causal.learn(ds, self.PARAMS, 3)
            causal.save_models(tmp_path / "models.json", fitted.prop, fitted.out,
                               fitted.trees)
            models = prop, out, trees = causal.load_models(tmp_path / "models.json")
            kept = ds.subset(fitted.kept_mask)
            part = causal.intersect_partitions(trees, kept, "score")
            inst, rows = fitted.instance, fitted.rows
            if dim:
                inst, rows, groups, cells = causal.split_instance(inst, rows,
                                                                  kept.groups[dim])
                part = causal.split_queues_by_group(part, kept, dim)
                assert (groups, cells) == (part.groups, part.score_cells)
            learned = causal.Learned(prop, out, trees, kept, fitted.n_screened, part,
                                     rows, inst)
        else:
            learned = causal.learn(ds, self.PARAMS, 3, dim)
        prop, out, trees, kept, n_screened, part, inst, tau = self._by_hand(ds, models, dim)

        assert _dumps(learned.prop.tree) == _dumps(prop.tree)
        assert [_dumps(learned.out.trees[r]) for r in ds.resource_set] == \
            [_dumps(out.trees[r]) for r in ds.resource_set]
        assert [_dumps(t.tree) for t in learned.trees] == [_dumps(t.tree) for t in trees]
        assert n_screened > 0
        assert learned.n_screened == n_screened
        assert np.array_equal(learned.kept.ids, kept.ids)
        assert learned.partition.queue_table == part.queue_table
        assert learned.partition.group_dimension == dim
        queue_ids = np.array(learned.instance.queues)[learned.rows]
        assert np.array_equal(queue_ids, _assigned_ids(part, kept))
        assert learned.instance == inst
        assert np.array_equal(learned.tau.tau, tau.tau)
        assert learned.tau.baseline_mean == tau.baseline_mean

        expected = {}
        if dim:
            labels = kept.groups[dim]
            for q in inst.queues:
                (label,) = set(labels[queue_ids == q].tolist())
                expected.setdefault(label, []).append(q)
        assert list(learned.groups.items()) == list(expected.items())

    def test_effects_estimated_once_on_first_read(self, monkeypatch):
        calls = []
        score_inputs = ope.score_inputs
        monkeypatch.setattr(ope, "score_inputs",
                            lambda *args: calls.append(1) or score_inputs(*args))
        learned = causal.learn(self._data(), self.PARAMS)
        assert calls == []
        assert learned.tau is learned.tau
        assert calls == [1]

    @pytest.mark.parametrize("dim", [None, "race"])
    def test_walks_each_kept_record_once_per_tree(self, monkeypatch, dim):
        """``learn`` takes each kept record's queue row from the one walk
        that intersects the trees' leaves, and assigns nothing again."""
        walked, leaf_ids = [], causal.DecisionTree.leaf_ids

        def counted(tree, X):
            walked.append(len(X))
            return leaf_ids(tree, X)

        def refuse(partition, dataset):
            raise AssertionError("learn assigned its records again")
        monkeypatch.setattr(causal.DecisionTree, "leaf_ids", counted)
        monkeypatch.setattr(causal.PartitionFunction, "assign_dataset", refuse)
        learned = causal.learn(self._data(), self.PARAMS, group_dimension=dim)
        assert sum(walked) == len(learned.trees) * len(learned.kept)

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            causal.learn(self._data(), {"tree_param": self.TREES})


class TestSerialization:
    def test_models_round_trip(self, tmp_path):
        ds = synth.generate(synth.SynthParams(n=4_000, seed=14))
        prop = causal.fit_propensity(ds, {"min_node_size": 100}, "score")
        out = causal.fit_outcome(ds, {"min_node_size": 100}, "score")
        trees = [causal.fit_causal_tree(ds, r, {"min_node_size": 400,
                                                "max_depth": 3,
                                                "honest": True}, "score", 0)
                 for r in ("RRH", "PSH")]
        path = tmp_path / "models.json"
        causal.save_models(path, prop, out, trees)
        prop2, out2, trees2 = causal.load_models(path)
        X = ds.features[:200]
        assert np.allclose(prop.predict_proba(X), prop2.predict_proba(X))
        assert np.allclose(out.predict(X, "PSH"), out2.predict(X, "PSH"))
        for t1, t2 in zip(trees, trees2):
            assert np.array_equal(t1.leaf_ids(X), t2.leaf_ids(X))
