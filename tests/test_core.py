import csv
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_from_csv
from conftest import make_instance
from fairmatch import core

_LABELS = st.text(st.sampled_from(list('ab ,"#\n') + ["\u00e9", "\u4e2d"]),
                  max_size=5)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([5e-324, 1e-310, -0.0, 1e308, -1e308,
                                     0.1 + 0.2, 1 / 3]))


@st.composite
def _dataset_files(draw):
    """A dataset file as text plus the reader's arguments. Columns come in
    any order with one the reader does not ask for; blank lines may sit
    anywhere; at most one row is made malformed."""
    n = draw(st.integers(1, 6))
    resources = draw(st.lists(_LABELS.filter(bool), min_size=1, max_size=3, unique=True))
    features = [f"f{j}" for j in range(draw(st.integers(0, 2)))]
    groups = [f"g{j}" for j in range(draw(st.integers(0, 2)))]

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))
    cols = {"id": column(_LABELS.filter(bool)), "score": column(_FLOATS),
            "treatment": column(st.sampled_from(resources)),
            "outcome": column(st.integers(0, 1)),
            "arrival_time": column(_FLOATS.map(abs)), "note": column(_LABELS)}
    cols.update({f: column(_FLOATS) for f in features})
    cols.update({g: column(_LABELS) for g in groups})
    if draw(st.booleans()):
        cols.update({f"po_{r}": column(st.integers(-2**63, 2**63 - 1))
                     for r in resources})
    header = draw(st.permutations(list(cols)))
    number = draw(st.sampled_from([repr, "{:.17g}".format]))
    rows = [[number(v) if isinstance(v, float) else str(v) for v in row]
            for row in zip(*(cols[c] for c in header))]
    fault = draw(st.sampled_from([None, None, None, "long", "short", "empty",
                                  "1.0", "abc"]))
    row = rows[draw(st.integers(0, n - 1))]
    if fault == "long":
        row.append("1")
    elif fault == "short":
        row.pop()
    elif fault == "empty":
        required = ["id", "score", "treatment", "outcome", "arrival_time"]
        row[header.index(draw(st.sampled_from(required + features)))] = ""
    elif fault == "1.0":
        row[header.index("outcome")] = "1.0"
    elif fault == "abc":
        row[header.index(draw(st.sampled_from(["score"] + features)))] = "abc"
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    for line in [header] + rows:
        out.write(newline * draw(st.integers(0, 2)))
        writer.writerow(line)
    return out.getvalue(), (resources, features, groups), fault


def _arrays(ds):
    out = {"features": ds.features, "score": ds.score, "treatment": ds.treatment,
           "outcome": ds.outcome, "arrival_time": ds.arrival_time, "ids": ds.ids}
    out.update({f"group {g}": v for g, v in ds.groups.items()})
    out.update({f"po {r}": v for r, v in (ds.potential_outcomes or {}).items()})
    return out


def _assert_same_dataset(got, want):
    """Same arrays, dtypes and bytes (so -0.0 differs from 0.0)."""
    got, want = _arrays(got), _arrays(want)
    assert list(got) == list(want)
    for name in want:
        assert (got[name].dtype, got[name].shape, got[name].tobytes()) == \
            (want[name].dtype, want[name].shape, want[name].tobytes()), name


def _reads_like_reference(path, *args):
    """Require ``from_csv`` to return what the row-by-row reader returns or,
    where that reader rejects the file, to reject it too, naming the same
    row or column. True if the file was read."""
    try:
        want = reference_from_csv(path, *args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            core.Dataset.from_csv(path, *args)
        if str(exc).startswith(("data row", "missing value")):
            assert str(got.value) == str(exc)
        return False
    _assert_same_dataset(core.Dataset.from_csv(path, *args), want)
    return True


class TestRationalize:
    def test_exact_fraction_passthrough(self):
        assert core.rationalize(Fraction(1, 3)) == Fraction(1, 3)

    def test_decimal_cap(self):
        f = core.rationalize(0.123456789)
        assert f.denominator <= 10 ** 6
        assert abs(float(f) - 0.123456789) < 1e-6

    @given(st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_close_to_input(self, x):
        f = core.rationalize(x)
        assert f.denominator <= 10 ** 6
        assert abs(float(f) - x) <= max(1e-6, abs(x) * 1e-6)


class TestPolicyFromFlows:
    def test_direct_division(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)])
        policy = core.policy_from_flows(core.FlowMatrix(np.array([[0.3, 0.2]])), inst)
        assert np.allclose(policy.probs, [[0.6, 0.4]])

    def test_single_edge(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 10)])
        policy = core.policy_from_flows(core.FlowMatrix(np.array([[0.5, 0.0]])), inst)
        assert np.allclose(policy.probs, [[1.0, 0.0]])

    def test_symmetric_uniform(self):
        inst = make_instance([1, 1], [1, 1])
        f = core.FlowMatrix(np.full((2, 2), 0.5))
        policy = core.policy_from_flows(f, inst)
        assert np.allclose(policy.probs, 0.25 * np.ones((2, 2)) * 2)

    def test_row_balance_enforced(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            core.policy_from_flows(core.FlowMatrix(np.array([[0.3, 0.3]])), inst)

    def test_dimension_mismatch(self):
        inst = make_instance([1, 1], [1, 1])
        with pytest.raises(ValueError):
            core.policy_from_flows(core.FlowMatrix(np.array([[1.0, 0.0]])), inst)


class TestPolicyValue:
    def test_direct_evaluation(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)])
        f = core.FlowMatrix(np.array([[0.3, 0.2]]))
        tau = core.CATEMatrix(np.array([[0.0, 0.5]]), 0.1)
        assert core.policy_value(f, tau, inst) == pytest.approx(0.3, abs=1e-12)

    def test_zero_effect_returns_baseline(self):
        inst = make_instance([1, 1], [1, 1])
        f = core.FlowMatrix(np.full((2, 2), 0.5))
        tau = core.CATEMatrix(np.zeros((2, 2)), 0.4)
        assert core.policy_value(f, tau, inst) == pytest.approx(0.4, abs=1e-12)

    def test_linearity_in_flows_and_effects(self):
        rng = np.random.default_rng(0)
        inst = make_instance([1, 2], [2, 2])
        for _ in range(20):
            f1, f2 = rng.random((2, 2)), rng.random((2, 2))
            t = rng.normal(size=(2, 2))
            t[:, 0] = 0.0
            tau = core.CATEMatrix(t, 0.0)
            lhs = core.policy_value(core.FlowMatrix(f1 + f2), tau, inst)
            rhs = (core.policy_value(core.FlowMatrix(f1), tau, inst)
                   + core.policy_value(core.FlowMatrix(f2), tau, inst))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exhaustive_expectation_identity(self):
        # finite population with known potential outcomes, exact arithmetic
        po = {
            "base": [0, 1, 0, 1, 0, 0],
            "alt": [1, 1, 0, 1, 1, 0],
        }
        queue_of = [0, 0, 0, 1, 1, 1]
        n = 6
        lam = (Fraction(3), Fraction(3))
        inst = make_instance(lam, [Fraction(4), Fraction(3)])
        flows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        tau = np.zeros((2, 2))
        for q in range(2):
            members = [i for i in range(n) if queue_of[i] == q]
            tau[q, 1] = float(Fraction(sum(po["alt"][i] - po["base"][i]
                                           for i in members), len(members)))
        c = Fraction(sum(po["base"]), n)
        value = core.policy_value(core.FlowMatrix(np.array(flows, dtype=float)),
                                  core.CATEMatrix(tau, float(c)), inst)
        expectation = Fraction(0)
        for i in range(n):
            q = queue_of[i]
            for r, name in enumerate(("base", "alt")):
                pi = flows[q][r] / lam[q]
                expectation += Fraction(1, n) * pi * po[name][i]
        assert abs(value - float(expectation)) < 1e-9


class TestDataset:
    @staticmethod
    def _columns(n=3, **lengths):
        """Dataset arguments with n scores, and each column named in
        ``lengths`` given that many entries instead."""
        k = {**dict.fromkeys(["race", "treatment", "outcome", "arrival_time", "ids",
                              "po_x", "po_y"], n), **lengths}
        return dict(features=np.zeros((n, 1)), score=np.zeros(n),
                    groups={"race": ["A"] * k["race"]}, treatment=["x"] * k["treatment"],
                    outcome=[0] * k["outcome"], arrival_time=[0.0] * k["arrival_time"],
                    resource_set=["x", "y"], feature_names=["score"],
                    ids=[str(i) for i in range(k["ids"])],
                    potential_outcomes={r: [1] * k[f"po_{r}"] for r in "xy"})

    @pytest.mark.parametrize("length", [2, 4])
    @pytest.mark.parametrize("column", ["treatment", "outcome", "arrival_time", "ids",
                                        "race", "po_x", "po_y"])
    def test_column_of_another_length_rejected(self, column, length):
        assert len(core.Dataset(**self._columns())) == 3
        with pytest.raises(ValueError, match="one entry per score"):
            core.Dataset(**self._columns(**{column: length}))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 40
        scores = rng.normal(size=n)
        ds = core.Dataset(scores[:, None], scores,
                          {"race": np.array(["A", "B"] * (n // 2), dtype=object)},
                          np.array(["x", "y"] * (n // 2), dtype=object),
                          rng.integers(0, 2, n),
                          np.sort(rng.random(n) * 100),
                          ["x", "y"], ["score"],
                          potential_outcomes={"x": rng.integers(0, 2, n),
                                              "y": rng.integers(0, 2, n)})
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        back = core.Dataset.from_csv(path, ["x", "y"], ["score"], ["race"])
        assert np.allclose(back.score, ds.score)
        assert list(back.treatment) == list(ds.treatment)
        assert np.array_equal(back.outcome, ds.outcome)
        assert np.array_equal(back.potential_outcomes["y"],
                              ds.potential_outcomes["y"])

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 30
        features = rng.normal(size=(n, 2)) * [1.0, 1e-7]
        ds = core.Dataset(features, features[:, 0] + 1 / 3,
                          {"race": [str(g) for g in rng.choice(["A", "BB"], n)]},
                          [str(t) for t in rng.choice(["x", "y"], n)],
                          rng.integers(0, 2, n), np.sort(rng.random(n) * 100),
                          ["x", "y"], ["f0", "f1"],
                          potential_outcomes={"x": rng.integers(0, 2, n),
                                              "y": rng.integers(0, 2, n)})
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        back = core.Dataset.from_csv(path, ["x", "y"], ["f0", "f1"], ["race"])
        pairs = [(back.features, ds.features), (back.score, ds.score),
                 (back.groups["race"], ds.groups["race"]),
                 (back.treatment, ds.treatment), (back.outcome, ds.outcome),
                 (back.arrival_time, ds.arrival_time), (back.ids, ds.ids)]
        pairs += [(back.potential_outcomes[r], ds.potential_outcomes[r]) for r in "xy"]
        assert list(back.potential_outcomes) == ["x", "y"]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("id,score,treatment,outcome,arrival_time\n", "empty"),
        ("\nid,score,treatment,outcome,arrival_time\n\n\n", "empty"),
        ("id,treatment,outcome,arrival_time\n0,x,1,0.5\n", "missing column: score"),
        ("id,score,treatment,outcome,arrival_time\n0,,x,1,0.5\n", "missing value"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,,0.5\n",
         "missing value in column outcome"),
        ("id,score,treatment,outcome,arrival_time\n,0.1,x,1,0.5\n",
         "missing value in column id"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,,1,0.5\n",
         "missing value in column treatment"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,1,0.5,9\n", "data row 1"),
        ("id,score,score,treatment,outcome,arrival_time\n0,0.1,0.2,x,1,0.5\n",
         "repeated column names: \\['score'\\]"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,1,0.5\n1,0.2,y,0\n",
         "data row 2"),
        ("id,score,treatment,outcome,arrival_time\n\n0,0.1,x,1,0.5\n\n\n1,0.2,y\n",
         "data row 2 has 3 fields, the header has 5"),
        ("id,score,treatment,outcome,arrival_time\n0,abc,x,1,0.5\n", "abc"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,1.0,0.5\n", "1\\.0"),
    ])
    def test_csv_errors(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            core.Dataset.from_csv(path, ["x", "y"], ["score"])

    @settings(max_examples=300, deadline=None)
    @given(_dataset_files())
    def test_csv_matches_reference_reader(self, case):
        text, args, fault = case
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _reads_like_reference(path, *args) or fault is not None

    @pytest.mark.parametrize("name, features, groups", [
        ("po_x", ["po_x"], []),       # read as int, cast for the feature
        ("level", ["level"], ["level"]),
        ("po_x", ["po_x"], ["po_x"]),
    ])
    def test_csv_column_read_as_two_kinds(self, tmp_path, name, features, groups):
        """A column asked for as text, int or float in two roles reads as the
        row-by-row reader read it, empty field and non-integer included."""
        path = tmp_path / "d.csv"
        read = []
        for b in ["-2", "2.5", ""]:
            path.write_text(f"id,{name},score,treatment,outcome,arrival_time\n"
                            f"0,1,0.5,x,1,0.5\n1,{b},0.5,y,0,1.5\n")
            read.append(_reads_like_reference(path, ["x", "y"], features, groups))
        assert read[0] and not read[2]

    def test_csv_byte_order_mark_and_non_ascii_labels(self, tmp_path):
        labels = np.array(["\u00e9t\u00e9", "\u4e2d", "A", "\u00e9t\u00e9"])
        ds = core.Dataset(np.zeros((4, 1)), np.zeros(4), {"r\u00e9gion": labels},
                          np.array(["x", "y", "x", "y"]), np.array([0, 1, 1, 0]),
                          np.arange(4.0), ["x", "y"], ["score"],
                          ids=np.array(["a", "\u00df", "c", "d"]))
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        body = path.read_bytes()
        assert "r\u00e9gion".encode("utf-8") in body
        path.write_bytes(b"\xef\xbb\xbf" + body)
        back = core.Dataset.from_csv(path, ["x", "y"], ["score"], ["r\u00e9gion"])
        _assert_same_dataset(back, ds)

    def test_score_feature_written_once(self, tmp_path):
        scores = np.array([0.25, -1.5, 3.0])
        other = np.array([7.0, 8.0, 9.0])
        args = (np.array(["x", "y", "x"], dtype=object), np.array([1, 0, 1]),
                np.array([0.0, 1.0, 2.0]), ["x", "y"])
        ds = core.Dataset(np.column_stack([other, scores]), scores, {}, *args,
                          ["other", "score"])
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == \
            "id,other,score,treatment,outcome,arrival_time"
        back = core.Dataset.from_csv(path, ["x", "y"], ["other", "score"])
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.score, ds.score)
        differs = core.Dataset(np.column_stack([other, scores + 1]), scores, {}, *args,
                               ["other", "score"])
        with pytest.raises(ValueError, match="feature 'score' differs"):
            differs.to_csv(tmp_path / "e.csv")

    def test_unknown_treatment_rejected(self):
        with pytest.raises(ValueError):
            core.Dataset(np.zeros((2, 1)), np.zeros(2), {},
                         np.array(["x", "z"], dtype=object),
                         np.array([0, 1]), np.array([0.0, 1.0]),
                         ["x", "y"], ["score"])

    def test_treatment_index(self):
        ds = core.Dataset(np.zeros((4, 1)), np.zeros(4), {},
                          np.array(["y", "x", "z", "y"], dtype=object),
                          np.zeros(4, dtype=int), np.zeros(4), ["z", "x", "y"], ["score"])
        assert np.array_equal(ds.treatment_index(), [2, 1, 0, 2])

    def test_subset_preserves_alignment(self):
        scores = np.array([1.0, 2.0, 3.0])
        ds = core.Dataset(scores[:, None], scores, {},
                          np.array(["x", "y", "x"], dtype=object),
                          np.array([1, 0, 1]), np.array([0.0, 1.0, 2.0]),
                          ["x", "y"], ["score"])
        sub = ds.subset(ds.treatment == "x")
        assert len(sub) == 2
        assert np.allclose(sub.score, [1.0, 3.0])
        assert np.array_equal(sub.outcome, [1, 1])

    @staticmethod
    def _three_records():
        scores = np.array([1.0, 2.0, 3.0])
        return core.Dataset(scores[:, None], scores, {"race": ["A", "B", "A"]},
                            np.array(["x", "y", "x"], dtype=object),
                            np.array([1, 0, 1]), np.array([0.0, 1.0, 2.0]),
                            ["x", "y"], ["score"],
                            potential_outcomes={"x": [1, 0, 1], "y": [0, 0, 1]})

    def test_subset_keeping_every_record_is_the_dataset_itself(self):
        ds = self._three_records()
        assert ds.subset(np.ones(3, dtype=bool)) is ds
        assert ds.subset([True, True, True]) is ds

    def test_subset_of_some_records_copies_them(self):
        ds = self._three_records()
        sub = ds.subset(np.array([True, False, True]))
        assert sub is not ds and len(sub) == 2
        for got, full in ((sub.features, ds.features), (sub.score, ds.score),
                          (sub.groups["race"], ds.groups["race"]),
                          (sub.potential_outcomes["y"], ds.potential_outcomes["y"])):
            assert not np.shares_memory(got, full)
        assert sub.ids.tolist() == ["0", "2"]
        assert sub.groups["race"].tolist() == ["A", "A"]

    def test_subset_by_an_empty_mask_has_no_records(self):
        """numpy reads an empty bool mask as an empty index, whatever the
        length of the data, so it selects nothing; all() of it is still True."""
        sub = self._three_records().subset(np.array([], dtype=bool))
        assert len(sub) == 0 and sub.features.shape == (0, 1)

    @pytest.mark.parametrize("mask", [[True, True], [True, False], [True] * 4])
    def test_subset_by_a_mask_of_another_length_rejected(self, mask):
        with pytest.raises(IndexError):
            self._three_records().subset(np.array(mask))


class TestTypeInvariants:
    def test_policy_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            core.Policy(np.array([[0.7, 0.2]]))

    def test_cate_baseline_column_zero(self):
        with pytest.raises(ValueError):
            core.CATEMatrix(np.array([[0.1, 0.2]]), 0.0)

    def test_topology_binary(self):
        with pytest.raises(ValueError):
            core.MatchingTopology(np.array([[0.5, 1.0]]))

    def test_flow_nonnegative(self):
        with pytest.raises(ValueError):
            core.FlowMatrix(np.array([[-0.1, 0.2]]))
