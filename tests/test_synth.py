import numpy as np
import pytest

from _oracles import binomial_3sigma
from fairmatch import synth


class TestStaticTables:
    def test_outcome_mean_steps(self):
        s = [-0.4, 0.1, 0.25, 0.4, 0.6, 0.9]
        assert list(synth.outcome_mean("SO", s)) == [0.0] * 6
        assert list(synth.outcome_mean("RRH", s)) == [0.2, 0.2, 0.6, 0.6, 0.6, 0.2]
        assert list(synth.outcome_mean("PSH", s)) == [0.6, 0.6, 0.6, 0.2, 0.6, 0.6]

    def test_true_propensity_strata_edges(self):
        probs = synth.true_propensity([0.0, 0.1, 0.2, 0.21])
        assert tuple(probs[0]) == (0.3, 0.3, 0.4)     # score 0.0 -> low
        assert tuple(probs[1]) == (0.3, 0.4, 0.3)
        assert tuple(probs[2]) == (0.3, 0.4, 0.3)     # 0.2 still mid
        assert tuple(probs[3]) == (0.3, 0.2, 0.5)
        probs = synth.true_propensity([-0.0, np.nan])
        assert tuple(probs[0]) == (0.3, 0.3, 0.4)     # -0.0 is 0.0 -> low
        assert tuple(probs[1]) == (0.3, 0.2, 0.5)     # NaN -> high
        table = synth.alpha_variant(synth.SynthParams(), 0.05).propensity_table
        probs = synth.true_propensity([-0.3, 0.0, 0.2, 0.5, np.nan], table)
        assert [tuple(p) for p in probs] == [table["low"], table["low"], table["mid"],
                                             table["high"], table["high"]]

    def test_alpha_variant_table(self):
        p = synth.alpha_variant(synth.SynthParams(), 0.05)
        assert p.propensity_table["mid"] == pytest.approx((0.3, 0.65, 0.05))
        assert p.propensity_table["low"] == (0.3, 0.3, 0.4)

    def test_alpha_variant_range(self):
        with pytest.raises(ValueError):
            synth.alpha_variant(synth.SynthParams(), 0.7)
        with pytest.raises(ValueError):
            synth.alpha_variant(synth.SynthParams(), 0.0)

    def test_bad_propensity_table_rejected(self):
        with pytest.raises(ValueError):
            synth.SynthParams(propensity_table={"low": (0.5, 0.5, 0.5),
                                                "mid": (0.3, 0.4, 0.3),
                                                "high": (0.3, 0.2, 0.5)})


class TestGeneratorMoments:
    def setup_method(self):
        self.ds = synth.generate(synth.SynthParams(n=50_000, seed=42))

    def test_baseline_potential_outcome_identically_zero(self):
        assert np.all(self.ds.potential_outcomes["SO"] == 0)

    def test_treatment_shares_per_stratum(self):
        s = self.ds.score
        for mask, probs in [(s <= 0.0, (0.3, 0.3, 0.4)),
                            ((s > 0.0) & (s <= 0.2), (0.3, 0.4, 0.3)),
                            (s > 0.2, (0.3, 0.2, 0.5))]:
            n = int(mask.sum())
            for r, p in zip(synth.RESOURCES, probs):
                share = float(np.mean(self.ds.treatment[mask] == r))
                assert abs(share - p) < binomial_3sigma(p, n)

    def test_potential_outcome_means_per_segment(self):
        s = self.ds.score
        for resource in ("RRH", "PSH"):
            truth = synth.outcome_mean(resource, s)
            for p in sorted(set(truth.tolist())):
                mask = truth == p
                n = int(mask.sum())
                mean = float(self.ds.potential_outcomes[resource][mask].mean())
                assert abs(mean - p) < binomial_3sigma(p, n)

    def test_observed_outcome_consistent_with_po(self):
        for r in synth.RESOURCES:
            mask = self.ds.treatment == r
            assert np.array_equal(self.ds.outcome[mask],
                                  self.ds.potential_outcomes[r][mask])

    def test_treatment_independent_of_potential_outcomes_within_stratum(self):
        s = self.ds.score
        mid = (s > 0.0) & (s <= 0.2)
        po = self.ds.potential_outcomes["PSH"][mid]
        treat = self.ds.treatment[mid]
        overall = float(po.mean())
        for r in synth.RESOURCES:
            arm = po[treat == r]
            assert abs(float(arm.mean()) - overall) < binomial_3sigma(overall,
                                                                      len(arm))

    def test_arrival_times_increasing_unit_rate(self):
        t = self.ds.arrival_time
        assert np.all(np.diff(t) > 0)
        assert abs(t[-1] / len(t) - 1.0) < 3.0 / np.sqrt(len(t))

    def test_group_labels_follow_probabilities(self):
        params = synth.SynthParams(n=50_000, seed=7,
                                   group_probs={"race": {"A": 0.6, "B": 0.4}})
        ds = synth.generate(params)
        share = float(np.mean(ds.groups["race"] == "A"))
        assert abs(share - 0.6) < binomial_3sigma(0.6, len(ds))

    def test_deterministic_given_seed(self):
        a = synth.generate(synth.SynthParams(n=2_000, seed=5))
        b = synth.generate(synth.SynthParams(n=2_000, seed=5))
        assert np.array_equal(a.score, b.score)
        assert np.array_equal(a.treatment, b.treatment)
        assert np.array_equal(a.outcome, b.outcome)
        c = synth.generate(synth.SynthParams(n=2_000, seed=6))
        assert not np.array_equal(a.score, c.score)


class TestSweepHarnesses:
    def test_alpha_sweep_row_schema(self, tmp_path):
        out = tmp_path / "alpha.csv"
        rows = synth.run_alpha_sweep(alphas=(0.3,), n=3000, seeds=(0,),
                                     out_path=out)
        assert len(rows) == 5
        assert {r["estimator"] for r in rows} == {"CT", "DM", "DR", "IPW", "GT"}
        assert all(r["sweep_param"] == 0.3 for r in rows)
        header = out.read_text().splitlines()[0]
        assert header == "sweep_param,seed,estimator,value,n_queues,min_propensity"

    def test_queue_sweep_forced_single_queue(self):
        rows = synth.run_queue_sweep(min_node_sizes=(5000,), n=3000, seeds=(0,))
        assert len(rows) == 5
        assert all(r["n_queues"] == 1 for r in rows)
