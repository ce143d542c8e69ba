"""End-to-end walkthrough on synthetic data.

Generates an observational dataset with known potential outcomes, learns the
nuisance models and effect trees, builds queues, solves for the best matching
topology, and compares off-policy value estimates against ground truth.

Run:  python3 demos/quickstart.py
"""

import numpy as np

from fairmatch import causal, core, ope, optimizer, synth

N = 10_000

print("== 1. synthesize observational data ==")
dataset = synth.generate(synth.SynthParams(n=N, seed=0))
print(f"{len(dataset)} records, resources {dataset.resource_set}, "
      f"baseline {dataset.baseline!r}")

print("\n== 2. fit nuisance models and effect trees ==")
prop = causal.fit_propensity(dataset, {"min_node_size": 50, "max_depth": 10},
                             "score")
out = causal.fit_outcome(dataset, {"min_node_size": 50, "max_depth": 10},
                         "score")
kept, dropped = causal.positivity_screen(dataset, prop, 0.001)
print(f"positivity screen kept {len(kept)}, dropped {len(dropped)}")
trees = [causal.fit_causal_tree(kept, r, {"min_node_size": 400, "max_depth": 3,
                                          "honest": True}, "score", seed=0)
         for r in dataset.resource_set[1:]]
partition = causal.intersect_partitions(trees, kept, "score")
print(f"{partition.n_queues} queues from intersecting "
      f"{[t.resource for t in trees]} trees")

print("\n== 3. estimate effects and rates ==")
tau, queues = causal.estimate_cate_dr(kept, partition, prop, out)
window = float(kept.arrival_time.max())
instance = causal.arrival_rates(kept, partition, window, rho=0.99)
for q, lam, row in zip(queues, instance.lam, tau.tau):
    effects = ", ".join(f"{r}={v:+.3f}"
                        for r, v in zip(dataset.resource_set, row))
    print(f"  {q}: lambda={float(lam):.3f}/day, {effects}")

print("\n== 4. optimize the matching topology ==")
result = optimizer.solve(optimizer.build_mio(instance, tau))
print("eligibility matrix (queues x resources):")
print(result.topology.m)
print(f"objective {result.objective:.4f}, policy value "
      f"{result.policy_value:.4f}")

print("\n== 5. evaluate the learned policy ==")
policy = core.policy_from_flows(result.flows, instance)
queue_ids = partition.assign_dataset(kept)
gt = ope.evaluate_gt(kept, policy, queue_ids, instance)
dm = ope.evaluate_dm(kept, policy, queue_ids, out, instance)
dr = ope.evaluate_dr(kept, policy, queue_ids, out, prop, instance)
historical = float(np.mean(kept.outcome))
print(f"historical outcome mean: {historical:.4f}")
for est in (dm, dr, gt):
    print(f"{est.estimator:>3}: {est.value:.4f}")
print(f"\nthe optimized policy improves on the historical assignment by "
      f"{gt.value - historical:+.4f} (ground truth)")
