"""End-to-end walkthrough on synthetic data.

Generates an observational dataset with known potential outcomes, learns the
nuisance models and effect trees, builds queues, solves for the best matching
topology, and compares off-policy value estimates against ground truth.

Run:  python3 demos/quickstart.py
"""

import numpy as np

from fairmatch import causal, ope, optimizer, synth

N = 10_000

print("== 1. synthesize observational data ==")
dataset = synth.generate(synth.SynthParams(n=N, seed=0))
print(f"{len(dataset)} records, resources {dataset.resource_set}, "
      f"baseline {dataset.baseline!r}")

print("\n== 2. learn effect trees, queues and rates ==")
# nuisance models, positivity screen, one causal tree per non-baseline
# resource, their intersection into queues, arrival rates; the settings are
# causal.PIPELINE_DEFAULTS
learned = causal.learn(dataset, seed=0)
kept, instance, tau = learned.kept, learned.instance, learned.tau
print(f"positivity screen kept {len(kept)}, dropped {learned.n_screened}")
print(f"{learned.partition.n_queues} queues from intersecting "
      f"{[t.resource for t in learned.trees]} trees")

print("\n== 3. estimated effects and rates ==")
for q, lam, row in zip(instance.queues, instance.lam, tau.tau):
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
# learned.scores holds each record's scores under every estimator, built once;
# a policy's value is their mean weighted by the policy's row for the
# record's queue
values = ope.evaluate_all(("DM", "DR", "GT"), learned.scores, result.flows,
                          instance, tau)
historical = float(np.mean(kept.outcome))
print(f"historical outcome mean: {historical:.4f}")
for name, value in values.items():
    print(f"{name:>3}: {value:.4f}")
print(f"\nthe optimized policy improves on the historical assignment by "
      f"{values['GT'] - historical:+.4f} (ground truth)")
