"""Price of fairness on synthetic data.

Splits queues by a group label, sweeps a maximin bound on the worst group's
expected outcome gain, and reports how the overall objective shrinks as the
bound tightens.

Run:  python3 demos/fairness_tradeoff.py
"""

import numpy as np

from fairmatch import causal, core, ope, optimizer, synth

print("== pipeline with a protected group label ==")
params = synth.SynthParams(n=10_000, seed=1,
                           group_probs={"race": {"A": 0.5, "B": 0.5}})
dataset = synth.generate(params)
learned = causal.learn(dataset, seed=1, group_dimension="race")
kept, instance, tau, groups = learned.kept, learned.instance, learned.tau, learned.groups
print(f"{instance.n_queues} queues across groups {sorted(groups)}")


labels = kept.groups["race"]
baseline_by_group = {
    g: causal.dr_potential_mean(kept.subset(labels == g), learned.out,
                                learned.prop, kept.baseline)
    for g in groups
}


def group_gains(result):
    """Per-group expected outcome gain over the baseline resource."""
    policy = core.policy_from_flows(result.flows, instance)
    values = ope.per_group_values(kept, policy, learned.queue_ids, instance, "DR",
                                  "race", out=learned.out, prop=learned.prop)
    return {g: v - baseline_by_group[g] for g, v in values.items()}


free = optimizer.solve(optimizer.build_mio(instance, tau))
free_gains = group_gains(free)
print(f"\nunconstrained objective {free.objective:.4f}, group gains "
      f"{({g: round(v, 4) for g, v in free_gains.items()})}")

print("\n== maximin sweep ==")
print(f"{'bound w':>8} {'objective':>10} {'worst gain':>12}")
for w in np.linspace(min(free_gains.values()), max(free_gains.values()), 7):
    spec = optimizer.FairnessSpec("maximin_outcome", float(w), "race", groups)
    try:
        result = optimizer.solve(optimizer.build_mio(instance, tau, spec))
    except optimizer.InfeasibleModelError:
        print(f"{w:8.3f} {'infeasible':>10}")
        continue
    gains = group_gains(result)
    print(f"{w:8.3f} {result.objective:10.4f} {min(gains.values()):12.4f}")

print("\ntightening the bound protects the worst-off group at the cost of "
      "total expected gain")
