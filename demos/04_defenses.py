"""Hardware-variation defenses and why they fall short.

Measures how much HVIP (random device per query) and HAVIP (random
model+device pair per query) perturb the served outputs, then runs the
cloning attack against each defended service.
"""

import numpy as np

from qsteal import (
    AttackSpec,
    PQCTemplate,
    TrainConfig,
    accuracy,
    baseline_of,
    default_registry,
    havip,
    hvip,
    init_model,
    make_blobs,
    make_npd_sources,
    measure_obfuscation,
    mixed_query_set,
    run_attack_suite,
    train,
    train_test_split,
)

TASK_SEED = 7
task = make_blobs(k=4, d=8, n_per_class=150, separation=8.0, seed=TASK_SEED)
train_ds, test_ds = train_test_split(task, seed=TASK_SEED, train_size=400)
registry = default_registry()
devA, devB, ideal = registry.get("devA"), registry.get("devB"), registry.get("ideal")
cfg = TrainConfig(epochs=12, learning_rate=0.01, batch_size=32, loss="nll_top1", spsa_draws=8)


def fit(template_id, schedule, seed):
    model = init_model(PQCTemplate(template_id, 4), k=4, seed=seed)
    trained, hist = train(model, train_ds.features, train_ds.labels, cfg, schedule, seed,
                          test_ds.features, test_ds.labels)
    print(f"  {template_id} victim (seed {seed}): test acc {hist.final.test_accuracy:.3f}")
    return trained

print("training victims on noisy devices:")
hvip_victim = fit("PQC19", [(devA, 9), (devB, 3)], seed=1)
havip_a = fit("PQC1", devA, seed=11)
havip_b = fit("PQC19", devB, seed=21)

hvip_service = hvip(hvip_victim, [devA, devB], seed=1)
havip_service = havip([(havip_a, devA), (havip_b, devB)], seed=1)

sources = make_npd_sources(4, 8, 150, 8.0, TASK_SEED)
queries = mixed_query_set(sources, 300, seed=1)

print("\nobfuscation against the always-first-device baseline (300 queries):")
for name, svc in (("HVIP", hvip_service), ("HAVIP", havip_service)):
    report = measure_obfuscation(svc, baseline_of(svc), queries, seeds=[1])
    print(f"  {name}: mean TVD {report.mean_tvd:.4f}  top-1 mismatches {report.top1_mismatch_rate:.3%}")

print("\ncloning through each defense (Top-k, 700 mixed queries):")
spec = AttackSpec(mode="topk", da_size=700, query_kind="mixed", seed=1)
for name, svc in (("HVIP", hvip_service), ("HAVIP", havip_service)):
    # the same cell against the defended service and against its undefended baseline
    baseline = baseline_of(svc)
    [(ref_model, ref_dev)] = baseline.pairs
    shared = dict(query_sources=sources, d=8, train_cfg=cfg, clone_profile=ideal, eval_data=test_ds,
                  victim_accuracy=accuracy(ref_model, test_ds, ref_dev))
    (defended,), _ = run_attack_suite(svc, [spec], **shared)
    (undefended,), _ = run_attack_suite(baseline, [spec], **shared)
    print(f"  {name}: clone acc {defended.clone_accuracy:.3f} defended "
          f"vs {undefended.clone_accuracy:.3f} undefended "
          f"(gap {undefended.clone_accuracy - defended.clone_accuracy:+.3f})")
