"""The three workloads: inputs built from a seed, one round of operations, checks.

A round is the unit the runner repeats: one `run_scenario` call on the
training workloads, and a fixed number of `pgad export-embeddings` calls
plus one `pgad compare` on `embed_export`.  Every round of a run performs
the same operations on the same inputs and must write the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import stats

import checks
from pgad import cli, harness
from pgad.harness import ArmSpec, ScenarioConfig
from pgad.losses import LossWeights
from pgad.nets import StudentNet, TeacherNet, save_checkpoint
from pgad.seeding import derive_seed
from pgad.synthdata import DatasetConfig, generate_dataset, stratified_kfold
from pgad.trainer import TrainConfig, fit

GRID_JOBS = 2

# Sizes of the measured runs; the self-test uses TINY.
FULL = {
    "grid_samples_per_class": 200, "grid_epochs": 100,
    "cohort_samples_per_class": 2000, "cohort_epochs": 2,
    "embed_rows_per_class": 10000, "embed_calls_per_round": 2,
}
TINY = {
    "grid_samples_per_class": 40, "grid_epochs": 60,
    "cohort_samples_per_class": 100, "cohort_epochs": 30,
    "embed_rows_per_class": 50, "embed_calls_per_round": 2,
}


@dataclass
class Workload:
    name: str
    ops_per_round: int
    jobs: int
    outputs: list  # files and directories one round writes, digested after it
    prepare: Callable[[], None]  # before each round, untimed
    run_round: Callable[[], None]
    check: Callable[[], list]


def ablation_arms() -> tuple:
    """The six arms of the acceptance grid (tests/test_acceptance.py::ablation_arms)."""
    return (
        ArmSpec(name="baseline", pcm=False, ams="none", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
        ArmSpec(name="pcm", pcm=True, ams="none", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0.5)),
        ArmSpec(name="ams_fixed", pcm=True, ams="fixed", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5)),
        ArmSpec(name="full", pcm=True, ams="dynamic", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5), rates=(0.2, 0.5, 0.7)),
        ArmSpec(name="proto_none_ams", pcm=False, ams="dynamic", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
        ArmSpec(name="proto_all", pcm=True, ams="dynamic", proto_strategy="all",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5)),
    )


def dataset_config(samples_per_class: int, missing_rate: float, seed: int) -> DatasetConfig:
    return DatasetConfig(num_classes=2, samples_per_class=samples_per_class, dim_a=16,
                         dim_b=16, class_separation=6.5, noise_scale=1.6,
                         missing_rate=missing_rate, seed=seed)


def _training(name: str, cfg: ScenarioConfig, jobs: int) -> Workload:
    n_ops = sum(len(cfg.arm_rates(a)) for a in cfg.arms) * cfg.k_folds
    out = cfg.output_dir
    return Workload(
        name=name, ops_per_round=n_ops, jobs=jobs, outputs=[out],
        prepare=lambda: shutil.rmtree(out, ignore_errors=True),
        run_round=lambda: harness.run_scenario(cfg, jobs=jobs),
        check=lambda: check_training(cfg),
    )


def ablation_grid(seed: int, work: str, size: dict = FULL) -> Workload:
    cfg = ScenarioConfig(
        name=f"ablation_{seed}",
        dataset=dataset_config(size["grid_samples_per_class"], 0.0, seed),
        train=TrainConfig(epochs=size["grid_epochs"], batch_size=48, learning_rate=1e-3,
                          proto_assignment="true_class", seed=0),
        arms=ablation_arms(), missing_rates=(0.5,), k_folds=5,
        output_dir=os.path.join(work, "out"),
    )
    return _training("ablation_grid", cfg, GRID_JOBS)


def large_cohort(seed: int, work: str, size: dict = FULL) -> Workload:
    full = ablation_arms()[3]
    cfg = ScenarioConfig(
        name=f"cohort_{seed}",
        dataset=dataset_config(size["cohort_samples_per_class"], 0.0, seed),
        # Few epochs, so a larger step than the grid's 1e-3: at 1e-3 some seeds leave
        # a fold at or below chance after 2 epochs.  Per-step work does not change.
        train=TrainConfig(epochs=size["cohort_epochs"], batch_size=48, learning_rate=1e-2,
                          proto_assignment="true_class", seed=0),
        arms=(full,), missing_rates=full.rates, k_folds=5,
        output_dir=os.path.join(work, "out"),
    )
    return _training("large_cohort", cfg, 1)


def check_training(cfg: ScenarioConfig) -> list:
    """Recompute every fold's metrics from its checkpoint; check traces and summary."""
    base = generate_dataset(replace(cfg.dataset, missing_rate=0.0))
    feats = np.stack([s.feat_a for s in base])
    labels = np.array([s.label for s in base])
    if not np.array_equal([s.id for s in base], np.arange(len(base))):
        return ["dataset ids are not 0..N-1"]
    folds = stratified_kfold(base, cfg.k_folds, derive_seed(cfg.dataset.seed, "folds"))
    test_sets = [set(f.test_ids) for f in folds]
    if sum(map(len, test_sets)) != len(base) or set().union(*test_sets) != set(range(len(base))):
        return ["fold test sets do not partition the dataset"]

    out = cfg.output_dir
    found = checks.read_metrics_csv(os.path.join(out, "metrics.csv"))
    errors = []
    expected_keys = set()
    for arm in cfg.arms:
        for rate in cfg.arm_rates(arm):
            for fold in folds:
                key = (arm.name, float(rate), fold.fold_index)
                expected_keys.add(key)
                stem = f"{arm.name}_rate{float(rate)!r}_fold{fold.fold_index}"
                errors += checks.check_trace(
                    os.path.join(out, "traces", stem + ".csv"),
                    os.path.join(out, "ams", stem + ".csv"), cfg.train.epochs, arm.ams)
                parts = checks.read_student_checkpoint(
                    os.path.join(out, "checkpoints", stem + "_student.txt"))
                test = np.array(fold.test_ids)
                _, logits = checks.student_outputs(parts, feats[test])
                recomputed = checks.fold_metrics(labels[test], logits)
                if key in found:
                    errors += checks.check_metrics(found[key], recomputed, stem)
    if set(found) != expected_keys:
        errors.append(f"metrics.csv holds {len(found)} rows, expected {len(expected_keys)}")

    header, rows = checks.read_csv(os.path.join(out, "summary.csv"))
    for row in rows:
        cell = [v for k, v in found.items() if k[0] == row[0] and k[1] == float(row[1])]
        for m in checks.METRICS:
            mean = float(np.mean([v[m] for v in cell])) if cell else float("nan")
            if not abs(float(row[header.index(f"{m}_mean")]) - mean) <= checks.TOL:
                errors.append(f"summary.csv: {row[0]} rate {row[1]} {m}_mean != fold mean")
    return errors


def _write_dataset_csv(samples, path: str) -> None:
    dim_a = samples[0].feat_a.size
    dim_b = next(s.feat_b.size for s in samples if s.paired)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label", "paired"] + [f"a_{i}" for i in range(dim_a)]
                   + [f"b_{i}" for i in range(dim_b)])
        for s in samples:
            b = [repr(float(v)) for v in s.feat_b] if s.paired else [""] * dim_b
            w.writerow([s.id, s.label, int(s.paired)] + [repr(float(v)) for v in s.feat_a] + b)


def _write_metrics_csv(rng: np.random.Generator, path: str) -> None:
    """Five folds of three arms at one rate, with arm-dependent means."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "scenario", "fold"] + list(checks.METRICS))
        for shift, arm in enumerate(("baseline", "pcm", "full")):
            for fold in range(5):
                vals = np.clip(0.6 + 0.03 * shift + 0.05 * rng.standard_normal(4), 0.0, 1.0)
                w.writerow([arm, "rate=0.5", fold] + [repr(float(v)) for v in vals])


def embed_export(seed: int, work: str, size: dict = FULL) -> Workload:
    inputs = os.path.join(work, "inputs")
    summary_dir = os.path.join(work, "summary")
    out = os.path.join(work, "out")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(summary_dir, exist_ok=True)

    samples = generate_dataset(dataset_config(size["embed_rows_per_class"], 0.5, seed))
    data_path = os.path.join(inputs, "cohort.csv")
    _write_dataset_csv(samples, data_path)

    train = generate_dataset(dataset_config(100, 0.5, derive_seed(seed, "train")))
    teacher = TeacherNet.create(16, 16, 2, seed=derive_seed(seed, "teacher"))
    student = StudentNet.create(16, 2, seed=derive_seed(seed, "student"))
    fit(teacher, student, train, TrainConfig(epochs=3, batch_size=48, learning_rate=1e-3,
                                             proto_assignment="true_class", seed=seed))
    ckpt = os.path.join(inputs, "student.txt")
    save_checkpoint(student, ckpt)
    metrics = os.path.join(summary_dir, "metrics.csv")
    _write_metrics_csv(np.random.default_rng(derive_seed(seed, "metrics")), metrics)

    calls = size["embed_calls_per_round"]
    comparisons = os.path.join(summary_dir, "comparisons.csv")

    def prepare():
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if os.path.exists(comparisons):
            os.remove(comparisons)

    def run_round():
        argvs = [["export-embeddings", "--checkpoint", ckpt, "--data", data_path,
                  "--out", os.path.join(out, f"embeddings-{i}.csv")] for i in range(calls)]
        argvs.append(["compare", "--summary", summary_dir, "--baseline", "baseline"])
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"pgad {argv[0]} exited with {code}")

    ids = np.array([s.id for s in samples])
    labels = np.array([s.label for s in samples])
    paired = np.array([int(s.paired) for s in samples])
    feats_a = np.stack([s.feat_a for s in samples])

    def check():
        errors = []
        feats, _ = checks.student_outputs(checks.read_student_checkpoint(ckpt), feats_a)
        for i in range(calls):
            errors += checks.check_embeddings(os.path.join(out, f"embeddings-{i}.csv"),
                                              ids, labels, paired, feats)
        return errors + check_comparisons(metrics, comparisons)

    return Workload(name="embed_export", ops_per_round=calls, jobs=1,
                    outputs=[out, comparisons], prepare=prepare, run_round=run_round,
                    check=check)


def check_comparisons(metrics_path: str, comparisons_path: str) -> list:
    """t statistics and p-values of `pgad compare` against scipy.stats.ttest_rel."""
    values = checks.read_metrics_csv(metrics_path)
    header, rows = checks.read_csv(comparisons_path)
    arms = sorted({k[0] for k in values} - {"baseline"})
    if len(rows) != len(arms) * len(checks.METRICS):
        return [f"{comparisons_path}: {len(rows)} rows, expected {len(arms) * 4}"]
    errors = []
    for row in rows:
        rec = dict(zip(header, row))
        a = [values[(rec["method_a"], 0.5, f)][rec["metric"]] for f in range(5)]
        b = [values[(rec["method_b"], 0.5, f)][rec["metric"]] for f in range(5)]
        ref = stats.ttest_rel(a, b)
        alpha = 0.05 / (len(arms) * len(checks.METRICS))
        if (abs(float(rec["t"]) - ref.statistic) > checks.TOL * max(1.0, abs(ref.statistic))
                or abs(float(rec["p"]) - ref.pvalue) > checks.TOL
                or int(rec["significant"]) != int(ref.pvalue < alpha)):
            errors.append(f"compare {rec['method_a']} {rec['metric']}: t={rec['t']} "
                          f"p={rec['p']}, scipy t={ref.statistic} p={ref.pvalue}")
    return errors


BUILDERS = {"ablation_grid": ablation_grid, "large_cohort": large_cohort,
            "embed_export": embed_export}
