"""Experiment harness: sweeps ablation arms over missing rates and folds.

Within a scenario every arm sees identical data, missingness masks, fold
memberships, and initial network weights; training seeds depend on
(rate, fold) but never on the arm, so two arms whose configurations make
the same decisions produce bit-identical trajectories.  Differences in
results therefore measure the method, not the randomness.

All artifact files are written deterministically: rerunning the same
scenario config produces byte-identical CSVs.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import softmax

from .ams import export_ams_trace_csv
from .errors import ConfigError, ProtocolError, UsageError
from .evaluation import (
    METRIC_NAMES,
    ComparisonResult,
    MetricsRecord,
    bonferroni,
    classification_metrics,
    export_metrics_csv,
    paired_ttest,
)
from .losses import LossWeights
from .nets import StudentNet, TeacherNet, save_checkpoint, student_forward
from .prototypes import export_prototypes_csv
from .seeding import derive_seed
from .synthdata import DatasetConfig, Sample, generate_dataset, stratified_kfold
from .trainer import TrainConfig, export_trace_csv, fit

DEFAULT_MISSING_RATES = (0.2, 0.5, 0.7)
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class ArmSpec:
    """One ablation arm: which mechanisms are on and with what weights."""

    name: str
    pcm: bool = True
    ams: str = "dynamic"
    proto_strategy: str = "paired"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    rates: Optional[tuple] = None  # per-arm override of the scenario's rate sweep

    def validate(self) -> None:
        if not self.name or any(ch in self.name for ch in ",/\\ "):
            raise ConfigError(f"arm name must be nonempty without separators, got {self.name!r}")
        if self.proto_strategy == "none" and self.pcm:
            raise ConfigError(f"arm {self.name}: prototype strategy 'none' forces pcm off")
        if self.rates is not None:
            for r in self.rates:
                if not (0.0 <= r <= 1.0):
                    raise ConfigError(f"arm {self.name}: missing rate {r} outside [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dataset: DatasetConfig
    train: TrainConfig
    arms: tuple
    missing_rates: tuple = DEFAULT_MISSING_RATES
    k_folds: int = 5
    feat_dim: int = 16
    hidden_width: int = 32
    activation: str = "tanh"
    output_dir: str = "out"

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        self.dataset.validate()
        self.train.validate()
        if self.dataset.num_classes != 2:
            raise ConfigError("the metric suite is binary; dataset.num_classes must be 2")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if not self.arms:
            raise ConfigError("scenario needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError(f"arm names must be unique, got {names}")
        for arm in self.arms:
            arm.validate()
        for r in self.missing_rates:
            if not (0.0 <= r <= 1.0):
                raise ConfigError(f"missing rate {r} outside [0, 1]")
        if self.feat_dim < 1 or self.hidden_width < 1:
            raise ConfigError("feat_dim and hidden_width must be >= 1")

    def arm_rates(self, arm: ArmSpec) -> tuple:
        return tuple(arm.rates) if arm.rates is not None else tuple(self.missing_rates)


@dataclass(frozen=True)
class CellSummary:
    """Aggregate of one (arm, rate) cell over folds."""

    arm: str
    rate: float
    mean: dict
    std: dict
    records: tuple

    @classmethod
    def from_records(cls, arm: str, rate: float, records: tuple) -> "CellSummary":
        """Mean and sample standard deviation (ddof=1) of each metric over the folds."""
        mean = {m: float(np.mean([r.get(m) for r in records])) for m in METRIC_NAMES}
        std = {m: float(np.std([r.get(m) for r in records], ddof=1)) for m in METRIC_NAMES}
        return cls(arm=arm, rate=rate, mean=mean, std=std, records=records)


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    k_folds: int
    cells: tuple

    def cell(self, arm: str, rate: float) -> CellSummary:
        for c in self.cells:
            if c.arm == arm and c.rate == rate:
                return c
        raise ConfigError(f"no cell for arm={arm!r} rate={rate}")

    def arms(self) -> list:
        seen = []
        for c in self.cells:
            if c.arm not in seen:
                seen.append(c.arm)
        return seen

    def rates(self) -> list:
        seen = []
        for c in self.cells:
            if c.rate not in seen:
                seen.append(c.rate)
        return seen


@dataclass(frozen=True)
class RunJob:
    """Everything one (arm, rate, fold) training run needs, picklable."""

    scenario_name: str
    dataset: DatasetConfig
    train_cfg: TrainConfig
    arm_name: str
    rate: float
    fold_index: int
    train_ids: tuple
    test_ids: tuple
    teacher_seed: int
    student_seed: int
    num_classes: int
    feat_dim: int
    hidden_width: int
    activation: str
    trace_path: str
    ams_path: str
    proto_path: str
    checkpoint_path: str


def _rate_tag(rate: float) -> str:
    return repr(float(rate))


def _scenario_tag(rate: float) -> str:
    return f"rate={_rate_tag(rate)}"


def run_one(job: RunJob) -> MetricsRecord:
    """Train and evaluate a single (arm, rate, fold) cell; writes its own files."""
    samples = generate_dataset(replace(job.dataset, missing_rate=job.rate))
    by_id = {s.id: s for s in samples}
    train_samples = [by_id[i] for i in job.train_ids]
    test_samples = [by_id[i] for i in job.test_ids]

    teacher = TeacherNet.create(
        job.dataset.dim_a, job.dataset.dim_b, job.num_classes,
        job.feat_dim, job.hidden_width, job.activation, job.teacher_seed,
    )
    student = StudentNet.create(
        job.dataset.dim_a, job.num_classes,
        job.feat_dim, job.hidden_width, job.activation, job.student_seed,
    )
    result = fit(teacher, student, train_samples, job.train_cfg)

    labels = np.array([s.label for s in test_samples], dtype=np.int64)
    feats = np.stack([s.feat_a for s in test_samples])
    _, logits = student_forward(student, feats)
    scores = softmax(logits, axis=1)[:, 1]
    preds = np.argmax(logits, axis=1)
    record = classification_metrics(labels, scores, preds, fold=job.fold_index)

    export_trace_csv(result.epoch_traces, job.trace_path)
    export_ams_trace_csv(
        [(t.epoch, t.theta, t.ratio) for t in result.epoch_traces], job.ams_path
    )
    export_prototypes_csv(result.prototypes, job.proto_path)
    save_checkpoint(student, job.checkpoint_path)
    return record


def _build_jobs(cfg: ScenarioConfig) -> list:
    root = cfg.dataset.seed
    base = generate_dataset(replace(cfg.dataset, missing_rate=0.0))
    folds = stratified_kfold(base, cfg.k_folds, derive_seed(root, "folds"))

    out = cfg.output_dir
    for sub in ("traces", "ams", "prototypes", "checkpoints"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)

    jobs = []
    for arm in cfg.arms:
        for rate in cfg.arm_rates(arm):
            for fold in folds:
                train_cfg = replace(
                    cfg.train,
                    loss_weights=arm.loss_weights,
                    ams_mode=arm.ams,
                    pcm_enabled=arm.pcm,
                    proto_strategy=arm.proto_strategy,
                    seed=derive_seed(root, "train", float(rate), fold.fold_index),
                )
                stem = f"{arm.name}_rate{_rate_tag(rate)}_fold{fold.fold_index}"
                jobs.append(RunJob(
                    scenario_name=cfg.name,
                    dataset=cfg.dataset,
                    train_cfg=train_cfg,
                    arm_name=arm.name,
                    rate=float(rate),
                    fold_index=fold.fold_index,
                    train_ids=fold.train_ids,
                    test_ids=fold.test_ids,
                    teacher_seed=derive_seed(root, "init", "teacher", float(rate), fold.fold_index),
                    student_seed=derive_seed(root, "init", "student", float(rate), fold.fold_index),
                    num_classes=cfg.dataset.num_classes,
                    feat_dim=cfg.feat_dim,
                    hidden_width=cfg.hidden_width,
                    activation=cfg.activation,
                    trace_path=os.path.join(out, "traces", stem + ".csv"),
                    ams_path=os.path.join(out, "ams", stem + ".csv"),
                    proto_path=os.path.join(out, "prototypes", stem + ".csv"),
                    checkpoint_path=os.path.join(out, "checkpoints", stem + "_student.txt"),
                ))
    return jobs


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> RunSummary:
    """Run every (arm, rate, fold) cell, aggregate, and write all artifacts."""
    cfg.validate()
    job_list = _build_jobs(cfg)

    records: dict = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(job, pool.submit(run_one, job)) for job in job_list]
            for job, fut in futures:
                try:
                    records[(job.arm_name, job.rate, job.fold_index)] = fut.result()
                except Exception as exc:
                    raise ProtocolError(
                        f"arm={job.arm_name} rate={job.rate} fold={job.fold_index} failed: {exc}"
                    ) from exc
    else:
        for job in job_list:
            try:
                records[(job.arm_name, job.rate, job.fold_index)] = run_one(job)
            except Exception as exc:
                raise ProtocolError(
                    f"arm={job.arm_name} rate={job.rate} fold={job.fold_index} failed: {exc}"
                ) from exc

    cells = []
    metric_rows = []
    for arm in cfg.arms:
        for rate in cfg.arm_rates(arm):
            fold_records = tuple(
                records[(arm.name, float(rate), f)] for f in range(cfg.k_folds)
            )
            cells.append(CellSummary.from_records(arm.name, float(rate), fold_records))
            for rec in fold_records:
                metric_rows.append((arm.name, _scenario_tag(rate), rec))

    summary = RunSummary(scenario=cfg.name, k_folds=cfg.k_folds, cells=tuple(cells))
    export_metrics_csv(metric_rows, os.path.join(cfg.output_dir, "metrics.csv"))
    _export_summary_csv(summary, os.path.join(cfg.output_dir, "summary.csv"))
    _export_report_md(cfg, summary, os.path.join(cfg.output_dir, "report.md"))
    return summary


def _export_summary_csv(summary: RunSummary, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["method", "rate"]
        for m in METRIC_NAMES:
            header += [f"{m}_mean", f"{m}_std"]
        writer.writerow(header)
        for cell in summary.cells:
            row = [cell.arm, _rate_tag(cell.rate)]
            for m in METRIC_NAMES:
                row += [repr(cell.mean[m]), repr(cell.std[m])]
            writer.writerow(row)


def _export_report_md(cfg: ScenarioConfig, summary: RunSummary, path) -> None:
    lines = [f"# Scenario: {cfg.name}", ""]
    lines.append(f"{cfg.k_folds}-fold cross validation, "
                 f"{cfg.dataset.num_classes * cfg.dataset.samples_per_class} samples.")
    lines.append("")
    for rate in summary.rates():
        lines.append(f"## Missing rate {_rate_tag(rate)}")
        lines.append("")
        lines.append("| arm | " + " | ".join(m.upper() for m in METRIC_NAMES) + " |")
        lines.append("|" + "---|" * (1 + len(METRIC_NAMES)))
        for cell in summary.cells:
            if cell.rate != rate:
                continue
            vals = [f"{cell.mean[m]:.4f} ± {cell.std[m]:.4f}" for m in METRIC_NAMES]
            lines.append("| " + " | ".join([cell.arm] + vals) + " |")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def export_embeddings(student: StudentNet, samples: Sequence[Sample], path) -> None:
    """Write student features as CSV rows id,label,paired,h_0..h_{H-1}."""
    if not samples:
        raise UsageError("cannot export embeddings for an empty sample list")
    feats = np.stack([s.feat_a for s in samples])
    h, _ = student_forward(student, feats)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "paired"] + [f"h_{i}" for i in range(h.shape[1])])
        for s, row in zip(samples, h):
            writer.writerow([s.id, s.label, int(s.paired)] + [repr(float(v)) for v in row])


def compare_arms(
    summary: RunSummary,
    baseline: str,
    alpha: float = DEFAULT_ALPHA,
    m: Optional[int] = None,
    rate: Optional[float] = None,
) -> list:
    """Paired t-tests of every arm against the baseline, per metric.

    The summary must be restricted to a single missing rate; pass `rate`
    to select one when the scenario swept several.
    """
    rates = summary.rates()
    if rate is None:
        if len(rates) != 1:
            raise ConfigError(
                f"summary spans rates {rates}; pass rate= to pick the comparison slice"
            )
        rate = rates[0]
    arms = [a for a in summary.arms()
            if any(c.arm == a and c.rate == rate for c in summary.cells)]
    if baseline not in arms:
        raise ConfigError(f"baseline arm {baseline!r} not present at rate {rate}")
    others = [a for a in arms if a != baseline]
    if not others:
        raise ConfigError("nothing to compare: the baseline is the only arm")
    if m is None:
        m = len(others) * len(METRIC_NAMES)
    threshold = bonferroni(alpha, m)

    base_cell = summary.cell(baseline, rate)
    base_folds = [r.fold for r in base_cell.records]
    results = []
    for arm in others:
        cell = summary.cell(arm, rate)
        folds = [r.fold for r in cell.records]
        if folds != base_folds:
            raise ProtocolError(
                f"fold mismatch: {arm} has {folds}, {baseline} has {base_folds}"
            )
        for metric in METRIC_NAMES:
            a_vals = [r.get(metric) for r in cell.records]
            b_vals = [r.get(metric) for r in base_cell.records]
            tt = paired_ttest(a_vals, b_vals)
            results.append(ComparisonResult(
                method_a=arm,
                method_b=baseline,
                metric=metric,
                t_statistic=tt.t_statistic,
                p_value=tt.p_value,
                significant=tt.p_value < threshold,
                alpha_corrected=threshold,
            ))
    return results


def _checked_keys(d: dict, allowed, context: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def _checked_numbers(d: dict, ints: tuple, reals: tuple, section: str) -> dict:
    """Copy of d whose listed fields hold numbers, the `ints` ones integral.

    JSON may hold "3", true or 2.5 where a count is meant; left alone these
    escape validate() as a TypeError or pass as a wrong value.  An integral
    float such as 3.0 is accepted for an integer field and stored as an int.
    """
    out = dict(d)
    for key in (k for k in ints + reals if k in out):
        value = out[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        if key in ints:
            if not float(value).is_integer():
                raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
            out[key] = int(value)
    return out


def _checked_bools(d: dict, keys: tuple, section: str) -> None:
    """JSON "false" is a truthy string; only true and false may switch a mechanism."""
    for key in (k for k in keys if k in d):
        if not isinstance(d[key], bool):
            raise ConfigError(f"{section}.{key} must be true or false, got {d[key]!r}")


def _weights_from_dict(d: dict) -> LossWeights:
    _checked_keys(d, ("tea", "stu", "kl", "pair", "proto"), "loss_weights")
    return LossWeights(**_checked_numbers(d, (), ("tea", "stu", "kl", "pair", "proto"),
                                          "loss_weights"))


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON-shaped dict mirroring its field names."""
    _checked_keys(
        d,
        ("name", "dataset", "train", "arms", "missing_rates", "k_folds",
         "feat_dim", "hidden_width", "activation", "output_dir"),
        "scenario",
    )
    for key in ("name", "dataset", "arms"):
        if key not in d:
            raise ConfigError(f"scenario config is missing required field {key!r}")

    ds = dict(d["dataset"])
    _checked_keys(
        ds,
        ("num_classes", "samples_per_class", "dim_a", "dim_b", "class_separation",
         "noise_scale", "missing_rate", "seed"),
        "dataset",
    )
    ds.setdefault("missing_rate", 0.0)
    ds = _checked_numbers(
        ds, ("num_classes", "samples_per_class", "dim_a", "dim_b", "seed"),
        ("class_separation", "noise_scale", "missing_rate"), "dataset",
    )
    dataset = DatasetConfig(**ds)

    tr = dict(d.get("train", {}))
    _checked_keys(
        tr,
        ("epochs", "batch_size", "learning_rate", "weight_decay", "kd_temperature",
         "sim_temperature", "loss_weights", "ams_mode", "fixed_ratio", "pcm_enabled",
         "proto_strategy", "proto_momentum", "proto_assignment", "pcm_on_pseudo",
         "two_stage", "grad_clip", "seed"),
        "train",
    )
    tr = _checked_numbers(
        tr, ("epochs", "batch_size", "seed"),
        ("learning_rate", "weight_decay", "kd_temperature", "sim_temperature",
         "fixed_ratio", "proto_momentum", "grad_clip"), "train",
    )
    _checked_bools(tr, ("pcm_enabled", "pcm_on_pseudo", "two_stage"), "train")
    if "loss_weights" in tr:
        tr["loss_weights"] = _weights_from_dict(tr["loss_weights"])
    train = TrainConfig(**tr)

    arms = []
    for index, raw in enumerate(d["arms"]):
        a = dict(raw)
        _checked_keys(a, ("name", "pcm", "ams", "proto_strategy", "loss_weights", "rates"),
                      "arm")
        _checked_bools(a, ("pcm",), f"arms[{index}]")
        if "loss_weights" in a:
            a["loss_weights"] = _weights_from_dict(a["loss_weights"])
        if "rates" in a and a["rates"] is not None:
            a["rates"] = tuple(float(r) for r in a["rates"])
        arms.append(ArmSpec(**a))

    kwargs = dict(
        name=d["name"],
        dataset=dataset,
        train=train,
        arms=tuple(arms),
        k_folds=int(d.get("k_folds", 5)),
        feat_dim=int(d.get("feat_dim", 16)),
        hidden_width=int(d.get("hidden_width", 32)),
        activation=str(d.get("activation", "tanh")),
        output_dir=str(d.get("output_dir", "out")),
    )
    if "missing_rates" in d:
        kwargs["missing_rates"] = tuple(float(r) for r in d["missing_rates"])
    return ScenarioConfig(**kwargs)


def load_summary_from_metrics_csv(path, scenario: str = "", k_folds: Optional[int] = None) -> RunSummary:
    """Rebuild a RunSummary from a metrics.csv written by run_scenario."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ProtocolError(f"{path} is empty: a metrics CSV needs a header row")
        expected = ["method", "scenario", "fold", "mcc", "auc", "sen", "spe"]
        if header != expected:
            raise ProtocolError(f"unexpected metrics header {header}, wanted {expected}")
        for row in reader:
            method, scen, fold = row[0], row[1], int(row[2])
            if not scen.startswith("rate="):
                raise ProtocolError(f"unparseable scenario tag {scen!r}")
            rate = float(scen[len("rate="):])
            rec = MetricsRecord(fold=fold, mcc=float(row[3]), auc=float(row[4]),
                                sen=float(row[5]), spe=float(row[6]))
            rows.append((method, rate, rec))

    cells = []
    seen = []
    for method, rate, _ in rows:
        if (method, rate) not in seen:
            seen.append((method, rate))
    for method, rate in seen:
        recs = tuple(sorted(
            (r for mth, rt, r in rows if mth == method and rt == rate),
            key=lambda r: r.fold,
        ))
        cells.append(CellSummary.from_records(method, rate, recs))
    k = k_folds if k_folds is not None else (len(cells[0].records) if cells else 0)
    return RunSummary(scenario=scenario, k_folds=k, cells=tuple(cells))
