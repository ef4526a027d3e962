"""Experiment harness: sweeps ablation arms over missing rates and folds.

Each (arm, rate, fold) cell is one RunJob, which names only the scenario,
the arm, the rate and the fold split; run_one derives the dataset, seeds,
training config, net sizes and artifact paths from them.

Within a scenario every arm sees identical data, missingness masks, fold
memberships, and initial network weights; training seeds depend on
(rate, fold) but never on the arm, so two arms whose configurations make
the same decisions produce bit-identical trajectories.  Differences in
results therefore measure the method, not the randomness.

All artifact files are written deterministically: rerunning the same
scenario config produces byte-identical CSVs.
"""

from __future__ import annotations

import contextlib
import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

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
from .nets import ACTIVATIONS, StudentNet, TeacherNet, save_checkpoint, student_forward
from .prototypes import export_prototypes_csv
from .seeding import derive_seed
from .synthdata import (
    DatasetConfig,
    FoldSplit,
    Sample,
    generate_dataset,
    round_half_up,
    stratified_kfold,
)
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
    rates: Optional[tuple[float, ...]] = None  # per-arm override of the scenario's rate sweep

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
    arms: tuple[ArmSpec, ...]
    missing_rates: tuple[float, ...] = DEFAULT_MISSING_RATES
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
        # ArmSpec's defaults are TrainConfig's, so only a field every arm sets can differ
        per_arm = self.arm_train(ArmSpec(name="default"))
        for f in fields(TrainConfig):
            if getattr(self.train, f.name) != getattr(per_arm, f.name):
                raise ConfigError(f"train.{f.name} is set per arm, so each arm's own value "
                                  "replaces it; set it on the arms instead")
        if self.dataset.num_classes != 2:
            raise ConfigError("the metric suite is binary; dataset.num_classes must be 2")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if not self.arms:
            raise ConfigError("scenario needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError(f"arm names must be unique, got {names}")
        for r in self.missing_rates:
            if not (0.0 <= r <= 1.0):
                raise ConfigError(f"missing rate {r} outside [0, 1]")
        spc = self.dataset.samples_per_class
        for arm in self.arms:
            arm.validate()
            if not self.arm_rates(arm):
                raise ConfigError(f"arm {arm.name}: no missing rates to run")
            for r in self.arm_rates(arm):
                # missingness removes round_half_up(r * spc) samples from every class
                if spc - round_half_up(r * spc) < 1:
                    raise ConfigError(f"arm {arm.name}: missing rate {r} leaves no paired "
                                      f"sample in a class of {spc}")
            try:
                self.arm_train(arm).validate()
            except ConfigError as exc:
                raise ConfigError(f"arm {arm.name}: {exc}") from exc
        if self.feat_dim < 1 or self.hidden_width < 1:
            raise ConfigError("feat_dim and hidden_width must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )

    def arm_rates(self, arm: ArmSpec) -> tuple:
        return tuple(arm.rates) if arm.rates is not None else tuple(self.missing_rates)

    def arm_train(self, arm: ArmSpec) -> TrainConfig:
        """The scenario's training config with the arm's mechanisms switched in."""
        return replace(self.train, loss_weights=arm.loss_weights, ams_mode=arm.ams,
                       pcm_enabled=arm.pcm, proto_strategy=arm.proto_strategy)


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
    """One (arm, rate, fold) cell of a scenario, picklable; run_one derives the rest."""

    scenario: ScenarioConfig
    arm: ArmSpec
    rate: float
    fold: FoldSplit


def _rate_tag(rate: float) -> str:
    return repr(float(rate))


def _scenario_tag(rate: float) -> str:
    return f"rate={_rate_tag(rate)}"


def run_one(job: RunJob) -> MetricsRecord:
    """Train and evaluate a single (arm, rate, fold) cell; writes its own files."""
    cfg, data, rate, fold = job.scenario, job.scenario.dataset, job.rate, job.fold.fold_index
    samples = generate_dataset(replace(data, missing_rate=rate))
    by_id = {s.id: s for s in samples}
    train_samples = [by_id[i] for i in job.fold.train_ids]
    test_samples = [by_id[i] for i in job.fold.test_ids]

    teacher = TeacherNet.create(
        data.dim_a, data.dim_b, data.num_classes, cfg.feat_dim, cfg.hidden_width,
        cfg.activation, derive_seed(data.seed, "init", "teacher", rate, fold),
    )
    student = StudentNet.create(
        data.dim_a, data.num_classes, cfg.feat_dim, cfg.hidden_width,
        cfg.activation, derive_seed(data.seed, "init", "student", rate, fold),
    )
    train_cfg = replace(cfg.arm_train(job.arm), seed=derive_seed(data.seed, "train", rate, fold))
    result = fit(teacher, student, train_samples, train_cfg)

    labels = np.array([s.label for s in test_samples], dtype=np.int64)
    feats = np.stack([s.feat_a for s in test_samples])
    _, logits = student_forward(student, feats)
    scores = softmax(logits, axis=1)[:, 1]
    preds = np.argmax(logits, axis=1)
    record = classification_metrics(labels, scores, preds, fold=fold)

    stem = f"{job.arm.name}_rate{_rate_tag(rate)}_fold{fold}"
    export_trace_csv(result.epoch_traces, os.path.join(cfg.output_dir, "traces", stem + ".csv"))
    export_ams_trace_csv(
        [(t.epoch, t.theta, t.ratio) for t in result.epoch_traces],
        os.path.join(cfg.output_dir, "ams", stem + ".csv"),
    )
    export_prototypes_csv(result.prototypes,
                          os.path.join(cfg.output_dir, "prototypes", stem + ".csv"))
    save_checkpoint(student, os.path.join(cfg.output_dir, "checkpoints", stem + "_student.txt"))
    return record


def _build_jobs(cfg: ScenarioConfig) -> list:
    base = generate_dataset(replace(cfg.dataset, missing_rate=0.0))
    folds = stratified_kfold(base, cfg.k_folds, derive_seed(cfg.dataset.seed, "folds"))
    for sub in ("traces", "ams", "prototypes", "checkpoints"):
        os.makedirs(os.path.join(cfg.output_dir, sub), exist_ok=True)
    return [RunJob(cfg, arm, float(rate), fold)
            for arm in cfg.arms for rate in cfg.arm_rates(arm) for fold in folds]


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> RunSummary:
    """Run every (arm, rate, fold) cell, aggregate, and write all artifacts."""
    cfg.validate()
    job_list = _build_jobs(cfg)

    records: dict = {}
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        results = pool.map(run_one, job_list) if pool else map(run_one, job_list)
        for job in job_list:
            try:
                records[(job.arm.name, job.rate, job.fold.fold_index)] = next(results)
            except Exception as exc:
                if pool:  # no queued job starts once one has failed
                    pool.shutdown(cancel_futures=True)
                raise ProtocolError(
                    f"arm={job.arm.name} rate={job.rate} fold={job.fold.fold_index} "
                    f"failed: {exc}"
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

    summary = RunSummary(cells=tuple(cells))
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


# Values a scenario JSON may omit although the dataclass field has no default.
_JSON_DEFAULTS = {(ScenarioConfig, "train"): TrainConfig(), (DatasetConfig, "missing_rate"): 0.0}


def _read(tp, value, path: str):
    """`value` parsed from JSON as the declared type `tp`; ConfigError names `path`.

    A dataclass is read from an object of its fields, a tuple from a list,
    an Optional from null or its inner type.  Numbers are never strings or
    booleans, and an integral float such as 3.0 is stored as an int.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ConfigError(f"unknown {path} fields: {unknown}")
        hints = get_type_hints(tp)
        kwargs = {}
        for name, f in known.items():
            if name in value:
                kwargs[name] = _read(hints[name], value[name], f"{path}.{name}")
            elif (tp, name) in _JSON_DEFAULTS:
                kwargs[name] = _JSON_DEFAULTS[tp, name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path} is missing required field {name!r}")
        return tp(**kwargs)
    if get_origin(tp) is Union:  # Optional[inner]
        return None if value is None else _read(get_args(tp)[0], value, path)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        item = get_args(tp)[0]
        # records in a list are named arms[1], numbers missing_rates.0
        sub = "{}[{}]" if is_dataclass(item) else "{}.{}"
        return tuple(_read(item, v, sub.format(path, i)) for i, v in enumerate(value))
    if tp in (bool, str):
        if not isinstance(value, tp):
            kind = "true or false" if tp is bool else "a string"
            raise ConfigError(f"{path} must be {kind}, got {value!r}")
        return value
    if tp not in (int, float):
        raise TypeError(f"{path}: no JSON reading for declared type {tp!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if tp is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path} is out of range for a float, got {value!r}") from None


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON-shaped dict mirroring its field names."""
    return _read(ScenarioConfig, d, "scenario")


def load_summary_from_metrics_csv(path) -> RunSummary:
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
            where = f"{path} line {reader.line_num}"
            if len(row) != len(expected):
                raise ProtocolError(f"{where}: {len(row)} cells, the header has {len(expected)}")
            method, scen = row[0], row[1]
            if not scen.startswith("rate="):
                raise ProtocolError(f"{where}: unparseable scenario tag {scen!r}")
            try:
                rate = float(scen[len("rate="):])
                rec = MetricsRecord(int(row[2]), *(float(v) for v in row[3:]))
            except ValueError as exc:
                raise ProtocolError(f"{where}: {exc}") from exc
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
    return RunSummary(cells=tuple(cells))
