"""Experiment harness: sweeps ablation arms over missing rates and folds.

Each (arm, rate, fold) run is one RunJob: the scenario, the arm, the
rate, the rate's dataset and the fold's test rows.  A scenario's data is
drawn once, as columns: _build_jobs makes one feature draw, one
missingness mask per rate and the folds as row indices, and every job of a
rate shares that rate's synthdata.Dataset, whose arrays all rates share.
_run_folds gathers each fold's training pools from the dataset by row
index, derives the seeds, training config, net sizes and artifact paths,
and trains the folds it is given with trainer.fit_runs.

In this process (jobs=1) each (arm, rate) cell's folds train in lockstep,
along one run axis: one step for all of them, with the cell's fold pools
held in memory together.  A worker pool (jobs > 1) runs one fold per
run_one job, which is the same code at one run.  Both write the same
bytes.

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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
from scipy.special import softmax

from .ams import AMS_MODES, export_ams_trace_csv, prepare_pools
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
from .synthdata import Dataset, DatasetConfig, draw_datasets, kfold_rows
from .trainer import PROTO_STRATEGIES, TrainConfig, export_trace_csv, fit_runs

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

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in ",/\\ "):
            raise ConfigError(f"arm name must be nonempty without separators, got {self.name!r}")
        if self.ams not in AMS_MODES:
            raise ConfigError(f"arm {self.name}: ams must be one of {AMS_MODES}, got {self.ams!r}")
        if self.proto_strategy not in PROTO_STRATEGIES:
            raise ConfigError(f"arm {self.name}: proto_strategy must be one of "
                              f"{PROTO_STRATEGIES}, got {self.proto_strategy!r}")
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
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        if self.dataset.missing_rate != 0.0:
            raise ConfigError(
                f"dataset.missing_rate is {self.dataset.missing_rate}, but a scenario "
                "draws its missingness per rate: set the rates in missing_rates or in the "
                "arms' rates and leave dataset.missing_rate at 0"
            )
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
        for arm in self.arms:
            rates = self.arm_rates(arm)
            if not rates:
                raise ConfigError(f"arm {arm.name}: no missing rates to run")
            if len(set(rates)) != len(rates):
                raise ConfigError(f"arm {arm.name}: missing rates repeat, got {list(rates)}")
        if self.feat_dim < 1 or self.hidden_width < 1:
            raise ConfigError("feat_dim and hidden_width must be >= 1")

    def arm_rates(self, arm: ArmSpec) -> tuple:
        return tuple(arm.rates) if arm.rates is not None else tuple(self.missing_rates)

    def arm_train(self, arm: ArmSpec) -> TrainConfig:
        """The scenario's training config with the arm's mechanisms switched in;
        an arm with pcm off trains under prototype strategy "none"."""
        return replace(self.train, loss_weights=arm.loss_weights, ams_mode=arm.ams,
                       proto_strategy=arm.proto_strategy if arm.pcm else "none")


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
    """One (arm, rate, fold) run of a scenario, picklable; _run_folds derives the rest.

    `data` is the scenario's dataset at `rate`, and `test_rows` are the rows
    of it that fold `fold` tests on; the other rows train.
    """

    scenario: ScenarioConfig
    arm: ArmSpec
    rate: float
    data: Dataset
    fold: int
    test_rows: tuple


def _rate_tag(rate: float) -> str:
    return repr(float(rate))


def _scenario_tag(rate: float) -> str:
    return f"rate={_rate_tag(rate)}"


def run_one(job: RunJob) -> MetricsRecord:
    """Train and evaluate a single (arm, rate, fold) run; writes its own files."""
    return _run_folds([job])[0]


def _run_folds(jobs: list) -> list:
    """Train the folds of one (arm, rate) cell in lockstep (trainer.fit_runs),
    then evaluate each and write its files; returns the records in job order.

    A failure that belongs to one fold carries its index in `jobs` as
    `exc.run`, as trainer.fit_runs marks it.
    """
    runs, train_cfgs = [], []
    for job in jobs:
        cfg, dims, rate, fold, data = (job.scenario, job.scenario.dataset, job.rate, job.fold,
                                       job.data)
        is_test = np.zeros(len(data), dtype=bool)
        is_test[np.array(job.test_rows, dtype=np.int64)] = True
        teacher = TeacherNet.create(
            dims.dim_a, dims.dim_b, dims.num_classes, cfg.feat_dim, cfg.hidden_width,
            seed=derive_seed(dims.seed, "init", "teacher", rate, fold),
        )
        student = StudentNet.create(
            dims.dim_a, dims.num_classes, cfg.feat_dim, cfg.hidden_width,
            seed=derive_seed(dims.seed, "init", "student", rate, fold),
        )
        runs.append((teacher, student, prepare_pools(data, np.flatnonzero(~is_test))))
        train_cfgs.append(replace(cfg.arm_train(job.arm),
                                  seed=derive_seed(dims.seed, "train", rate, fold)))
    results = fit_runs(runs, train_cfgs)

    records = []
    for run, (job, result) in enumerate(zip(jobs, results)):
        try:
            records.append(_evaluate_and_export(job, result))
        except Exception as exc:
            exc.run = run
            raise
    return records


def _evaluate_and_export(job: RunJob, result) -> MetricsRecord:
    """One fold's test metrics from its trained student, and its artifact files."""
    cfg, data, student = job.scenario, job.data, result.student
    test = np.array(job.test_rows, dtype=np.int64)
    _, logits = student_forward(student, data.feat_a[test])
    scores = softmax(logits, axis=1)[:, 1]
    preds = np.argmax(logits, axis=1)
    record = classification_metrics(data.labels[test], scores, preds, fold=job.fold)

    stem = f"{job.arm.name}_rate{_rate_tag(job.rate)}_fold{job.fold}"
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
    """Every job of the scenario, from one feature draw, one mask per rate and
    the folds' test rows."""
    rates = tuple(dict.fromkeys(r for arm in cfg.arms for r in cfg.arm_rates(arm)))
    datasets = dict(zip(rates, draw_datasets(cfg.dataset, rates)))
    base = datasets[rates[0]]
    folds = kfold_rows(base.ids, base.labels, cfg.k_folds,
                       derive_seed(cfg.dataset.seed, "folds"))
    _check_training_splits(cfg, datasets, folds)
    for sub in ("traces", "ams", "prototypes", "checkpoints"):
        os.makedirs(os.path.join(cfg.output_dir, sub), exist_ok=True)
    folds = [tuple(rows.tolist()) for rows in folds]
    return [RunJob(cfg, arm, float(rate), datasets[rate], fold, rows)
            for arm in cfg.arms for rate in cfg.arm_rates(arm)
            for fold, rows in enumerate(folds)]


def _check_training_splits(cfg: ScenarioConfig, datasets: dict, folds: list) -> None:
    """ConfigError, before any output exists, for a training split with no paired
    sample of a class (ams.prepare_pools draws its donors from them).  `datasets`
    maps each rate to its dataset and `folds` holds each fold's test rows.  Checks
    arm x rate x fold x class in that order."""
    paired_classes = {}  # rate -> per fold, the classes with a paired training sample
    for rate, data in datasets.items():
        paired_classes[rate] = []
        for test in folds:
            train = data.paired.copy()
            train[test] = False
            paired_classes[rate].append(set(data.labels[train].tolist()))
    for arm in cfg.arms:
        for rate in cfg.arm_rates(arm):
            for fold, seen in enumerate(paired_classes[rate]):
                for c in range(cfg.dataset.num_classes):
                    if c not in seen:
                        raise ConfigError(
                            f"arm {arm.name}: missing rate {rate} leaves no paired sample "
                            f"of class {c} in the training split of fold {fold}"
                        )


def _summary(rows) -> RunSummary:
    """(arm, rate, record) rows as cells in order of first appearance, records by fold."""
    cells: dict = {}
    for arm, rate, record in rows:
        cells.setdefault((arm, rate), []).append(record)
    return RunSummary(cells=tuple(
        CellSummary.from_records(arm, rate, tuple(sorted(records, key=lambda r: r.fold)))
        for (arm, rate), records in cells.items()
    ))


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> RunSummary:
    """Run every (arm, rate, fold) run, aggregate, and write all artifacts.

    With jobs=1 each (arm, rate) cell trains its folds in lockstep in this
    process; otherwise every fold is one run_one job on `jobs` worker
    processes, and no more workers start than there are runs.  Both write
    the same bytes.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    job_list = _build_jobs(cfg)

    rows = []  # (arm, rate, record) in job order: arm, then rate, then fold
    workers = min(jobs, len(job_list))
    if workers == 1:
        cells: dict = {}
        for job in job_list:
            cells.setdefault((job.arm.name, job.rate), []).append(job)
        for cell in cells.values():
            try:
                records = _run_folds(cell)
            except Exception as exc:
                run = getattr(exc, "run", None)
                folds = (cell[run].fold if run is not None
                         else ",".join(str(job.fold) for job in cell))
                raise ProtocolError(
                    f"arm={cell[0].arm.name} rate={cell[0].rate} fold={folds} failed: {exc}"
                ) from exc
            rows += [(job.arm.name, job.rate, record) for job, record in zip(cell, records)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(run_one, job_list)
            for job in job_list:
                try:
                    rows.append((job.arm.name, job.rate, next(results)))
                except Exception as exc:
                    pool.shutdown(cancel_futures=True)  # no queued job starts
                    raise ProtocolError(
                        f"arm={job.arm.name} rate={job.rate} fold={job.fold} failed: {exc}"
                    ) from exc

    summary = _summary(rows)
    export_metrics_csv([(arm, _scenario_tag(rate), rec) for arm, rate, rec in rows],
                       os.path.join(cfg.output_dir, "metrics.csv"))
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


def export_embeddings(student: StudentNet, data: Dataset, path) -> None:
    """Write student features as CSV rows id,label,paired,h_0..h_{H-1}.

    Every float cell is repr(float), one line per row of `data`.
    """
    if not len(data):
        raise UsageError("cannot export embeddings for an empty dataset")
    h, _ = student_forward(student, data.feat_a)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "label", "paired"] + [f"h_{i}" for i in range(h.shape[1])])
                 + "\r\n")
        for sid, label, paired, row in zip(data.ids.tolist(), data.labels.tolist(),
                                           data.paired.tolist(), h):
            fh.write(f"{sid},{label},{int(paired)},{','.join(map(repr, row.tolist()))}\r\n")


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
    booleans, and an integral float such as 3.0 is stored as an int.  A
    dataclass checks itself when it is built; its ConfigError gets `path`
    as a prefix.
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
        try:
            return tp(**kwargs)
        except ConfigError as exc:  # the record's own check, named by its path
            raise ConfigError(f"{path}: {exc}") from None
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
    """Rebuild a RunSummary from a metrics.csv written by run_scenario.

    ProtocolError names the file, and the line of a bad row: a malformed or
    non-finite value, a scenario tag whose rate is not in [0, 1], a repeated
    (method, scenario, fold), or a cell with fewer than 2 folds, which has no
    sample standard deviation.
    """
    rows = []
    seen = {}  # (method, rate, fold) -> line
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
            if not 0.0 <= rate <= 1.0:  # NaN fails too
                raise ProtocolError(f"{where}: missing rate must be in [0, 1], got {scen!r}")
            if not np.isfinite([rec.get(m) for m in METRIC_NAMES]).all():
                raise ProtocolError(f"{where}: metrics must be finite, got {row[3:]}")
            key = (method, rate, rec.fold)
            if key in seen:
                raise ProtocolError(
                    f"{where}: {method} {scen} fold {rec.fold} repeats line {seen[key]}"
                )
            seen[key] = reader.line_num
            rows.append((method, rate, rec))
    folds = Counter((method, rate) for method, rate, _ in seen)
    for (method, rate), n in folds.items():
        if n < 2:
            raise ProtocolError(f"{path}: {method} {_scenario_tag(rate)} has {n} fold; "
                                f"a cell needs at least 2")
    return _summary(rows)
