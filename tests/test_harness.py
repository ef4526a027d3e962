"""Scenario harness: configs, end-to-end runs, artifacts, comparisons, CLI."""

import hashlib
import json
import math
import os
import re
import time
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pgad import harness, synthdata
from pgad.cli import main as cli_main
from pgad.errors import ConfigError, ProtocolError, UsageError
from pgad.evaluation import METRIC_NAMES, MetricsRecord, bonferroni
from pgad.harness import (
    ArmSpec,
    CellSummary,
    RunSummary,
    ScenarioConfig,
    compare_arms,
    export_embeddings,
    load_summary_from_metrics_csv,
    run_scenario,
    scenario_from_dict,
)
from pgad.losses import LossWeights
from pgad.nets import StudentNet, TeacherNet, load_checkpoint, student_forward
from pgad.synthdata import DatasetConfig, export_dataset_csv, generate_dataset
from pgad.trainer import TrainConfig, fit


def tiny_dataset_cfg() -> DatasetConfig:
    return DatasetConfig(
        num_classes=2, samples_per_class=12, dim_a=5, dim_b=5,
        class_separation=5.0, noise_scale=1.0, missing_rate=0.0, seed=9,
    )


def tiny_scenario(out_dir: str) -> ScenarioConfig:
    return ScenarioConfig(
        name="tiny",
        dataset=tiny_dataset_cfg(),
        train=TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3,
                          proto_assignment="true_class", seed=3),
        arms=(
            ArmSpec(name="baseline", pcm=False, ams="none", proto_strategy="none",
                    loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
            ArmSpec(name="full"),
        ),
        missing_rates=(0.5,),
        k_folds=2,
        feat_dim=4,
        hidden_width=6,
        output_dir=out_dir,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_out")
    cfg = tiny_scenario(str(out))
    summary = run_scenario(cfg)
    return cfg, summary, out


# ------------------------------------------------------------ config objects


def test_arm_spec_validation():
    """Checked when built, by the constructor and by replace alike."""
    ArmSpec(name="x", pcm=False, proto_strategy="none",
            loss_weights=LossWeights(1, 1, 0.5, 0, 0))
    for bad, message in (
        ({"name": ""}, "arm name must be nonempty"),
        ({"name": "a,b"}, "arm name must be nonempty"),
        ({"name": "two words"}, "arm name must be nonempty"),
        ({"name": "x", "pcm": True, "proto_strategy": "none"},
         "arm x: prototype strategy 'none' forces pcm off"),
        ({"name": "x", "rates": (1.5,)}, r"arm x: missing rate 1.5 outside \[0, 1\]"),
        ({"name": "auto", "ams": "auto"}, "arm auto: ams must be one of"),
        ({"name": "x", "proto_strategy": "centroid"}, "arm x: proto_strategy must be one of"),
    ):
        with pytest.raises(ConfigError, match=message):
            ArmSpec(**bad)
        with pytest.raises(ConfigError, match=message):
            replace(ArmSpec(name="full"), **bad)


def test_scenario_validation(tmp_path):
    """Checked when built, by the constructor and by replace alike."""
    cfg = tiny_scenario(str(tmp_path))
    fields_of_cfg = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for bad, message in (
        ({"name": ""}, "scenario name must be nonempty"),
        ({"k_folds": 1}, "k_folds must be >= 2"),
        ({"arms": ()}, "scenario needs at least one arm"),
        ({"arms": (cfg.arms[0], cfg.arms[0])}, "arm names must be unique"),
        ({"missing_rates": (0.5, 1.2)}, r"missing rate 1.2 outside \[0, 1\]"),
        ({"missing_rates": (0.5, 0.5)}, "arm baseline: missing rates repeat"),
        ({"feat_dim": 0}, "feat_dim and hidden_width must be >= 1"),
        ({"dataset": replace(cfg.dataset, num_classes=3)}, "dataset.num_classes must be 2"),
    ):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**{**fields_of_cfg, **bad})
        with pytest.raises(ConfigError, match=message):
            replace(cfg, **bad)


def test_arm_rates_override(tmp_path):
    cfg = tiny_scenario(str(tmp_path))
    plain = cfg.arms[1]
    overridden = replace(plain, rates=(0.2, 0.7))
    assert cfg.arm_rates(plain) == (0.5,)
    assert cfg.arm_rates(overridden) == (0.2, 0.7)


def scenario_dict(out_dir="out"):
    return {
        "name": "tiny",
        "dataset": {
            "num_classes": 2, "samples_per_class": 12, "dim_a": 5, "dim_b": 5,
            "class_separation": 5.0, "noise_scale": 1.0, "seed": 9,
        },
        "train": {
            "epochs": 2, "batch_size": 8, "learning_rate": 1e-3,
            "proto_assignment": "true_class", "seed": 3,
            "loss_weights": {"tea": 1, "stu": 1, "kl": 0.5, "pair": 0.5, "proto": 0.5},
        },
        "arms": [
            {"name": "baseline", "pcm": False, "ams": "none", "proto_strategy": "none",
             "loss_weights": {"tea": 1, "stu": 1, "kl": 0.5, "pair": 0, "proto": 0}},
            {"name": "full", "rates": [0.2, 0.5]},
        ],
        "missing_rates": [0.5],
        "k_folds": 2,
        "feat_dim": 4,
        "hidden_width": 6,
        "output_dir": out_dir,
    }


def test_scenario_from_dict_round_trip():
    cfg = scenario_from_dict(scenario_dict())
    assert cfg.name == "tiny"
    assert cfg.dataset.missing_rate == 0.0  # filled default
    assert cfg.train.epochs == 2
    assert cfg.train.loss_weights == LossWeights(1, 1, 0.5, 0.5, 0.5)
    assert cfg.arms[0].loss_weights.pair == 0
    assert cfg.arms[1].rates == (0.2, 0.5)
    assert cfg.missing_rates == (0.5,)
    assert cfg.k_folds == 2


def test_scenario_from_dict_defaults():
    d = {"name": "d", "dataset": scenario_dict()["dataset"],
         "arms": [{"name": "full"}]}
    cfg = scenario_from_dict(d)
    assert cfg.train == TrainConfig()
    assert cfg.missing_rates == (0.2, 0.5, 0.7)
    assert cfg.k_folds == 5 and cfg.feat_dim == 16


def test_scenario_from_dict_rejects_unknowns():
    base = scenario_dict()
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["dataset"].update(rows=10),
        lambda d: d["train"].update(optimizer="sgd"),
        lambda d: d["train"].update(two_stage=False),
        lambda d: d["train"].update(pcm_enabled=False),
        lambda d: d["arms"][0].update(color="red"),
        lambda d: d["train"]["loss_weights"].update(aux=1),
    ):
        d = json.loads(json.dumps(base))
        mutate(d)
        with pytest.raises(ConfigError):
            scenario_from_dict(d)
    for required in ("name", "dataset", "arms"):
        d = json.loads(json.dumps(base))
        del d[required]
        with pytest.raises(ConfigError):
            scenario_from_dict(d)


# ------------------------------------------------------------ run_scenario


def test_run_scenario_summary_shape(tiny_run):
    cfg, summary, _ = tiny_run
    assert summary.arms() == ["baseline", "full"]
    assert summary.rates() == [0.5]
    assert len(summary.cells) == 2
    for cell in summary.cells:
        assert [r.fold for r in cell.records] == [0, 1]
        for m in METRIC_NAMES:
            assert math.isfinite(cell.mean[m])
            assert cell.mean[m] == pytest.approx(
                np.mean([r.get(m) for r in cell.records])
            )
            assert cell.std[m] == pytest.approx(
                np.std([r.get(m) for r in cell.records], ddof=1)
            )
    with pytest.raises(ConfigError):
        summary.cell("missing", 0.5)


def test_run_scenario_artifacts(tiny_run):
    cfg, summary, out = tiny_run
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "report.md").exists()

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "method,scenario,fold,mcc,auc,sen,spe"
    assert len(lines) == 1 + 2 * 2  # two arms, two folds, one rate
    assert all(",rate=0.5," in ln for ln in lines[1:])

    sum_lines = (out / "summary.csv").read_text().splitlines()
    assert sum_lines[0].startswith("method,rate,mcc_mean,mcc_std,auc_mean")
    assert len(sum_lines) == 3

    report = (out / "report.md").read_text()
    assert "# Scenario: tiny" in report
    assert "## Missing rate 0.5" in report
    assert "| baseline |" in report and "| full |" in report

    for arm in ("baseline", "full"):
        for fold in (0, 1):
            stem = f"{arm}_rate0.5_fold{fold}"
            trace = out / "traces" / f"{stem}.csv"
            ams = out / "ams" / f"{stem}.csv"
            protos = out / "prototypes" / f"{stem}.csv"
            ckpt = out / "checkpoints" / f"{stem}_student.txt"
            assert trace.exists() and ams.exists() and protos.exists() and ckpt.exists()
            assert trace.read_text().splitlines()[0] == (
                "epoch,l_tea,l_stu,l_kl,l_pair,l_proto,total,theta,ratio,lr"
            )
            assert ams.read_text().splitlines()[0] == "epoch,theta,ratio"
            assert protos.read_text().splitlines()[0] == "class,count,stale,z_0,z_1,z_2,z_3"


def test_run_scenario_checkpoints_load(tiny_run):
    cfg, summary, out = tiny_run
    net = load_checkpoint(out / "checkpoints" / "full_rate0.5_fold0_student.txt")
    assert isinstance(net, StudentNet)
    ds = generate_dataset(replace(cfg.dataset, missing_rate=0.5))
    feats = np.stack([s.feat_a for s in ds])
    h, logits = student_forward(net, feats)
    assert h.shape == (24, 4) and logits.shape == (24, 2)


def test_load_summary_round_trip(tiny_run):
    cfg, summary, out = tiny_run
    loaded = load_summary_from_metrics_csv(out / "metrics.csv")
    assert loaded.arms() == summary.arms()
    for cell in summary.cells:
        other = loaded.cell(cell.arm, cell.rate)
        for m in METRIC_NAMES:
            assert other.mean[m] == cell.mean[m]  # repr round trip is exact
            assert other.std[m] == cell.std[m]
        assert [r.fold for r in other.records] == [0, 1]


def test_load_summary_rejects_malformed(tmp_path):
    bad_header = tmp_path / "m1.csv"
    bad_header.write_text("arm,scenario,fold,mcc,auc,sen,spe\n")
    with pytest.raises(ProtocolError):
        load_summary_from_metrics_csv(bad_header)
    bad_tag = tmp_path / "m2.csv"
    bad_tag.write_text(
        "method,scenario,fold,mcc,auc,sen,spe\nfull,r0.5,0,0.1,0.5,0.5,0.5\n"
    )
    with pytest.raises(ProtocolError):
        load_summary_from_metrics_csv(bad_tag)


def test_run_scenario_parallel_matches_serial(tiny_run, tmp_path):
    cfg, summary, out = tiny_run
    par_cfg = tiny_scenario(str(tmp_path / "par"))
    os.makedirs(par_cfg.output_dir, exist_ok=True)
    par = run_scenario(par_cfg, jobs=2)
    for cell in summary.cells:
        other = par.cell(cell.arm, cell.rate)
        for m in METRIC_NAMES:
            assert other.mean[m] == cell.mean[m]
    assert (tmp_path / "par" / "metrics.csv").read_text() == (out / "metrics.csv").read_text()


def test_run_scenario_starts_no_more_workers_than_jobs(tiny_run, tmp_path, monkeypatch):
    """4 cells (2 arms x 2 folds): --jobs 64 asks for 4 workers, not 64.  The pool
    is a stand-in that records its size and runs the jobs in this process."""
    _, _, out = tiny_run
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    for jobs, started in ((64, [4]), (3, [3])):
        sizes.clear()
        cfg = tiny_scenario(str(tmp_path / f"jobs{jobs}"))
        run_scenario(cfg, jobs=jobs)
        assert sizes == started
        assert (Path(cfg.output_dir) / "metrics.csv").read_text() == (
            out / "metrics.csv").read_text()


def test_run_scenario_wraps_failures(tmp_path):
    cfg = tiny_scenario(str(tmp_path))
    # a batch size below 2 fails when the config is built, before any run
    with pytest.raises(ConfigError, match="batch_size must be >= 2"):
        replace(cfg, train=replace(cfg.train, batch_size=1))
    # per-job failures surface as ProtocolError with the cell named: here the
    # first job trains and then cannot write its trace file
    (tmp_path / "traces" / "baseline_rate0.5_fold0.csv").mkdir(parents=True)
    with pytest.raises(ProtocolError, match="^arm=baseline rate=0.5 fold=0 failed: "):
        run_scenario(cfg)


@pytest.mark.parametrize("ams", ["none", "dynamic"])
def test_an_arm_without_pcm_trains_under_prototype_strategy_none(tmp_path, ams):
    """arm_train maps pcm off to strategy "none", so the arm's own strategy
    leaves the fit's bits alone."""
    cfg = tiny_scenario(str(tmp_path))
    samples = generate_dataset(replace(cfg.dataset, missing_rate=0.5))
    fits = set()
    for strategy in ("none", "paired", "all"):
        arm = ArmSpec(name="off", pcm=False, ams=ams, proto_strategy=strategy)
        train = cfg.arm_train(arm)
        assert train.proto_strategy == "none" and train.ams_mode == ams
        teacher = TeacherNet.create(5, 5, 2, feat_dim=4, hidden_width=6, seed=1)
        student = StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=2)
        result = fit(teacher, student, samples, train)
        assert all(t.l_proto == 0.0 for t in result.epoch_traces)
        fits.add(student.get_params().tobytes() + repr(result.epoch_traces).encode())
    assert len(fits) == 1


# ------------------------------------------------------------ compare_arms


def fold_records(values):
    return tuple(
        MetricsRecord(fold=i, mcc=v, auc=0.5, sen=0.5, spe=0.5)
        for i, v in enumerate(values)
    )


def two_arm_summary(base_vals, other_vals, rate=0.5):
    cells = (
        CellSummary(arm="baseline", rate=rate, mean={}, std={},
                    records=fold_records(base_vals)),
        CellSummary(arm="other", rate=rate, mean={}, std={},
                    records=fold_records(other_vals)),
    )
    return RunSummary(cells=cells)


def test_compare_arms_on_run(tiny_run):
    cfg, summary, _ = tiny_run
    results = compare_arms(summary, "baseline")
    assert len(results) == len(METRIC_NAMES)  # one other arm
    assert {r.metric for r in results} == set(METRIC_NAMES)
    expected_threshold = bonferroni(0.05, 4)
    for r in results:
        assert r.method_a == "full" and r.method_b == "baseline"
        assert r.alpha_corrected == pytest.approx(expected_threshold)
        assert r.significant == (r.p_value < expected_threshold)
    custom = compare_arms(summary, "baseline", m=24)
    assert custom[0].alpha_corrected == pytest.approx(bonferroni(0.05, 24))


def test_compare_arms_perfect_separation():
    summary = two_arm_summary([0.0, 0.125, 0.25, 0.375, 0.5],
                              [0.25, 0.375, 0.5, 0.625, 0.75])
    results = compare_arms(summary, "baseline", m=1)
    mcc = next(r for r in results if r.metric == "mcc")
    assert math.isinf(mcc.t_statistic) and mcc.t_statistic > 0
    assert mcc.p_value == 0.0 and mcc.significant


def test_compare_arms_identical_arms_not_significant():
    summary = two_arm_summary([0.1, 0.4, 0.2], [0.1, 0.4, 0.2])
    results = compare_arms(summary, "baseline")
    for r in results:
        assert r.p_value == 1.0 and not r.significant


def test_compare_arms_errors():
    summary = two_arm_summary([0.1, 0.2], [0.2, 0.3])
    with pytest.raises(ConfigError):
        compare_arms(summary, "nonexistent")
    lonely = RunSummary(cells=(summary.cells[0],))
    with pytest.raises(ConfigError):
        compare_arms(lonely, "baseline")
    multi = RunSummary(cells=(
        summary.cells[0],
        CellSummary(arm="other", rate=0.2, mean={}, std={},
                    records=fold_records([0.2, 0.3])),
    ))
    with pytest.raises(ConfigError):
        compare_arms(multi, "baseline")
    mismatched = RunSummary(cells=(
        summary.cells[0],
        CellSummary(arm="other", rate=0.5, mean={}, std={}, records=tuple(
            MetricsRecord(fold=i + 5, mcc=0.2, auc=0.5, sen=0.5, spe=0.5)
            for i in range(2)
        )),
    ))
    with pytest.raises(ProtocolError):
        compare_arms(mismatched, "baseline")


# ------------------------------------------------------------ embeddings


def test_export_embeddings_layout(tmp_path):
    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    net = StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1)
    path = tmp_path / "emb.csv"
    export_embeddings(net, data, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,label,paired,h_0,h_1,h_2,h_3"
    assert len(lines) == 25
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(int(r[0]), int(r[1]), r[2]) for r in rows] == [
        (i, c, "1" if p else "0")
        for i, c, p in zip(data.ids.tolist(), data.labels.tolist(), data.paired.tolist())]
    h, _ = student_forward(net, data.feat_a)
    assert np.array_equal(np.array([[float(v) for v in r[3:]] for r in rows]), h)
    export_embeddings(net, data, tmp_path / "emb2.csv")
    assert (tmp_path / "emb2.csv").read_text() == path.read_text()
    empty = synthdata.Dataset(ids=np.empty(0, np.int64), labels=np.empty(0, np.int64),
                              feat_a=np.empty((0, 5)), feat_b=np.empty((0, 5)),
                              paired=np.empty(0, bool))
    with pytest.raises(UsageError):
        export_embeddings(net, empty, tmp_path / "emb3.csv")


# ------------------------------------------------------------ CLI


def test_cli_run_and_compare(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    out_dir = tmp_path / "out"
    # the full arm sweeps two rates in scenario_dict, so single-rate it here
    # to keep the compare step unambiguous
    d = scenario_dict()
    d["arms"][1].pop("rates")
    cfg_path.write_text(json.dumps(d))

    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "artifacts written to" in captured.out
    assert (out_dir / "metrics.csv").exists()

    rc = cli_main(["compare", "--summary", str(out_dir), "--baseline", "baseline"])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out_dir / "comparisons.csv").exists()
    header = (out_dir / "comparisons.csv").read_text().splitlines()[0]
    assert header == "method_a,method_b,metric,t,p,significant,alpha_corrected"
    assert "full vs baseline [mcc]" in captured.out


def test_cli_export_embeddings(tmp_path, capsys, monkeypatch):
    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    data_path = tmp_path / "data.csv"
    export_dataset_csv(data, data_path)
    from pgad.nets import save_checkpoint

    net = StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1)
    ckpt = tmp_path / "student.txt"
    save_checkpoint(net, ckpt)
    out = tmp_path / "emb.csv"

    def no_samples(self, *args, **kwargs):
        raise AssertionError("export-embeddings reads and writes columns, never Samples")

    monkeypatch.setattr(synthdata.Sample, "__init__", no_samples)
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "24 embedding rows" in captured.out
    assert out.read_text().splitlines()[0] == "id,label,paired,h_0,h_1,h_2,h_3"


# sha256 of `pgad export-embeddings` output for the rate-0.5 draw of
# tiny_dataset_cfg() and a seed-1 student, recorded from the per-sample
# reader and writer that the columnar ones replaced.
PINNED_EMBEDDINGS_SHA256 = "769f7d0430b9e6395812f39b98cf86f031a00822af953d502b0d3b97d0f84874"


def test_cli_export_embeddings_bytes_match_the_pinned_digest(tmp_path, capsys):
    from pgad.nets import save_checkpoint

    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    assert 0 < data.paired.sum() < len(data)
    data_path = tmp_path / "data.csv"
    export_dataset_csv(data, data_path)
    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    out = tmp_path / "emb.csv"
    assert cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                     "--data", str(data_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_EMBEDDINGS_SHA256


def test_cli_error_paths(tmp_path, capsys):
    rc = cli_main(["run", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: FileNotFoundError")

    cfg_path = tmp_path / "bad.json"
    d = scenario_dict()
    d["unknown_field"] = 1
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ConfigError")


@pytest.mark.parametrize("section,key,value", [
    ("train", "epochs", "3"),
    ("train", "epochs", True),
    ("train", "batch_size", 8.5),
    ("train", "learning_rate", "1e-3"),
    ("dataset", "samples_per_class", "12"),
    ("dataset", "noise_scale", "1.0"),
])
def test_cli_run_rejects_mistyped_numbers(tmp_path, capsys, section, key, value):
    d = scenario_dict()
    d[section][key] = value
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ConfigError")
    assert f"{section}.{key}" in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key,value", [
    ("arms[0]", "pcm", "false"),
    ("arms[1]", "pcm", 1),
])
def test_cli_run_rejects_non_bool_switches(tmp_path, capsys, section, key, value):
    d = scenario_dict()
    target = d["arms"][int(section[5])] if section.startswith("arms") else d[section]
    target[key] = value
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ConfigError")
    assert f"{section}.{key}" in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value,named", [
    ("k_folds", 2.7, "scenario.k_folds"),
    ("feat_dim", True, "scenario.feat_dim"),
    ("hidden_width", "6", "scenario.hidden_width"),
    ("missing_rates", ["0.5"], "missing_rates.0"),
    ("missing_rates", [True], "missing_rates.0"),
    ("missing_rates", "0.5", "missing_rates must be a list"),
    ("arms[1].rates", [0.2, "0.5"], "arms[1].rates.1"),
])
def test_cli_run_rejects_mistyped_scenario_fields(tmp_path, capsys, key, value, named):
    d = scenario_dict()
    if key == "arms[1].rates":
        d["arms"][1]["rates"] = value
    else:
        d[key] = value
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ConfigError")
    assert named in captured.err
    assert not (tmp_path / "o").exists()


def test_cli_run_rejects_unknown_activation_before_any_job(tmp_path, capsys):
    """The hidden layers are always tanh, so `activation` is not a scenario
    field, whatever its value."""
    for value in ("tanh", "relu"):
        d = scenario_dict()
        d["activation"] = value
        cfg_path = tmp_path / "act.json"
        cfg_path.write_text(json.dumps(d))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: ConfigError: unknown scenario fields: ['activation']\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value,named", [
    ("missing_rates", [1.0], "arm baseline: missing rate 1.0 leaves no paired sample"),
    # 12 per class: 0.95 removes round_half_up(11.4) = 11, and the one paired sample
    # left in each class is in fold 0's test split
    ("arms[1].rates", [0.95, 0.97], "arm full: missing rate 0.95 leaves no paired sample"),
    ("missing_rates", [0.95], "arm baseline: missing rate 0.95 leaves no paired sample of "
                              "class 0 in the training split of fold 0"),
])
def test_cli_run_rejects_a_rate_that_leaves_a_class_unpaired(tmp_path, capsys, key, value,
                                                             named):
    d = scenario_dict(str(tmp_path / "o"))
    if key == "arms[1].rates":
        d["arms"][1]["rates"] = value
    else:
        d[key] = value
    cfg_path = tmp_path / "rate.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError") and named in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def fail_first_job(job):
    """run_one stand-in: the first job fails, every other one leaves a marker file."""
    if job.arm.name == "baseline" and job.fold == 0:
        raise ValueError("first job fails")
    time.sleep(0.2)
    Path(job.scenario.output_dir, f"{job.arm.name}_{job.rate}_{job.fold}").touch()


def test_run_scenario_starts_no_queued_job_after_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_one", fail_first_job)
    d = scenario_dict(str(tmp_path))
    d["k_folds"] = 6  # 3 cells x 6 folds = 18 jobs
    with pytest.raises(ProtocolError, match="arm=baseline rate=0.5 fold=0 failed"):
        run_scenario(scenario_from_dict(d), jobs=2)
    # only the jobs already handed to the 2 workers (and their queue) run on
    assert len([p for p in tmp_path.iterdir() if p.is_file()]) <= 8


def output_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_run_draws_the_features_once_and_writes_the_same_bytes_at_any_jobs(
        tmp_path, monkeypatch, capsys):
    """2 arms x 2 rates from one feature draw, in this process, whatever --jobs is."""
    draws = []

    def counted(cfg, rates):
        draws.append(tuple(rates))
        return real_draw(cfg, rates)

    def forbidden(*args, **kwargs):
        raise AssertionError("the harness builds no Sample lists")

    real_draw = synthdata.draw_datasets
    monkeypatch.setattr(harness, "draw_datasets", counted)
    monkeypatch.setattr(synthdata, "draw_datasets", counted)
    monkeypatch.setattr(synthdata, "generate_dataset", forbidden)
    d = scenario_dict()
    d["missing_rates"] = [0.2, 0.5]
    cfg_path = tmp_path / "two_rates.json"
    cfg_path.write_text(json.dumps(d))
    outputs = []
    for jobs in ("1", "2"):
        draws.clear()
        out = tmp_path / f"jobs{jobs}"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--jobs", jobs]) == 0
        assert draws == [(0.2, 0.5)]
        outputs.append(output_bytes(out))
    capsys.readouterr()
    assert len(outputs[0]) == 3 + 4 * 2 * 2 * 2  # 2 arms x 2 rates x 2 folds
    assert outputs[0] == outputs[1]

    jobs = harness._build_jobs(scenario_from_dict(dict(d, output_dir=str(tmp_path / "b"))))
    assert [(j.arm.name, j.rate, j.fold) for j in jobs][:3] == [
        ("baseline", 0.2, 0), ("baseline", 0.2, 1), ("baseline", 0.5, 0)]
    for job in jobs:  # one feature array behind every job
        assert np.shares_memory(job.data.feat_a, jobs[0].data.feat_a)
        assert job.data.paired is (jobs[0] if job.rate == 0.2 else jobs[2]).data.paired


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_run_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(scenario_dict()))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--jobs", jobs])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: UsageError: jobs must be >= 1, got {jobs}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_cli_run_rejects_a_dataset_missing_rate(tmp_path, capsys):
    """The harness masks each rate of the sweep itself and never reads
    dataset.missing_rate, so a value there would be silently ignored."""
    d = scenario_dict()
    d["dataset"]["missing_rate"] = 0.9
    cfg_path = tmp_path / "rate.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError: scenario: dataset.missing_rate is 0.9")
    assert "missing_rates" in err and "arms' rates" in err
    assert not (tmp_path / "o").exists()
    d["dataset"]["missing_rate"] = 0.0
    scenario_from_dict(d)


def test_scenario_from_dict_keeps_bool_switches():
    d = scenario_dict()
    d["arms"][1]["pcm"] = True
    cfg = scenario_from_dict(d)
    assert cfg.arms[0].pcm is False and cfg.arms[1].pcm is True


def test_cli_export_embeddings_on_checkpoint_without_specs(tmp_path, capsys):
    from pgad.nets import save_checkpoint

    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    data_path = tmp_path / "data.csv"
    export_dataset_csv(data, data_path)
    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    lines = ckpt.read_text().splitlines()
    header = json.loads(lines[0])
    del header["specs"]
    ckpt.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(tmp_path / "emb.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ProtocolError")
    assert "student.txt" in captured.err
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_export_embeddings_rejects_a_non_finite_checkpoint_value(tmp_path, capsys, value):
    from pgad.nets import save_checkpoint

    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    data_path = tmp_path / "data.csv"
    export_dataset_csv(data, data_path)
    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    lines = ckpt.read_text().splitlines()
    lines[3] = value
    ckpt.write_text("\n".join(lines) + "\n")
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(tmp_path / "emb.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(
        f"error: ProtocolError: {ckpt}: checkpoint values must be finite, got {value}")
    assert not (tmp_path / "emb.csv").exists()


def test_scenario_from_dict_accepts_integral_floats():
    d = scenario_dict()
    d["train"]["epochs"] = 2.0
    cfg = scenario_from_dict(d)
    assert cfg.train.epochs == 2 and isinstance(cfg.train.epochs, int)


def test_cli_compare_on_empty_metrics_csv(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text("")
    rc = cli_main(["compare", "--summary", str(tmp_path), "--baseline", "baseline"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ProtocolError")
    assert "metrics.csv is empty" in captured.err


def test_cli_export_embeddings_on_empty_data_csv(tmp_path, capsys):
    from pgad.nets import save_checkpoint

    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    data_path = tmp_path / "empty.csv"
    data_path.write_text("")
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(tmp_path / "emb.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ProtocolError")
    assert "empty.csv is empty" in captured.err


@pytest.mark.parametrize("row,problem", [
    ("0,1", "2 cells, the header has"),
    ("x,1,1,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "invalid literal"),
    ("0,1,1,0.5,0.5,abc,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "could not convert"),
    ("99,1,2,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "paired flag must be 0 or 1, got '2'"),
    ("99,-1,1,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "label must be >= 0, got -1"),
    ("0,1,1,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "sample id 0 repeats an earlier row"),
    ("9223372036854775808,1,1,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "int too big to convert"),
    ("99,1,1,nan,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "sample 99: feature cells must be finite"),
    ("99,1,0,0.5,inf,0.5,0.5,0.5,,,,,", "sample 99: feature cells must be finite"),
    ("99,1,1,0.5,0.5,0.5,0.5,0.5,-inf,0.5,0.5,0.5,0.5", "sample 99: feature cells must be finite"),
])
def test_cli_export_embeddings_on_malformed_data_row(tmp_path, capsys, row, problem):
    from pgad.nets import save_checkpoint

    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    (data,) = synthdata.draw_datasets(tiny_dataset_cfg(), (0.5,))
    data_path = tmp_path / "bad.csv"
    export_dataset_csv(data, data_path)  # 3 + 5 + 5 columns
    lines = data_path.read_text().splitlines()
    data_path.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(tmp_path / "emb.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ProtocolError")
    assert "bad.csv line 3:" in captured.err and problem in captured.err
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("build,named", [
    (lambda d: {**d, "dataset": 5}, "scenario.dataset must be an object"),
    (lambda d: {**d, "arms": [5]}, "scenario.arms[0] must be an object"),
    (lambda d: {**d, "train": {"loss_weights": 3}}, "scenario.train.loss_weights must be an object"),
    (lambda d: {**d, "arms": [{"name": 5}]}, "scenario.arms[0].name must be a string"),
    (lambda d: {**d, "name": 5}, "scenario.name must be a string"),
    (lambda d: {**d, "output_dir": ["o"]}, "scenario.output_dir must be a string"),
    (lambda d: [d], "scenario must be an object"),
    (lambda d: {**d, "train": {"learning_rate": 10**400}},
     "scenario.train.learning_rate is out of range for a float"),
], ids=["dataset", "arm", "loss_weights", "arm_name", "name", "output_dir", "list", "huge"])
def test_cli_run_rejects_mistyped_sections(tmp_path, capsys, build, named):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(build(scenario_dict())))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError") and named in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value,problem", [
    ("ams", "bogus", "bogus"),
    ("proto_strategy", "bogus", "proto_strategy"),
    ("loss_weights", {"tea": -1}, "loss weight tea"),
])
def test_cli_run_rejects_bad_arm_settings_before_any_job(tmp_path, capsys, key, value, problem):
    d = scenario_dict()
    d["arms"][1][key] = value
    cfg_path = tmp_path / "arm.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    # the arm's mechanisms fail when the arm is built, its loss weights when they are read
    where = "scenario.arms[1]" + (".loss_weights:" if key == "loss_weights" else ": arm full:")
    assert err.startswith(f"error: ConfigError: {where}") and problem in err
    assert not (tmp_path / "o" / "traces").exists()


def test_cli_run_rejects_an_empty_sweep(tmp_path, capsys):
    d = scenario_dict()
    d["missing_rates"] = []
    d["arms"][1]["rates"] = []
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError: scenario: arm baseline: no missing rates to run")
    assert not (tmp_path / "o" / "traces").exists()
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("key", [
    "learning_rate", "weight_decay", "kd_temperature", "sim_temperature", "grad_clip",
])
def test_cli_run_rejects_non_finite_training_numbers(tmp_path, capsys, key):
    d = scenario_dict()
    d["train"][key] = math.inf
    cfg_path = tmp_path / "inf.json"
    cfg_path.write_text(json.dumps(d))
    assert f'"{key}": Infinity' in cfg_path.read_text()
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ConfigError") and f"{key} must be" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("ams_mode", "fixed"),
    ("proto_strategy", "all"),
    ("loss_weights", {"pair": 0}),
])
def test_cli_run_rejects_train_fields_that_each_arm_sets(tmp_path, capsys, key, value):
    d = scenario_dict()
    d["train"][key] = value
    cfg_path = tmp_path / "per_arm.json"
    cfg_path.write_text(json.dumps(d))
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: ConfigError: scenario: train.{key} is set per arm")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("header,row", [
    ("id,label", "1,0"),
    ("id,label,paired,b_0,b_1,b_2,b_3,b_4,a_0,a_1,a_2,a_3,a_4",
     "1,0,1,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"),
], ids=["no_features", "b_before_a"])
def test_cli_export_embeddings_rejects_an_unexpected_data_header(tmp_path, capsys, header, row):
    from pgad.nets import save_checkpoint

    ckpt = tmp_path / "student.txt"
    save_checkpoint(StudentNet.create(5, 2, feat_dim=4, hidden_width=6, seed=1), ckpt)
    data_path = tmp_path / "odd.csv"
    data_path.write_text(f"{header}\n{row}\n")
    rc = cli_main(["export-embeddings", "--checkpoint", str(ckpt),
                   "--data", str(data_path), "--out", str(tmp_path / "emb.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ProtocolError") and "odd.csv: dataset header must be" in err
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("row,problem", [
    ("baseline,rate=0.5", "2 cells, the header has 7"),
    ("baseline,rate=0.5,0,x,0.5,0.5,0.5", "could not convert string to float: 'x'"),
    ("baseline,rate=0.5,0,0.2,0.5,0.5,0.5", "baseline rate=0.5 fold 0 repeats line 2"),
    ("baseline,rate=0.50,0,0.2,0.5,0.5,0.5", "baseline rate=0.50 fold 0 repeats line 2"),
    ("baseline,rate=0.5,1,nan,0.5,0.5,0.5", "metrics must be finite"),
    ("baseline,rate=0.5,1,0.1,inf,0.5,0.5", "metrics must be finite"),
])
def test_cli_compare_on_malformed_metrics_row(tmp_path, capsys, row, problem):
    (tmp_path / "metrics.csv").write_text(
        "method,scenario,fold,mcc,auc,sen,spe\n"
        "baseline,rate=0.5,0,0.1,0.5,0.5,0.5\n" + row + "\n"
    )
    rc = cli_main(["compare", "--summary", str(tmp_path), "--baseline", "baseline"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ProtocolError")
    assert "metrics.csv line 3:" in err and problem in err


def test_cli_compare_rejects_a_cell_with_fewer_than_two_folds(tmp_path, capsys):
    """One fold per cell has no sample standard deviation: refused before any
    statistic is computed (pytest turns numpy's warnings into errors)."""
    (tmp_path / "metrics.csv").write_text(
        "method,scenario,fold,mcc,auc,sen,spe\n"
        "baseline,rate=0.5,0,0.1,0.5,0.5,0.5\n"
        "baseline,rate=0.5,1,0.2,0.5,0.5,0.5\n"
        "full,rate=0.5,0,0.3,0.5,0.5,0.5\n"
    )
    rc = cli_main(["compare", "--summary", str(tmp_path), "--baseline", "baseline"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ProtocolError")
    assert "metrics.csv: full rate=0.5 has 1 fold; a cell needs at least 2" in err


@pytest.mark.parametrize("tag", ["rate=nan", "rate=inf", "rate=7", "rate=-0.1", "rate=1.5"])
def test_cli_compare_rejects_a_rate_outside_zero_to_one(tmp_path, capsys, tag):
    """A well-formed two-arm, two-fold file whose rate run_scenario cannot write."""
    (tmp_path / "metrics.csv").write_text(
        "method,scenario,fold,mcc,auc,sen,spe\n"
        + "".join(f"{arm},{tag},{fold},0.{fold + 1},0.5,0.5,0.5\n"
                  for arm in ("baseline", "full") for fold in (0, 1))
    )
    rc = cli_main(["compare", "--summary", str(tmp_path), "--baseline", "baseline"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ProtocolError")
    assert f"metrics.csv line 2: missing rate must be in [0, 1], got '{tag}'" in err
    assert not (tmp_path / "comparisons.csv").exists()


def test_cli_compare_accepts_the_end_rates(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text(
        "method,scenario,fold,mcc,auc,sen,spe\n"
        + "".join(f"{arm},rate={rate},{fold},0.{fold + shift + 1},0.5,0.5,0.5\n"
                  for rate in ("0.0", "1.0") for shift, arm in enumerate(("baseline", "full"))
                  for fold in (0, 1, 2))
    )
    for rate in ("0", "1"):
        rc = cli_main(["compare", "--summary", str(tmp_path), "--baseline", "baseline",
                       "--rate", rate])
        assert rc == 0, capsys.readouterr().err
    assert "full vs baseline [mcc]" in capsys.readouterr().out


# ------------------------------------------------------------ scenario schema


def test_scenario_reader_reads_a_field_added_to_a_config_dataclass(monkeypatch):
    @dataclass(frozen=True)
    class WiderTrain(TrainConfig):
        warmup_epochs: int = 0

    # the scenario's `train` annotation now resolves to the widened class
    monkeypatch.setattr(harness, "TrainConfig", WiderTrain)
    d = scenario_dict()
    d["train"]["warmup_epochs"] = 3.0
    cfg = scenario_from_dict(d)
    assert isinstance(cfg.train, WiderTrain)
    assert cfg.train.warmup_epochs == 3 and isinstance(cfg.train.warmup_epochs, int)
    d["train"]["warmup_epochs"] = "3"
    with pytest.raises(ConfigError, match=r"scenario\.train\.warmup_epochs must be a number"):
        scenario_from_dict(d)


def test_readme_quick_start_scenario_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"`scenario\.json`:\s*```json\n(.*?)```", readme, re.S)
    assert block, "README.md lost its quick-start scenario.json block"
    cfg = scenario_from_dict(json.loads(block.group(1)))
    assert [a.name for a in cfg.arms] == ["baseline", "full"]


# Fields a scenario JSON may omit although their dataclass gives no default.
OMITTABLE = {(ScenarioConfig, "train"): TrainConfig(), (DatasetConfig, "missing_rate"): 0.0}


def ints(lo=-2**40):
    """(JSON, value) pairs of ints from `lo`; an integral float stands for the int."""
    return st.integers(lo, 2**40).flatmap(lambda n: st.sampled_from([(n, n), (float(n), n)]))


def floats(lo, hi=None, exclude_min=False, exclude_max=False):
    """(JSON, value) pairs of finite floats from `lo` (to `hi`); an int stands for its float."""
    whole = st.integers(lo, 2**40 if hi is None else hi).filter(
        lambda n: not (exclude_min and n == lo or exclude_max and n == hi))
    return (st.floats(lo, hi, allow_infinity=False, exclude_min=exclude_min,
                      exclude_max=exclude_max) | whole).map(lambda x: (x, float(x)))


def choices(values):
    """(JSON, value) pairs of the given strings or ints."""
    return st.sampled_from(values).map(lambda v: (v, v))


def as_tuple(pairs):
    """A list of (JSON, value) pairs as one (JSON list, tuple) pair."""
    return pairs.map(lambda ps: ([j for j, _ in ps], tuple(v for _, v in ps)))


def json_and_value(tp):
    """Pairs (JSON value, the Python value it stands for) of a declared field
    type without a VALID entry."""
    if is_dataclass(tp):
        return json_and_config(tp)
    if tp is bool:
        return st.booleans().map(lambda b: (b, b))
    if tp is str:
        return st.text(max_size=6).map(lambda s: (s, s))
    assert tp is int
    return ints()


RATE = floats(0, 1)
RATES = as_tuple(st.lists(RATE, min_size=1, max_size=3, unique_by=lambda p: p[1]))
POSITIVE = floats(0, exclude_min=True)
NONNEGATIVE = floats(0)

# The values a config accepts where its fields are checked when it is built;
# any other field takes any value of its declared type.  The arms set
# loss_weights, ams_mode and proto_strategy, so a scenario's train keeps
# TrainConfig's defaults there.
VALID = {
    **{(LossWeights, f.name): NONNEGATIVE for f in fields(LossWeights)},
    **{(TrainConfig, name): POSITIVE for name in (
        "learning_rate", "kd_temperature", "sim_temperature", "grad_clip")},
    (TrainConfig, "epochs"): ints(1),
    (TrainConfig, "batch_size"): ints(2),
    (TrainConfig, "weight_decay"): NONNEGATIVE,
    (TrainConfig, "loss_weights"): st.just(({}, LossWeights())),
    (TrainConfig, "ams_mode"): choices(["dynamic"]),
    (TrainConfig, "proto_strategy"): choices(["paired"]),
    (TrainConfig, "fixed_ratio"): RATE,
    (TrainConfig, "proto_momentum"): floats(0, 1, exclude_max=True),
    (TrainConfig, "proto_assignment"): choices(["nearest", "true_class"]),
    (DatasetConfig, "num_classes"): choices([2]),
    (DatasetConfig, "samples_per_class"): ints(2),
    (DatasetConfig, "dim_a"): ints(2),
    (DatasetConfig, "dim_b"): ints(2),
    (DatasetConfig, "class_separation"): NONNEGATIVE,
    (DatasetConfig, "noise_scale"): POSITIVE,
    (DatasetConfig, "missing_rate"): floats(0, 0),
    (ArmSpec, "name"): st.text(st.characters(exclude_characters=",/\\ "), min_size=1,
                               max_size=6).map(lambda s: (s, s)),
    (ArmSpec, "ams"): choices(["none", "fixed", "dynamic"]),
    (ArmSpec, "proto_strategy"): choices(["none", "all", "paired"]),
    (ArmSpec, "rates"): st.just((None, None)) | RATES,
    (ScenarioConfig, "name"): st.text(min_size=1, max_size=6).map(lambda s: (s, s)),
    (ScenarioConfig, "arms"): as_tuple(st.lists(st.deferred(lambda: json_and_config(ArmSpec)),
                                                min_size=1, max_size=3,
                                                unique_by=lambda p: p[1].name)),
    (ScenarioConfig, "missing_rates"): RATES,
    (ScenarioConfig, "k_folds"): ints(2),
    (ScenarioConfig, "feat_dim"): ints(1),
    (ScenarioConfig, "hidden_width"): ints(1),
}


@st.composite
def json_and_config(draw, cls):
    """A (JSON object, config) pair of a config that passes its checks."""
    hints = get_type_hints(cls)
    raw, kwargs = {}, {}
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if ((cls, f.name) in OMITTABLE or has_default) and draw(st.booleans()):
            if (cls, f.name) in OMITTABLE:
                kwargs[f.name] = OMITTABLE[cls, f.name]
            continue
        valid = VALID.get((cls, f.name))
        raw[f.name], kwargs[f.name] = draw(valid if valid is not None
                                           else json_and_value(hints[f.name]))
    try:
        return raw, cls(**kwargs)
    except ConfigError:  # an arm with pcm on under prototype strategy "none"
        reject()


@settings(max_examples=150, deadline=None)
@given(pair=json_and_config(ScenarioConfig))
def test_scenario_from_dict_builds_the_config_it_mirrors(pair):
    raw, expected = pair
    got = scenario_from_dict(raw)
    assert got == expected
    assert repr(got) == repr(expected)  # ints stay ints, floats become floats


JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers() | st.text(max_size=2), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}


def json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def json_slots(value, path="scenario"):
    """(path, container, key) of every value inside a JSON document, at any depth."""
    if isinstance(value, dict):
        children = [(f"{path}.{k}", k, v) for k, v in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]" if isinstance(v, dict) else f"{path}.{i}", i, v)
                    for i, v in enumerate(value)]
    else:
        children = []
    for child_path, key, child in children:
        yield child_path, value, key
        yield from json_slots(child, child_path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scenario_from_dict_names_any_mistyped_field(data):
    raw, _ = data.draw(json_and_config(ScenarioConfig))
    path, container, key = data.draw(st.sampled_from(list(json_slots(raw))))
    valid = {json_kind(container[key])}
    if path.endswith(".rates"):  # an arm's rates may be null or a list
        valid |= {"null", "array"}
    kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - valid)))
    container[key] = data.draw(JSON_KINDS[kind])
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw)
    assert path in str(err.value)


def grid_arms(rates=None) -> tuple:
    """The six acceptance-grid arms (bench/workloads.py::ablation_arms), at `rates`."""
    return (
        ArmSpec(name="baseline", pcm=False, ams="none", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0), rates=rates),
        ArmSpec(name="pcm", pcm=True, ams="none", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0.5), rates=rates),
        ArmSpec(name="ams_fixed", pcm=True, ams="fixed", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5), rates=rates),
        ArmSpec(name="full", pcm=True, ams="dynamic", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5), rates=rates),
        ArmSpec(name="proto_none_ams", pcm=False, ams="dynamic", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0), rates=rates),
        ArmSpec(name="proto_all", pcm=True, ams="dynamic", proto_strategy="all",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5), rates=rates),
    )


def test_every_grid_arm_writes_the_same_bytes_in_lockstep_and_in_a_pool(tmp_path, monkeypatch):
    """In this process a cell's folds train in lockstep; a pool trains one fold
    per job.  22 samples in 3 stratified folds train on 14 or 16 rows, so at batch size 7
    a cell's folds take 2 or 3 steps per epoch and train in two groups; the
    small paired pools leave batches short, so folds that step together draw
    batches of different sizes.  Every artifact must match."""
    from pgad import trainer

    def scenario(out):
        return ScenarioConfig(
            name="grid",
            dataset=replace(tiny_dataset_cfg(), samples_per_class=11, dim_a=4, dim_b=3),
            train=TrainConfig(epochs=2, batch_size=7, learning_rate=1e-2,
                              proto_assignment="true_class", seed=3),
            arms=grid_arms(), missing_rates=(0.5, 0.8), k_folds=3, feat_dim=3,
            hidden_width=5, output_dir=str(out),
        )

    stepped = []  # per lockstep step: the plans' (size, genuine count) and shortfalls
    real_step = trainer.train_step

    def recording_step(teacher, student, pools, plans, *args):
        stepped.append([(plan.size, len(plan.genuine), plan.shortfall) for plan in plans])
        return real_step(teacher, student, pools, plans, *args)

    monkeypatch.setattr(trainer, "train_step", recording_step)
    run_scenario(scenario(tmp_path / "serial"))
    monkeypatch.undo()
    run_scenario(scenario(tmp_path / "pool"), jobs=2)

    jobs = harness._build_jobs(scenario(tmp_path / "jobs"))
    assert {len(job.data) - len(job.test_rows) for job in jobs} == {14, 16}
    assert len(stepped) == 6 * 2 * 2 * (2 + 3)  # arms x rates x epochs x steps of each group
    assert any(short for plans in stepped for _, _, short in plans)
    assert any(len({size for size, _, _ in plans}) > 1 for plans in stepped)
    assert any(len({n_g for _, n_g, _ in plans}) > 1 for plans in stepped)
    serial, pooled = output_bytes(tmp_path / "serial"), output_bytes(tmp_path / "pool")
    assert len(serial) == 3 + 4 * 6 * 2 * 3  # 6 arms x 2 rates x 3 folds
    assert serial == pooled


def test_a_failing_fold_of_a_lockstep_cell_is_named(tmp_path, monkeypatch):
    """The third fold's gradient turns non-finite at step 3 of a cell whose
    folds step together: the failure names that fold and step."""
    from pgad import trainer

    cfg = replace(tiny_scenario(str(tmp_path)), k_folds=3, arms=(ArmSpec(name="full"),))
    clipped = []
    real_clip = trainer.clip_global_norm

    def clip(grads, max_norm):  # called once per fold and step, in fold order
        clipped.append(len(clipped))
        if len(clipped) == 3 * 3 + 3:
            grads[0] = math.nan
        return real_clip(grads, max_norm)

    monkeypatch.setattr(trainer, "clip_global_norm", clip)
    with pytest.raises(ProtocolError, match=r"^arm=full rate=0\.5 fold=2 failed: step 3: "
                                            r"gradient norm is not finite$"):
        run_scenario(cfg)
