"""The benchmark's span tracer finds every name it times in the package.

bench/tracing.py replaces each entry of its TRACED table at run time:
functions through getattr on the pgad module, methods through the class's
own __dict__.  A refactor that renames, moves or inherits one of them would
otherwise surface only when a traced benchmark run fails.
"""

import importlib
import inspect
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def traced(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    import tracing

    return tracing.TRACED


def test_every_traced_name_resolves_like_the_tracer_looks_it_up(traced):
    importlib.import_module("pgad.harness")  # what Tracer.install imports first
    for mod_name, names in traced.items():
        module = importlib.import_module(f"pgad.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                assert meth in cls.__dict__, f"{mod_name}.{name} is not defined on its class"
                assert callable(cls.__dict__[meth])
            else:
                assert callable(getattr(module, name, None)), f"{mod_name}.{name} is missing"


def test_hooked_functions_keep_the_parameters_their_hooks_read(traced):
    from pgad import ams, trainer

    assert "grads" in inspect.signature(trainer.clip_global_norm).parameters
    params = inspect.signature(ams.build_batch).parameters
    assert {"paired_pool", "unpaired_pool", "batch_size", "seed"} <= set(params)


def test_run_one_takes_the_job_that_bench_wraps_and_pools_pickle(tmp_path):
    """bench/run.py wraps harness.run_one as `run_one(job)`, and a pool sends
    each job from _build_jobs to a worker by pickle."""
    import pickle

    from pgad import harness
    from pgad.synthdata import DatasetConfig
    from pgad.trainer import TrainConfig

    assert list(inspect.signature(harness.run_one).parameters) == ["job"]
    cfg = harness.ScenarioConfig(
        name="guard",
        dataset=DatasetConfig(num_classes=2, samples_per_class=6, dim_a=3, dim_b=3,
                              class_separation=4.0, noise_scale=1.0, missing_rate=0.0, seed=1),
        train=TrainConfig(epochs=1, batch_size=4),
        arms=(harness.ArmSpec(name="full", rates=(0.2, 0.5)),),
        k_folds=2,
        output_dir=str(tmp_path / "out"),
    )
    jobs = harness._build_jobs(cfg)
    assert len(jobs) == 4
    for job in jobs:
        assert pickle.loads(pickle.dumps(job)) == job


def test_traced_fit_runs_the_build_batch_hook(traced, tmp_path):
    """The hook on ams.build_batch reads the pools a fit passes; a tiny serial
    fit under the tracer must count batch rows and record no hook failure."""
    import pgad.cli  # noqa: F401  (Tracer.install patches every traced module)
    import tracing
    from pgad import trainer
    from pgad.nets import StudentNet, TeacherNet
    from pgad.synthdata import DatasetConfig, generate_dataset

    samples = generate_dataset(DatasetConfig(
        num_classes=2, samples_per_class=16, dim_a=4, dim_b=4, class_separation=4.0,
        noise_scale=1.0, missing_rate=0.5, seed=1,
    ))
    teacher = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=4, seed=2)
    student = StudentNet.create(4, 2, feat_dim=3, hidden_width=4, seed=3)
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        trainer.fit(teacher, student, samples, trainer.TrainConfig(epochs=2, batch_size=8))
        tracer.flush()
    finally:
        tracer.uninstall()
    metrics, failures, _ = tracing.collect(str(tmp_path), jobs=1)
    assert failures == []
    assert metrics["ams.build_batch.calls"][0] > 0
    assert metrics["ams.batch_rows"][0] > 0
