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


def test_clip_global_norm_returns_its_input_iff_it_did_not_clip():
    """bench's hook on clip_global_norm counts a clipped step as a call whose
    result is not the `grads` object passed in."""
    import numpy as np

    from pgad import trainer

    grads = np.array([3.0, 4.0])
    assert trainer.clip_global_norm(grads, 5.0) is grads  # norm 5 is not above 5
    assert trainer.clip_global_norm(grads, 10.0) is grads
    clipped = trainer.clip_global_norm(grads, 1.0)
    assert clipped is not grads and np.array_equal(grads, [3.0, 4.0])


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


# The traced calls of one step of a one-run "paired"-strategy fit, with
# dynamic sampling and nearest-prototype matching (every pool job is a
# one-run fit): five MLP forwards (one teacher forward: its two encoders of
# one spec in one stacked pass, the fusion and the head; one student
# forward: two) and five backwards, one cross-entropy over the teacher's
# and the student's logits, one call of every other loss kernel, one
# batch, one prototype refresh, one clip and one Adam update.  The fallback
# fill runs only in a step whose batch lacks a class.
STEP_BUDGET = {
    "trainer.train_step": 1, "trainer.step_gradients": 1, "trainer.cosine_lr": 1,
    "trainer.clip_global_norm": 1, "trainer.adam_update": 1,
    "ams.build_batch": 1, "ams.sampling_ratio": 1, "ams.theta_gradient": 1,
    "nets.Mlp.forward": 5, "nets.Mlp.backward": 5, "nets.student_forward": 1,
    "losses.ce_loss": 1, "losses.kd_loss": 1, "losses.similarity_matrix": 1,
    "losses.pair_loss": 1, "losses.proto_loss": 1, "losses.total_loss": 1,
    "prototypes.compute_batch_prototypes": 1, "prototypes.update_running_prototypes": 1,
    "prototypes.nearest_prototypes_batch": 1,
}
AT_MOST_PER_STEP = {"prototypes.with_fallback": 1}
PER_FIT = {"trainer.fit": 1, "ams.sampling_ratio": 1}  # the first batch's ratio


def test_traced_paired_fit_counts_the_calls_of_one_step(traced, tmp_path):
    """A one-run fit spends its steps within the per-step call budget: every
    traced function is called exactly as STEP_BUDGET and PER_FIT say, at
    most as AT_MOST_PER_STEP says, or not at all."""
    import pgad.cli  # noqa: F401
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
    cfg = trainer.TrainConfig(epochs=2, batch_size=8, proto_strategy="paired")
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        result = trainer.fit(teacher, student, samples, cfg)
        tracer.flush()
    finally:
        tracer.uninstall()
    metrics, failures, _ = tracing.collect(str(tmp_path), jobs=1)
    assert failures == []
    steps = metrics["trainer.train_step.calls"][0]
    assert steps == result.steps == 8
    assert metrics["ams.pseudo_rows"][0] > 0
    for name in tracing.FUNCTIONS:
        calls = metrics[f"{name}.calls"][0]
        expected = STEP_BUDGET.get(name, 0) * steps + PER_FIT.get(name, 0)
        if name in AT_MOST_PER_STEP:
            assert calls <= AT_MOST_PER_STEP[name] * steps, name
        else:
            assert calls == expected, (name, calls, expected)


def test_traced_scenario_reads_the_pools_of_each_fit_once(traced, tmp_path, monkeypatch):
    """bench's hook on ams.build_batch rebuilds its label tables, one pass over
    both pools, whenever a batch comes from another pool pair than the batch
    before.  A serial scenario steps a cell's folds in lockstep, so
    consecutive batches come from different pairs; a pool builds its
    Samples on its first iteration only, so a traced scenario builds each
    fit's training rows once.  Building them on every pass would make traced
    benchmark runs crawl."""
    import pgad.cli  # noqa: F401
    import tracing
    from pgad import ams, harness
    from pgad.synthdata import DatasetConfig
    from pgad.trainer import TrainConfig

    built = []
    sample = ams.Sample

    def counting_sample(**fields):
        built.append(fields["id"])
        return sample(**fields)

    monkeypatch.setattr(ams, "Sample", counting_sample)
    cfg = harness.ScenarioConfig(
        name="guard",
        dataset=DatasetConfig(num_classes=2, samples_per_class=8, dim_a=3, dim_b=3,
                              class_separation=4.0, noise_scale=1.0, missing_rate=0.0, seed=1),
        train=TrainConfig(epochs=2, batch_size=4),
        arms=(harness.ArmSpec(name="full", rates=(0.2, 0.5)),),
        k_folds=2,
        output_dir=str(tmp_path / "out"),
    )
    jobs = harness._build_jobs(cfg)
    assert len(jobs) == 4  # 2 rates x 2 folds
    tracer = tracing.Tracer(str(tmp_path / "spans"))
    tracer.install()
    try:
        harness.run_scenario(cfg)
        tracer.flush()
    finally:
        tracer.uninstall()
    metrics, failures, _ = tracing.collect(str(tmp_path / "spans"), jobs=1)
    assert failures == []
    assert metrics["ams.build_batch.calls"][0] == 4 * 2 * 2  # fits x epochs x 2 steps
    assert len(built) == sum(len(job.data) - len(job.test_rows) for job in jobs)


def test_nets_build_and_checkpoint_as_bench_reads_them(traced, tmp_path):
    """bench/workloads.py builds its nets as TeacherNet.create(16, 16, 2, seed=...)
    and StudentNet.create(16, 2, seed=...); bench/checks.py re-runs a saved
    student from the header's integer layer_widths and its activation, taking
    any value but "tanh" for relu."""
    import json

    import checks
    import numpy as np

    from pgad.nets import StudentNet, TeacherNet, save_checkpoint, student_forward
    from pgad.seeding import derive_seed

    TeacherNet.create(16, 16, 2, seed=derive_seed(101, "teacher"))
    student = StudentNet.create(16, 2, seed=derive_seed(101, "student"))
    path = tmp_path / "student.txt"
    save_checkpoint(student, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert set(header["specs"]) == set(checks.STUDENT_PARTS)
    for spec in header["specs"].values():
        assert spec["activation"] == "tanh"
        assert all(type(w) is int for w in spec["layer_widths"])
    x = np.random.default_rng(0).standard_normal((5, 16))
    feats, logits = checks.student_outputs(checks.read_student_checkpoint(str(path)), x)
    want_feats, want_logits = student_forward(student, x)
    assert np.allclose(feats, want_feats, rtol=0, atol=1e-12)
    assert np.allclose(logits, want_logits, rtol=0, atol=1e-12)


def test_traced_lockstep_scenario_counts_what_its_runs_count_one_by_one(traced, tmp_path):
    """bench's hooks count batch rows, clipped steps and stale prototypes per
    call.  A serial scenario, whose cells step their folds in lockstep, must
    count what its runs count when each is fitted on its own (run_one), with
    no hook failure."""
    import pgad.cli  # noqa: F401
    import tracing
    from pgad import harness
    from pgad.losses import LossWeights
    from pgad.synthdata import DatasetConfig
    from pgad.trainer import TrainConfig

    arms = (harness.ArmSpec(name="baseline", pcm=False, ams="none", proto_strategy="none",
                            loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
            harness.ArmSpec(name="full"),
            harness.ArmSpec(name="proto_all", proto_strategy="all"))
    cfg = harness.ScenarioConfig(
        name="guard",
        dataset=DatasetConfig(num_classes=2, samples_per_class=10, dim_a=3, dim_b=3,
                              class_separation=4.0, noise_scale=1.0, missing_rate=0.0, seed=1),
        train=TrainConfig(epochs=3, batch_size=4, grad_clip=0.5, seed=2),
        arms=arms, missing_rates=(0.5,), k_folds=3, output_dir=str(tmp_path / "out"),
    )

    def counted(run, spans):
        tracer = tracing.Tracer(str(tmp_path / spans))
        tracer.install()
        try:
            run()
            tracer.flush()
        finally:
            tracer.uninstall()
        metrics, failures, _ = tracing.collect(str(tmp_path / spans), jobs=1)
        assert failures == []
        return {name: metrics[name][0] for name in tracing.COUNTERS}

    together = counted(lambda: harness.run_scenario(cfg), "lockstep")
    one_by_one = counted(lambda: [harness.run_one(job) for job in harness._build_jobs(cfg)],
                         "single")
    assert together == one_by_one
    for name in ("ams.batch_rows", "ams.genuine_rows", "ams.pseudo_rows",
                 "trainer.clipped_steps", "prototypes.stale_classes"):
        assert together[name] > 0, name
