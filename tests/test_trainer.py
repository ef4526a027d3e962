"""Training loop pieces: optimizer, schedule, loss routing, full fits."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pgad.ams import build_batch, prepare_pools, sampling_ratio
from pgad.errors import (
    ConfigError,
    EmptyBatchError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from pgad.losses import LossWeights, ce_loss, kd_loss, pair_loss, proto_loss, similarity_matrix
from pgad.nets import (
    StudentNet,
    TeacherNet,
    bind_joint_params,
    joint_buffers,
    stack_runs,
    student_forward,
    teacher_forward,
)
from pgad.prototypes import compute_batch_prototypes, empty_prototypes
from pgad.synthdata import DatasetConfig, generate_dataset
from pgad import trainer
from pgad.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_update,
    clip_global_norm,
    cosine_lr,
    export_trace_csv,
    fit,
    global_prototypes,
    step_gradients,
    train_step,
)


def make_data(missing_rate=0.5, spc=16, seed=5, dim=6, separation=5.0):
    cfg = DatasetConfig(
        num_classes=2, samples_per_class=spc, dim_a=dim, dim_b=dim,
        class_separation=separation, noise_scale=1.0, missing_rate=missing_rate,
        seed=seed,
    )
    ds = generate_dataset(cfg)
    return ds, [s for s in ds if s.paired], [s for s in ds if not s.paired]


def make_nets(dim=6, feat=4, hidden=8, seed=0):
    teacher = TeacherNet.create(dim, dim, 2, feat_dim=feat, hidden_width=hidden, seed=seed)
    student = StudentNet.create(dim, 2, feat_dim=feat, hidden_width=hidden, seed=seed + 1)
    return teacher, student


def joint_nets(**kwargs):
    """make_nets' nets laid out by bind_joint_params as the one run of a joint buffer."""
    teacher, student = make_nets(**kwargs)
    bind_joint_params([(teacher, student, 0.0)])
    return teacher, student


def one_run_gradients(teacher, student, pools, plan, callback, theta, cfg):
    """step_gradients for the one run of joint_nets' nets: its report and gradient row."""
    nets = stack_runs(teacher, student, *joint_buffers(teacher, student))
    reports, grads = step_gradients(*nets, [pools], [plan],
                                    None if callback is None else [callback], [theta], cfg)
    return reports[0], grads[0]


# ------------------------------------------------------------ TrainConfig


def test_train_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.epochs == 100 and cfg.batch_size == 32
    assert cfg.learning_rate == 1e-4 and cfg.weight_decay == 5e-5
    assert cfg.loss_weights == LossWeights(1.0, 1.0, 0.5, 0.5, 0.5)
    replace(cfg, proto_strategy="none")  # prototype matching off
    for bad in ({"epochs": 0}, {"batch_size": 1}, {"ams_mode": "auto"},
                {"proto_strategy": "batch"}, {"proto_momentum": 1.0},
                {"proto_assignment": "mode"}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
        with pytest.raises(ConfigError):
            replace(cfg, **bad)


# ------------------------------------------------------------ optimizer


def test_adam_first_step_is_signed_lr():
    params = np.zeros(3)
    grads = np.array([10.0, -0.5, 2.0])
    state = AdamState.zeros(3)
    assert adam_update(params, grads, state, lr=0.1, weight_decay=0.0,
                       decay_mask=np.ones(3)) is None
    assert np.allclose(params, [-0.1, 0.1, -0.1], atol=1e-7)
    assert state.t == 1


def test_adam_decoupled_weight_decay():
    params = np.array([2.0, -2.0])
    zeros = np.zeros(2)
    new = params.copy()
    adam_update(new, zeros, AdamState.zeros(2), lr=0.1, weight_decay=0.5,
                decay_mask=np.ones(2))
    assert np.allclose(new, 0.95 * params, atol=1e-12)

    masked = params.copy()
    adam_update(masked, zeros, AdamState.zeros(2), lr=0.1, weight_decay=0.5,
                decay_mask=np.array([1.0, 0.0]))
    assert masked[0] == pytest.approx(0.95 * 2.0)
    assert masked[1] == params[1]


def test_adam_state_accumulates():
    state = AdamState.zeros(1)
    params = np.array([0.0])
    for _ in range(5):
        adam_update(params, np.array([1.0]), state, 0.01, 0.0, np.ones(1))
    assert state.t == 5
    assert params[0] == pytest.approx(-0.05, abs=1e-6)  # steady unit step of lr


def test_adam_shape_error():
    with pytest.raises(ShapeError):
        adam_update(np.zeros(2), np.zeros(3), AdamState.zeros(2), 0.1, 0.0, np.ones(2))
    with pytest.raises(ShapeError):  # in place needs a float64 array to write
        adam_update([0.0, 0.0], np.zeros(2), AdamState.zeros(2), 0.1, 0.0, np.ones(2))


def reference_adam(params, grads, m, v, t, lr, weight_decay, decay_mask):
    """Out-of-place Adam with decoupled decay, in the operation order of the trainer."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    step_vec = lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * (params * decay_mask))
    return params - step_vec, m, v


def test_adam_in_place_matches_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    n = 50
    params = rng.standard_normal(n)
    decay_mask = np.ones(n)
    decay_mask[-1] = 0.0
    state = AdamState.zeros(n)
    scratch = state.scratch
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    for t in range(1, 8):
        grads = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)
        lr = float(rng.uniform(1e-4, 1e-2))
        adam_update(params, grads, state, lr, 5e-5, decay_mask)
        ref, m, v = reference_adam(ref, grads, m, v, t, lr, 5e-5, decay_mask)
        assert np.array_equal(params, ref)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.t == t
        assert state.scratch is scratch  # every step works in the same arrays


def test_adam_state_always_carries_its_scratch():
    state = AdamState.zeros(3)
    assert state.scratch.shape == (2, 3) and state.scratch.dtype == np.float64
    with pytest.raises(TypeError, match="scratch"):
        AdamState(m=np.zeros(3), v=np.zeros(3))


def test_cosine_lr_schedule():
    assert cosine_lr(0, 10, 2.0) == pytest.approx(2.0)
    assert cosine_lr(10, 10, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(5, 10, 2.0) == pytest.approx(1.0)
    vals = [cosine_lr(s, 20, 1.0) for s in range(21)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(RangeError):
        cosine_lr(11, 10, 1.0)
    with pytest.raises(RangeError):
        cosine_lr(0, 0, 1.0)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])
    assert np.array_equal(clip_global_norm(g, 10.0), g)
    # The benchmark tracer counts clipped steps as calls that return a new array.
    assert clip_global_norm(g, 10.0) is g
    assert clip_global_norm(g, 1.0) is not g
    clipped = clip_global_norm(g, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    assert np.allclose(clipped, g / 5.0)


# ------------------------------------------------------------ step_gradients


def mixed_plan(ds, paired, unpaired, batch_size=10, seed=0):
    pools = prepare_pools(paired, unpaired)
    plan = build_batch(*pools, batch_size, 0.5, seed)
    assert plan.pseudo, "fixture needs pseudo rows"
    return plan, pools


def constant(protos):
    """A step_gradients prototype callback that matches against `protos` in every batch."""
    return lambda fused, labels: protos


def manual_report_terms(teacher, student, by_id, plan, protos, cfg):
    """Recompute each loss term by direct composition of the loss functions."""
    n_g = len(plan.genuine)
    a_rows = list(plan.genuine) + [p[0] for p in plan.pseudo]
    b_rows = list(plan.genuine) + [p[1] for p in plan.pseudo]
    labels = np.array([by_id[i].label for i in a_rows])
    feats_a = np.stack([by_id[i].feat_a for i in a_rows])
    feats_b = np.stack([by_id[i].feat_b for i in b_rows])

    h_b, _, logits_t = teacher_forward(teacher, feats_a, feats_b)
    feat_s, logits_s = student_forward(student, feats_a)

    l_tea = ce_loss(logits_t, labels)[0].mean()
    l_stu = ce_loss(logits_s, labels)[0].mean()
    l_kl = kd_loss(logits_s[:n_g], logits_t[:n_g], cfg.kd_temperature)[0]
    sims, _ = similarity_matrix(feat_s[:n_g], h_b, cfg.sim_temperature)
    l_pair = pair_loss(sims)[0]
    l_proto = proto_loss(feat_s[n_g:], protos, cfg.proto_assignment, labels[n_g:])[0]
    return l_tea, l_stu, l_kl, l_pair, l_proto, labels, logits_t, logits_s


def test_step_gradients_terms_match_direct_composition():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student = joint_nets()
    protos = global_prototypes(teacher, pools)
    cfg = TrainConfig(batch_size=10, proto_assignment="true_class")
    theta = 0.3

    report, grads = one_run_gradients(teacher, student, pools, plan, constant(protos), theta, cfg)
    l_tea, l_stu, l_kl, l_pair, l_proto, labels, logits_t, logits_s = manual_report_terms(
        teacher, student, {s.id: s for s in ds}, plan, protos, cfg
    )
    assert report.l_tea == pytest.approx(l_tea, abs=1e-12)
    assert report.l_stu == pytest.approx(l_stu, abs=1e-12)
    assert report.l_kl == pytest.approx(l_kl, abs=1e-12)
    assert report.l_pair == pytest.approx(l_pair, abs=1e-12)
    assert report.l_proto == pytest.approx(l_proto, abs=1e-12)
    w = cfg.loss_weights
    assert report.total == (w.tea * report.l_tea + w.stu * report.l_stu + w.kl * report.l_kl
                            + w.pair * report.l_pair + w.proto * report.l_proto)
    assert grads.shape == (teacher.param_count + student.param_count + 1,)

    # theta entry follows the expected-loss surrogate on the weighted subsets
    n_g = len(plan.genuine)
    lg = (w.tea * ce_loss(logits_t[:n_g], labels[:n_g])[0].mean()
          + w.stu * ce_loss(logits_s[:n_g], labels[:n_g])[0].mean()
          + w.kl * l_kl + w.pair * l_pair)
    lq = (w.tea * ce_loss(logits_t[n_g:], labels[n_g:])[0].mean()
          + w.stu * ce_loss(logits_s[n_g:], labels[n_g:])[0].mean()
          + w.proto * l_proto)
    r = sampling_ratio(cfg.ams_mode, theta, cfg.fixed_ratio)
    assert grads[-1] == pytest.approx((lg - lq) * r * (1 - r), abs=1e-12)


def test_step_gradients_zero_weights_skip_terms():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student = joint_nets()
    cfg = TrainConfig(loss_weights=LossWeights(tea=1, stu=0, kl=0, pair=0, proto=0),
                      ams_mode="none", proto_strategy="none")

    report, grads = one_run_gradients(teacher, student, pools, plan, None, 0.0, cfg)
    assert report.l_stu == report.l_kl == report.l_pair == report.l_proto == 0.0
    assert report.total == report.l_tea
    # the student receives no signal from a teacher-only objective
    n_t = teacher.param_count
    assert np.abs(grads[n_t:-1]).max() == 0.0
    assert grads[-1] == 0.0


def test_step_gradients_student_only_leaves_teacher_untouched():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student = joint_nets()
    cfg = TrainConfig(loss_weights=LossWeights(tea=0, stu=1, kl=0, pair=0, proto=0),
                      ams_mode="none", proto_strategy="none")
    report, grads = one_run_gradients(teacher, student, pools, plan, None, 0.0, cfg)
    assert np.abs(grads[: teacher.param_count]).max() == 0.0
    assert report.l_tea == 0.0 and report.l_stu > 0.0


def test_step_gradients_theta_zero_without_pseudo_rows():
    ds, paired, unpaired = make_data(missing_rate=0.0)
    pools = prepare_pools(paired, unpaired)
    plan = build_batch(*pools, 8, 1.0, seed=1)
    teacher, student = joint_nets()
    cfg = TrainConfig()
    report, grads = one_run_gradients(
        teacher, student, pools, plan, constant(global_prototypes(teacher, pools)), 0.4, cfg,
    )
    assert grads[-1] == 0.0
    assert report.l_proto == 0.0  # no pseudo recipients to match


def test_step_gradients_rejects_all_pseudo_batch():
    ds, paired, unpaired = make_data()
    pools = prepare_pools(paired, unpaired)
    plan = build_batch(*pools, 8, 0.0, seed=0)
    teacher, student = joint_nets()
    with pytest.raises(ProtocolError):
        one_run_gradients(teacher, student, pools, plan, None, 0.0, TrainConfig())


def test_step_gradients_matches_fd_on_student_params():
    """End-to-end derivative of the weighted objective wrt student params."""
    ds, paired, unpaired = make_data(spc=8, dim=4)
    plan, pools = mixed_plan(ds, paired, unpaired, batch_size=6, seed=2)
    teacher, student = joint_nets(dim=4, feat=3, hidden=4)
    protos = global_prototypes(teacher, pools)
    cfg = TrainConfig(proto_assignment="true_class")

    _, grads = one_run_gradients(teacher, student, pools, plan, constant(protos), 0.0, cfg)
    analytic = grads[teacher.param_count : -1].copy()  # the next call overwrites grads

    base = student.get_params().copy()
    fd = np.zeros_like(base)
    h = 1e-5
    for i in range(base.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            p = base.copy()
            p[i] += sign * h
            student.set_params(p)
            rep, _ = one_run_gradients(teacher, student, pools, plan, constant(protos), 0.0, cfg)
            fd[i] += sign * rep.total
        fd[i] /= 2 * h
    student.set_params(base)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
    assert float((np.abs(analytic - fd) / denom).max()) < 1e-4


def test_step_gradients_fills_the_joint_buffer_of_bound_nets_in_place():
    """The gradient is the nets' joint buffer, and the next call overwrites it."""
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    other = build_batch(*pools, 10, 0.5, seed=7)
    cfg = TrainConfig(batch_size=10, proto_assignment="true_class")

    def fresh_gradient(p):
        """The gradient of plan `p` from a new pair of the same nets, copied."""
        t, s = joint_nets()
        return one_run_gradients(t, s, pools, p, constant(global_prototypes(t, pools)), 0.3,
                              cfg)[1].copy()

    kept, kept_other = fresh_gradient(plan), fresh_gradient(other)
    assert not np.array_equal(kept, kept_other)

    teacher, student = joint_nets()
    params, buffer = joint_buffers(teacher, student)
    assert buffer.shape == params.shape == (1, teacher.param_count + student.param_count + 1)
    nets = stack_runs(teacher, student, params, buffer)
    protos = global_prototypes(teacher, pools)
    _, bound = step_gradients(*nets, [pools], [plan], [constant(protos)], [0.3], cfg)
    assert bound is buffer
    assert np.array_equal(bound[0], kept)
    _, bound_other = step_gradients(*nets, [pools], [other], [constant(protos)], [0.3], cfg)
    assert bound_other is buffer
    assert np.array_equal(bound[0], kept_other)  # overwritten by the second call


def test_step_gradients_requires_nets_bound_together():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    cfg = TrainConfig(ams_mode="fixed", proto_strategy="none")
    teacher, student = make_nets()
    with pytest.raises(UsageError, match="must be bound together"):
        step_gradients(teacher, student, [pools], [plan], None, [0.0], cfg)


def test_joint_buffers_raise_unless_the_nets_are_bound_together():
    teacher, student = make_nets()
    with pytest.raises(UsageError, match="must be bound together"):
        joint_buffers(teacher, student)
    params, _, _ = bind_joint_params([(teacher, student, 0.0)])
    bound, grad = joint_buffers(teacher, student)
    assert bound is params and grad.shape == params.shape and grad is not params
    assert teacher.grad.base is grad and student.grad.base is grad
    bind_joint_params([(teacher, make_nets(seed=3)[1], 0.0)])
    with pytest.raises(UsageError):  # the teacher moved to another buffer
        joint_buffers(teacher, student)

    teacher, student = joint_nets()
    n = student.head.param_count
    student.head.bind(np.zeros(n), np.zeros(n))  # one part moves out on its own
    with pytest.raises(UsageError):
        joint_buffers(teacher, student)


# ------------------------------------------------------------ train_step


def bound_nets(theta=0.0):
    """Fresh nets laid out as the one run of a joint buffer, with that run along
    the run axis and a matching Adam state: (teacher, student, nets, params, adam)."""
    teacher, student = make_nets()
    params, *nets = bind_joint_params([(teacher, student, theta)])
    return teacher, student, nets, params, AdamState.zeros(params.shape)


def test_train_step_updates_params_and_prototypes():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student, nets, params, adam = bound_nets()
    cfg = TrainConfig(proto_assignment="true_class")
    protos = empty_prototypes(2, teacher.feat_dim)
    before_t = teacher.get_params().copy()
    before_s = student.get_params().copy()

    (new_protos,), (trace,) = train_step(
        *nets, [pools], [plan], [protos], params, adam, cfg, lr=1e-3, step=0,
        decay_mask=trainer._decay_mask(params.shape[1]),
    )
    assert not np.array_equal(teacher.get_params(), before_t)
    assert not np.array_equal(student.get_params(), before_s)
    assert np.array_equal(params[0], np.concatenate(
        [teacher.get_params(), student.get_params(), [trace.theta]]))
    assert not new_protos.stale.any()  # both classes seen in the genuine rows
    assert adam.t == 1
    assert trace.n_genuine == len(plan.genuine)
    assert trace.n_pseudo == len(plan.pseudo)
    assert trace.theta != 0.0  # dynamic theta moved
    assert trace.ratio == sampling_ratio("dynamic", trace.theta, cfg.fixed_ratio)


def test_train_step_theta_frozen_outside_dynamic():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student, nets, params, adam = bound_nets()
    cfg = TrainConfig(ams_mode="none")
    _, (trace,) = train_step(
        *nets, [pools], [plan], [empty_prototypes(2, teacher.feat_dim)],
        params, adam, cfg, lr=1e-3, step=0, decay_mask=trainer._decay_mask(params.shape[1]),
    )
    assert params[0, -1] == trace.theta == 0.0
    assert trace.ratio == 1.0


def test_train_step_requires_genuine_rows():
    ds, paired, unpaired = make_data()
    pools = prepare_pools(paired, unpaired)
    plan = build_batch(*pools, 8, 0.0, seed=0)
    teacher, student, nets, params, adam = bound_nets()
    with pytest.raises(ProtocolError, match="^step 0: batch has no genuine pair$"):
        train_step(*nets, [pools], [plan],
                   [empty_prototypes(2, teacher.feat_dim)], params, adam, TrainConfig(),
                   lr=1e-3, step=0, decay_mask=trainer._decay_mask(params.shape[1]))


def test_train_step_requires_nets_bound_to_params():
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    teacher, student, nets, params, adam = bound_nets()
    protos = empty_prototypes(2, teacher.feat_dim)
    with pytest.raises(UsageError, match="bound to another buffer than params"):
        train_step(*nets, [pools], [plan], [protos],
                   params.copy(), adam, TrainConfig(), lr=1e-3, step=0,
                   decay_mask=trainer._decay_mask(params.shape[1]))
    free_t, free_s = make_nets()
    with pytest.raises(UsageError, match="must be bound together"):
        train_step(free_t, free_s, [pools], [plan], [protos], params, adam, TrainConfig(),
                   lr=1e-3, step=0, decay_mask=trainer._decay_mask(params.shape[1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_stops_before_updating_from_a_non_finite_gradient(monkeypatch, bad):
    """8 steps (2 epochs of 4); the last step's gradient gets one bad entry.
    The fit raises, naming the step, and the update is not made."""
    ds, _, _ = make_data(spc=16)
    teacher, student = make_nets()
    real = trainer.step_gradients
    calls = []

    def poisoned(teacher, student, *args):
        reports, grads = real(teacher, student, *args)
        calls.append((teacher.get_params(), student.get_params()))
        if len(calls) == 8:
            grads[0, 3] = bad  # the fit's one run is row 0 of the joint gradient
        return reports, grads

    monkeypatch.setattr(trainer, "step_gradients", poisoned)
    with pytest.raises(NumericHealthError, match=r"^step 7: gradient norm is not finite$"):
        fit(teacher, student, ds, TrainConfig(epochs=2, batch_size=8, seed=1))
    assert len(calls) == 8
    before_t, before_s = calls[-1]
    assert np.array_equal(teacher.get_params(), before_t)
    assert np.array_equal(student.get_params(), before_s)
    assert np.isfinite(teacher.get_params()).all()


def test_clip_global_norm_rejects_a_non_finite_norm():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericHealthError, match="gradient norm is not finite"):
            clip_global_norm(np.array([1.0, bad]), 5.0)


def test_unpaired_feat_b_gathered_as_a_donor_fails_loudly():
    """A plan edited to name an unpaired sample as donor must not train
    silently: only the rows build_batch drew from the pools are gathered."""
    ds, paired, unpaired = make_data()
    plan, pools = mixed_plan(ds, paired, unpaired)
    rec, _, cls = plan.pseudo[0]
    bad = replace(plan, pseudo=((rec, rec, cls),) + plan.pseudo[1:])
    teacher, student = joint_nets()
    with pytest.raises(UsageError, match="not drawn by build_batch from these pools"):
        one_run_gradients(teacher, student, pools, bad, None, 0.0,
                       TrainConfig(ams_mode="fixed", proto_strategy="none"))


# ------------------------------------------------------------ fit


def fast_cfg(**overrides) -> TrainConfig:
    base = dict(
        epochs=10, batch_size=16, learning_rate=1e-3, seed=11,
        proto_assignment="true_class",
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_fit_learns_separable_data():
    ds, _, _ = make_data(missing_rate=0.5, spc=20, separation=9.0)
    teacher, student = make_nets(feat=8, hidden=12)
    result = fit(teacher, student, ds, fast_cfg(epochs=60))
    feats = np.stack([s.feat_a for s in ds])
    labels = np.array([s.label for s in ds])
    _, logits = student_forward(result.student, feats)
    acc = float((np.argmax(logits, axis=1) == labels).mean())
    assert acc >= 0.95, f"student training accuracy {acc}"
    assert result.steps == 60 * math.ceil(len(ds) / 16)
    assert len(result.epoch_traces) == 60
    assert not result.prototypes.stale.any()


def test_fit_deterministic():
    ds, _, _ = make_data()
    r1 = fit(*make_nets(seed=3), ds, fast_cfg())
    r2 = fit(*make_nets(seed=3), ds, fast_cfg())
    assert np.array_equal(r1.student.get_params(), r2.student.get_params())
    assert np.array_equal(r1.teacher.get_params(), r2.teacher.get_params())
    assert r1.epoch_traces == r2.epoch_traces
    r3 = fit(*make_nets(seed=3), ds, fast_cfg(seed=12))
    assert not np.array_equal(r1.student.get_params(), r3.student.get_params())


def test_fit_prototype_matching_inert_without_pseudo_rows():
    """With genuine-only batches the prototype arm cannot change training."""
    ds, _, _ = make_data(missing_rate=0.3)
    base_cfg = fast_cfg(
        ams_mode="none", proto_strategy="none",
        loss_weights=LossWeights(1, 1, 0.5, 0, 0),
    )
    pcm_cfg = fast_cfg(
        ams_mode="none", proto_strategy="paired",
        loss_weights=LossWeights(1, 1, 0.5, 0, 0.5),
    )
    r_base = fit(*make_nets(seed=4), ds, base_cfg)
    r_pcm = fit(*make_nets(seed=4), ds, pcm_cfg)
    assert np.array_equal(r_base.student.get_params(), r_pcm.student.get_params())
    assert np.array_equal(r_base.teacher.get_params(), r_pcm.teacher.get_params())


def test_fit_dynamic_theta_trains():
    ds, _, _ = make_data(missing_rate=0.5)
    result = fit(*make_nets(seed=6), ds, fast_cfg(epochs=15))
    assert result.epoch_traces[-1].theta != 0.0
    ratios = [t.ratio for t in result.epoch_traces]
    assert any(abs(r - 0.5) > 1e-4 for r in ratios)


def test_fit_all_strategy_recomputes_prototypes_each_epoch():
    ds, paired, unpaired = make_data(missing_rate=0.4)
    teacher, student = make_nets(seed=8)
    result = fit(teacher, student, ds, fast_cfg(epochs=4, proto_strategy="all"))
    # the final set must equal global prototypes under the start-of-epoch
    # teacher only if the teacher stopped moving, so just check usability
    assert not result.prototypes.stale.any()
    fresh = global_prototypes(result.teacher, prepare_pools(paired, unpaired))
    assert fresh.counts.sum() == len(paired)


def test_fit_errors():
    ds, paired, unpaired = make_data()
    teacher, student = make_nets()
    with pytest.raises(EmptyBatchError):
        fit(teacher, student, [], fast_cfg())
    with pytest.raises(ProtocolError):
        fit(teacher, student, unpaired, fast_cfg())  # no genuine pair anywhere
    mismatched = StudentNet.create(6, 2, feat_dim=5, hidden_width=8, seed=0)
    with pytest.raises(ConfigError):
        fit(teacher, mismatched, ds, fast_cfg())
    three_class = [replace_label(s, 2) for s in ds[:4]] + list(ds[4:])
    with pytest.raises(ConfigError):
        fit(teacher, student, three_class, fast_cfg())


def replace_label(sample, label):
    from dataclasses import replace as dc_replace

    return dc_replace(sample, label=label)


def test_global_prototypes_matches_batch_means():
    ds, paired, unpaired = make_data()
    teacher, _ = make_nets()
    shuffled = [paired[i] for i in np.random.default_rng(0).permutation(len(paired))]
    protos = global_prototypes(teacher, prepare_pools(shuffled, unpaired))
    by_id = sorted(paired, key=lambda s: s.id)  # paired rows in id order
    feats_a = np.stack([s.feat_a for s in by_id])
    feats_b = np.stack([s.feat_b for s in by_id])
    _, fused, _ = teacher_forward(teacher, feats_a, feats_b)
    labels = np.array([s.label for s in by_id])
    expected = compute_batch_prototypes(fused, labels, 2)
    assert np.array_equal(protos.values, expected.values)
    assert np.array_equal(protos.counts, expected.counts)
    with pytest.raises(ProtocolError):
        prepare_pools([], unpaired)  # the paired pool always holds a row


def test_epoch_trace_averages_step_reports():
    ds, _, _ = make_data(spc=10)
    result = fit(*make_nets(seed=9), ds, fast_cfg(epochs=2, batch_size=8))
    # 20 samples, batch 8 -> 3 steps per epoch; totals must be finite means
    for tr in result.epoch_traces:
        assert math.isfinite(tr.total)
        assert tr.total == pytest.approx(
            tr.l_tea * 1.0 + tr.l_stu * 1.0 + tr.l_kl * 0.5
            + tr.l_pair * 0.5 + tr.l_proto * 0.5, abs=1e-9,
        )


def test_export_trace_csv_layout(tmp_path):
    ds, _, _ = make_data(spc=8)
    result = fit(*make_nets(seed=10), ds, fast_cfg(epochs=2))
    path = tmp_path / "trace.csv"
    export_trace_csv(result.epoch_traces, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,l_tea,l_stu,l_kl,l_pair,l_proto,total,theta,ratio,lr"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


# ------------------------------------------------------------ golden fits

# The six acceptance-grid arms: (ams mode, prototype strategy, weights).
# Prototype matching is on unless the strategy is "none".
GRID_ARMS = {
    "baseline": ("none", "none", LossWeights(1, 1, 0.5, 0, 0)),
    "pcm": ("none", "paired", LossWeights(1, 1, 0.5, 0, 0.5)),
    "ams_fixed": ("fixed", "paired", LossWeights(1, 1, 0.5, 0.5, 0.5)),
    "full": ("dynamic", "paired", LossWeights(1, 1, 0.5, 0.5, 0.5)),
    "proto_none_ams": ("dynamic", "none", LossWeights(1, 1, 0.5, 0, 0)),
    "proto_all": ("dynamic", "all", LossWeights(1, 1, 0.5, 0.5, 0.5)),
}

# sha256 of golden_fit_bytes().  Each arm keeps the zero byte that once marked
# a single-stage fit; the final theta and ratio are pinned by the epoch traces.
GOLDEN_FIT_DIGEST = "39ced080365f664144fe087625ac2b9e08d15d66ab009c166d7368ca90dbc86b"


def grid_cfg(name: str) -> TrainConfig:
    ams, strategy, weights = GRID_ARMS[name]
    return fast_cfg(epochs=3, batch_size=8, loss_weights=weights, ams_mode=ams,
                    proto_strategy=strategy)


def fit_result_chunks(result) -> list:
    protos = result.prototypes
    return [
        result.teacher.get_params().tobytes(),
        result.student.get_params().tobytes(),
        repr(result.epoch_traces).encode(),
        protos.values.tobytes(), protos.counts.tobytes(), protos.stale.tobytes(),
        str(result.steps).encode(),
    ]


def golden_fit_bytes() -> bytes:
    """Every output of a small fit of each grid arm."""
    ds, _, _ = make_data(missing_rate=0.5, spc=16)
    chunks = []
    for name in GRID_ARMS:
        result = fit(*make_nets(seed=13), ds, grid_cfg(name))
        chunks += [name.encode(), bytes([False])] + fit_result_chunks(result)
    return b"|".join(chunks)


def test_fit_outputs_match_golden_digest():
    assert hashlib.sha256(golden_fit_bytes()).hexdigest() == GOLDEN_FIT_DIGEST


@pytest.mark.parametrize("name", ["full", "proto_all"])
def test_fit_ignores_the_order_of_its_samples(name):
    ds, _, _ = make_data(missing_rate=0.5, spc=16)
    shuffled = [ds[i] for i in np.random.default_rng(1).permutation(len(ds))]
    sorted_fit = fit(*make_nets(seed=13), ds, grid_cfg(name))
    shuffled_fit = fit(*make_nets(seed=13), shuffled, grid_cfg(name))
    assert fit_result_chunks(shuffled_fit) == fit_result_chunks(sorted_fit)


@pytest.mark.parametrize("name", list(GRID_ARMS))
def test_lockstep_fits_equal_separate_fits(name):
    """Three runs trained together, with their own seeds, nets and pools, each
    give the bits of their own single fit."""
    runs = [(make_data(missing_rate=0.5, spc=16, seed=5 + i)[0], 13 + i, 11 + i)
            for i in range(3)]
    alone = [fit(*make_nets(seed=nets), ds, replace(grid_cfg(name), seed=seed))
             for ds, nets, seed in runs]
    together = trainer.fit_runs(
        [(*make_nets(seed=nets), ds) for ds, nets, _ in runs],
        [replace(grid_cfg(name), seed=seed) for _, _, seed in runs],
    )
    for one, stacked in zip(alone, together):
        assert fit_result_chunks(stacked) == fit_result_chunks(one)
