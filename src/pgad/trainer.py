"""Training loop: loss routing, joint Adam updates, schedules, traces.

One step does, in order: batch composition, teacher and student forwards,
prototype refresh from the batch's genuine pairs, loss evaluation, one
joint Adam update over [teacher params | student params | theta].

fit prepares everything a step reads once, before the first step: the
training set as id-sorted TrainData columns, which a step gathers its rows
from by index, and one parameter buffer [teacher | student | theta] that
both nets are bound to (nets.bind_joint_params), which Adam updates in
place.  Cross-entropy is computed once per logit matrix, per row, and the
theta surrogate's subset losses are means over slices of those rows.

Loss routing per batch:
  l_tea   cross-entropy on teacher logits, genuine + pseudo rows
  l_stu   cross-entropy on student logits, all modality-A rows
  l_kl    distillation on genuine rows only (teacher side constant)
  l_pair  anchors = student features of genuine rows, candidates = teacher
          modality-B embeddings of every batch row (genuine and donors),
          positives on the diagonal
  l_proto pseudo-recipient student features vs current prototypes

Terms with zero weight are skipped entirely and reported as 0.0, so an
all-ablations-off run is computationally identical to plain CE+KD.  The
theta update uses the expected-loss surrogate from the ams module,
splitting the weighted objective into its genuine-subset and
pseudo-subset parts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .ams import (
    AmsState,
    BatchPlan,
    SamplePool,
    build_batch,
    prepare_pools,
    sampling_ratio,
    theta_gradient,
)
from .errors import (
    ConfigError,
    EmptyBatchError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from .losses import (
    KD_TEMPERATURE_DEFAULT,
    SIM_TEMPERATURE_DEFAULT,
    LossReport,
    LossWeights,
    ce_loss,
    kd_loss,
    pair_loss,
    proto_loss,
    similarity_matrix,
    total_loss,
)
from .nets import StudentNet, TeacherNet, bind_joint_params, bound_to
from .prototypes import (
    PROTO_MOMENTUM_DEFAULT,
    PrototypeSet,
    compute_batch_prototypes,
    empty_prototypes,
    update_running_prototypes,
    with_fallback,
)
from .seeding import derive_seed
from .synthdata import Sample

PROTO_STRATEGIES = ("none", "all", "paired")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_DEFAULT = 5.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 5e-5
    kd_temperature: float = KD_TEMPERATURE_DEFAULT
    sim_temperature: float = SIM_TEMPERATURE_DEFAULT
    loss_weights: LossWeights = field(default_factory=LossWeights)
    ams_mode: str = "dynamic"
    fixed_ratio: float = 0.5
    pcm_enabled: bool = True
    proto_strategy: str = "paired"
    proto_momentum: float = PROTO_MOMENTUM_DEFAULT
    proto_assignment: str = "nearest"
    pcm_on_pseudo: bool = True
    two_stage: bool = False
    grad_clip: float = GRAD_CLIP_DEFAULT
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not (self.kd_temperature > 0.0):
            raise ConfigError(f"kd_temperature must be positive, got {self.kd_temperature}")
        if not (self.sim_temperature > 0.0):
            raise ConfigError(f"sim_temperature must be positive, got {self.sim_temperature}")
        if not (self.grad_clip > 0.0):
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")
        self.loss_weights.validate()
        AmsState(theta=0.0, mode=self.ams_mode, fixed_ratio=self.fixed_ratio).validate()
        if self.proto_strategy not in PROTO_STRATEGIES:
            raise ConfigError(
                f"proto_strategy must be one of {PROTO_STRATEGIES}, got {self.proto_strategy!r}"
            )
        if not (0.0 <= self.proto_momentum < 1.0):
            raise ConfigError(f"proto_momentum must be in [0, 1), got {self.proto_momentum}")
        if self.proto_assignment not in ("nearest", "true_class"):
            raise ConfigError(
                f"proto_assignment must be 'nearest' or 'true_class', got {self.proto_assignment!r}"
            )
        if self.pcm_enabled and self.proto_strategy == "none":
            raise ConfigError("pcm_enabled requires a prototype strategy other than 'none'")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


@dataclass(frozen=True)
class TrainData:
    """A training set as read-only columns in ascending id order.

    Unpaired samples have NaN feat_b rows, so gathering one as a modality-B
    input makes the step's losses non-finite instead of passing silently.
    """

    ids: np.ndarray
    labels: np.ndarray
    feat_a: np.ndarray
    feat_b: np.ndarray

    @classmethod
    def from_pools(cls, paired: SamplePool, unpaired: SamplePool) -> "TrainData":
        """Columns of a pool pair from prepare_pools.

        Each pool is already id-sorted with unique ids, the two are disjoint
        and the paired one is nonempty, so merging their ids gives the rows.
        """
        if unpaired.donors is not paired:
            raise UsageError("TrainData needs the pool pair that prepare_pools returns")
        samples = paired.samples + unpaired.samples
        ids = np.concatenate((paired.ids, unpaired.ids))
        order = np.argsort(ids, kind="stable")
        feat_a = np.stack([s.feat_a for s in samples]).astype(np.float64, copy=False)
        feat_b = np.full((len(samples), paired.samples[0].feat_b.shape[0]), np.nan)
        feat_b[: len(paired)] = np.stack([s.feat_b for s in paired])
        columns = (
            ids[order],
            np.concatenate((paired.labels, unpaired.labels))[order],
            feat_a[order],
            feat_b[order],
        )
        for column in columns:
            column.flags.writeable = False
        return cls(*columns)

    def rows(self, ids) -> np.ndarray:
        """Row indices of the given sample ids, in their order."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, ids)
        found = self.ids.take(rows, mode="clip")
        if not np.array_equal(found, ids):
            unknown = ids[found != ids][:5].tolist()
            raise ProtocolError(f"ids not in the training data: {unknown}")
        return rows


@dataclass(frozen=True)
class StepTrace:
    step: int
    report: LossReport
    ratio: float
    theta: float
    lr: float
    n_genuine: int
    n_pseudo: int
    n_stale: int


@dataclass(frozen=True)
class EpochTrace:
    epoch: int
    l_tea: float
    l_stu: float
    l_kl: float
    l_pair: float
    l_proto: float
    total: float
    theta: float
    ratio: float
    lr: float


@dataclass
class FitResult:
    teacher: TeacherNet
    student: StudentNet
    epoch_traces: list
    ams_state: AmsState
    prototypes: PrototypeSet
    steps: int


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float,
    decay_mask: Optional[np.ndarray] = None,
    update_mask: Optional[np.ndarray] = None,
) -> None:
    """One Adam step with decoupled weight decay, in place.

    Updates `params`, `state.m`, `state.v` and `state.t`.  decay_mask zeroes
    the decay term for selected entries (theta); an update_mask freezes
    entries entirely (two-stage training).
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise ShapeError("params must be a float64 array, updated in place")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    t = state.t + 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    step_vec = state.m / (1.0 - ADAM_BETA1**t)
    step_vec /= np.sqrt(state.v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
    step_vec += weight_decay * (params if decay_mask is None else params * decay_mask)
    step_vec *= lr
    if update_mask is not None:
        step_vec *= update_mask
    params -= step_vec
    state.t = t


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to 0 at step == total_steps."""
    if total_steps < 1:
        raise RangeError(f"total_steps must be >= 1, got {total_steps}")
    if not (0 <= step <= total_steps):
        raise RangeError(f"step must lie in [0, {total_steps}], got {step}")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads


def step_gradients(
    teacher: TeacherNet,
    student: StudentNet,
    data: TrainData,
    plan: BatchPlan,
    effective_protos: Optional[PrototypeSet],
    ams_state: AmsState,
    cfg: TrainConfig,
    weights: Optional[LossWeights] = None,
) -> tuple[LossReport, np.ndarray]:
    """Weighted loss report and its gradient over [teacher | student | theta].

    This is the full objective of one step: terms with zero weight are
    skipped and reported as 0.0.  Prototypes and the teacher side of the
    distillation term are constants with respect to the parameters; theta's
    entry comes from the expected-loss surrogate (0.0 outside dynamic mode
    or when the batch has no pseudo-pairs).  Runs its own forward passes,
    so it is self-contained and safe to call for gradient checking.
    """
    w = cfg.loss_weights if weights is None else weights
    n_g, n_p = len(plan.genuine), len(plan.pseudo)
    if n_g == 0:
        raise ProtocolError("batch has no genuine pair")

    # Rows: genuine pairs, then recipients (modality A) or donors (modality B).
    pseudo = np.array(plan.pseudo, dtype=np.int64).reshape(n_p, 3)
    rows = data.rows(np.concatenate((plan.genuine, pseudo[:, 0], pseudo[:, 1])))
    a_rows = rows[: n_g + n_p]
    b_rows = np.concatenate((rows[:n_g], rows[n_g + n_p :]))
    labels = data.labels[a_rows]
    feats_a = data.feat_a[a_rows]
    feats_b = data.feat_b[b_rows]

    h_a = teacher.enc_a.forward(feats_a)
    h_b = teacher.enc_b.forward(feats_b)
    fused = teacher.fusion.forward(np.concatenate([h_a, h_b], axis=1))
    logits_t = teacher.head.forward(fused)
    feat_s = student.enc_a.forward(feats_a)
    logits_s = student.head.forward(feat_s)

    l_tea, l_stu, l_kl, l_pair, l_proto = 0.0, 0.0, 0.0, 0.0, 0.0
    d_logits_t = np.zeros_like(logits_t)
    d_logits_s = np.zeros_like(logits_s)
    d_feat_s = np.zeros_like(feat_s)
    d_h_b = np.zeros_like(h_b)

    n = n_g + n_p
    if w.tea > 0.0:
        nll_t, g = ce_loss(logits_t, labels)
        l_tea = float(nll_t.mean())
        d_logits_t += w.tea * (g / n)
    if w.stu > 0.0:
        nll_s, g = ce_loss(logits_s, labels)
        l_stu = float(nll_s.mean())
        d_logits_s += w.stu * (g / n)
    if w.kl > 0.0:
        l_kl, g = kd_loss(logits_s[:n_g], logits_t[:n_g], cfg.kd_temperature)
        d_logits_s[:n_g] += w.kl * g
    if w.pair > 0.0:
        sims, vjp = similarity_matrix(feat_s[:n_g], h_b, cfg.sim_temperature)
        l_pair, d_sims = pair_loss(sims, [(i, i) for i in range(n_g)])
        d_anchor, d_cand = vjp(d_sims)
        d_feat_s[:n_g] += w.pair * d_anchor
        d_h_b += w.pair * d_cand
    if cfg.pcm_enabled and w.proto > 0.0 and effective_protos is not None:
        pcm_rows = feat_s[n_g:] if cfg.pcm_on_pseudo else feat_s[:0]
        pcm_labels = labels[n_g:] if cfg.pcm_on_pseudo else labels[:0]
        l_proto, g, empty = proto_loss(
            pcm_rows, effective_protos, cfg.proto_assignment, pcm_labels
        )
        if not empty:
            d_feat_s[n_g:] += w.proto * g

    for name, value in (
        ("l_tea", l_tea), ("l_stu", l_stu), ("l_kl", l_kl),
        ("l_pair", l_pair), ("l_proto", l_proto),
    ):
        if not math.isfinite(value):
            raise NumericHealthError(f"{name} is {value}")
    report = total_loss(l_tea, l_stu, l_kl, l_pair, l_proto, w)

    g_head_t, d_fused = teacher.head.backward(d_logits_t)
    g_fusion, d_concat = teacher.fusion.backward(d_fused)
    feat = teacher.feat_dim
    g_enc_a_t, _ = teacher.enc_a.backward(d_concat[:, :feat])
    g_enc_b_t, _ = teacher.enc_b.backward(d_concat[:, feat:] + d_h_b)

    g_head_s, d_feat_head = student.head.backward(d_logits_s)
    g_enc_s, _ = student.enc_a.backward(d_feat_head + d_feat_s)

    g_theta = 0.0
    if ams_state.mode == "dynamic" and n_p > 0:
        loss_genuine = (
            (w.tea * float(nll_t[:n_g].mean()) if w.tea > 0.0 else 0.0)
            + (w.stu * float(nll_s[:n_g].mean()) if w.stu > 0.0 else 0.0)
            + w.kl * l_kl
            + w.pair * l_pair
        )
        loss_pseudo = (
            (w.tea * float(nll_t[n_g:].mean()) if w.tea > 0.0 else 0.0)
            + (w.stu * float(nll_s[n_g:].mean()) if w.stu > 0.0 else 0.0)
            + w.proto * l_proto
        )
        g_theta = theta_gradient(ams_state, loss_genuine, loss_pseudo)

    grads = np.concatenate(
        [g_enc_a_t, g_enc_b_t, g_fusion, g_head_t, g_enc_s, g_head_s, [g_theta]]
    )
    return report, grads


def train_step(
    teacher: TeacherNet,
    student: StudentNet,
    data: TrainData,
    plan: BatchPlan,
    protos: PrototypeSet,
    ams_state: AmsState,
    params: np.ndarray,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
    step: int,
    weights: Optional[LossWeights] = None,
    update_mask: Optional[np.ndarray] = None,
) -> tuple[PrototypeSet, AmsState, StepTrace]:
    """Run one training step; returns the new prototypes and AMS state.

    `params` is the buffer [teacher | student | theta] that both nets are
    bound to (nets.bind_joint_params); the step's Adam update writes it and
    `adam` in place, which updates the nets.  `protos` is the running set
    under the "paired" strategy and a fixed epoch-level set under "all".
    `weights` overrides cfg.loss_weights (two-stage training masks terms
    per stage).
    """
    n_g, n_p = len(plan.genuine), len(plan.pseudo)
    if n_g == 0:
        raise ProtocolError(f"step {step}: batch has no genuine pair")
    if not bound_to(params, teacher, student):
        raise UsageError("teacher and student must be bound to params (bind_joint_params)")

    n_stale = 0
    effective_protos: Optional[PrototypeSet] = None
    new_protos = protos
    if cfg.pcm_enabled:
        if cfg.proto_strategy == "paired":
            genuine = data.rows(plan.genuine)
            h_a = teacher.enc_a.forward(data.feat_a[genuine])
            h_b = teacher.enc_b.forward(data.feat_b[genuine])
            fused = teacher.fusion.forward(np.concatenate([h_a, h_b], axis=1))
            batch_protos = compute_batch_prototypes(
                fused, data.labels[genuine], teacher.num_classes
            )
            new_protos = update_running_prototypes(protos, batch_protos, cfg.proto_momentum)
            effective_protos = with_fallback(batch_protos, new_protos)
            n_stale = int(batch_protos.stale.sum())
        else:
            effective_protos = protos
            n_stale = int(protos.stale.sum())

    try:
        report, grads = step_gradients(
            teacher, student, data, plan, effective_protos,
            ams_state, cfg, weights,
        )
    except NumericHealthError as exc:
        raise NumericHealthError(f"step {step}: {exc}") from exc

    params[-1] = ams_state.theta  # ams_state holds theta between steps
    grads = clip_global_norm(grads, cfg.grad_clip)
    decay_mask = np.ones_like(params)
    decay_mask[-1] = 0.0
    adam_update(params, grads, adam, lr, cfg.weight_decay, decay_mask, update_mask)
    new_ams = replace(ams_state, theta=float(params[-1]))

    trace = StepTrace(
        step=step,
        report=report,
        ratio=sampling_ratio(new_ams),
        theta=new_ams.theta,
        lr=lr,
        n_genuine=n_g,
        n_pseudo=n_p,
        n_stale=n_stale,
    )
    return new_protos, new_ams, trace


def _stage_masks(teacher: TeacherNet, student: StudentNet, stage: Optional[str]):
    n = teacher.param_count + student.param_count + 1
    if stage is None:
        return None
    mask = np.zeros(n)
    mask[-1] = 1.0
    if stage == "teacher":
        mask[: teacher.param_count] = 1.0
    elif stage == "student":
        mask[teacher.param_count : -1] = 1.0
    else:
        raise ConfigError(f"unknown stage {stage!r}")
    return mask


def _stage_weights(w: LossWeights, stage: Optional[str]) -> LossWeights:
    if stage is None:
        return w
    if stage == "teacher":
        return LossWeights(tea=w.tea, stu=0.0, kl=0.0, pair=0.0, proto=0.0)
    return LossWeights(tea=0.0, stu=w.stu, kl=w.kl, pair=w.pair, proto=w.proto)


def fit(
    teacher: TeacherNet,
    student: StudentNet,
    samples: Sequence[Sample],
    cfg: TrainConfig,
) -> FitResult:
    """Train teacher, student, and theta jointly (or in two stages) over epochs.

    Runs epochs * ceil(N / batch_size) steps, each on a freshly sampled
    batch plan drawn from pools prepared once, before the first step.
    Deterministic given (nets' initial parameters, cfg.seed).
    """
    cfg.validate()
    if not samples:
        raise EmptyBatchError("fit needs a nonempty training set")
    if teacher.feat_dim != student.feat_dim:
        raise ConfigError(
            f"teacher fused dim {teacher.feat_dim} != student feature dim {student.feat_dim}"
        )
    paired = [s for s in samples if s.paired]
    unpaired = [s for s in samples if not s.paired]
    if not paired:
        raise ProtocolError("fit needs at least one genuine pair in the training set")
    for s in samples:
        if not (0 <= s.label < teacher.num_classes):
            raise ConfigError(f"sample {s.id} has label {s.label}, head expects "
                              f"[0, {teacher.num_classes})")
    paired_pool, unpaired_pool = prepare_pools(paired, unpaired)
    data = TrainData.from_pools(paired_pool, unpaired_pool)

    steps_per_epoch = math.ceil(len(samples) / cfg.batch_size)
    stages = ("teacher", "student") if cfg.two_stage else (None,)

    ams_state = AmsState(theta=0.0, mode=cfg.ams_mode, fixed_ratio=cfg.fixed_ratio)
    params = bind_joint_params(teacher, student, ams_state.theta)
    protos = empty_prototypes(teacher.num_classes, teacher.feat_dim)
    epoch_traces: list[EpochTrace] = []
    global_step = 0
    epoch_index = 0

    for stage in stages:
        adam = AdamState.zeros(teacher.param_count + student.param_count + 1)
        update_mask = _stage_masks(teacher, student, stage)
        weights = _stage_weights(cfg.loss_weights, stage)
        stage_total = cfg.epochs * steps_per_epoch
        stage_step = 0
        for _ in range(cfg.epochs):
            if cfg.pcm_enabled and cfg.proto_strategy == "all":
                protos = global_prototypes(teacher, paired)
            step_traces = []
            for _ in range(steps_per_epoch):
                r = sampling_ratio(ams_state)
                plan = build_batch(
                    paired_pool, unpaired_pool, cfg.batch_size, r,
                    derive_seed(cfg.seed, "batch", global_step),
                )
                lr = cosine_lr(stage_step, stage_total, cfg.learning_rate)
                protos, ams_state, trace = train_step(
                    teacher, student, data, plan, protos, ams_state, params,
                    adam, cfg, lr, global_step, weights, update_mask,
                )
                step_traces.append(trace)
                global_step += 1
                stage_step += 1
            epoch_traces.append(_epoch_trace(epoch_index, step_traces))
            epoch_index += 1

    return FitResult(
        teacher=teacher,
        student=student,
        epoch_traces=epoch_traces,
        ams_state=ams_state,
        prototypes=protos,
        steps=global_step,
    )


def global_prototypes(teacher: TeacherNet, paired: Sequence[Sample]) -> PrototypeSet:
    """Prototypes from all paired samples under the current teacher."""
    if not paired:
        raise ProtocolError("global prototypes need at least one paired sample")
    feats_a = np.stack([s.feat_a for s in paired])
    feats_b = np.stack([s.feat_b for s in paired])
    h_a = teacher.enc_a.forward(feats_a)
    h_b = teacher.enc_b.forward(feats_b)
    fused = teacher.fusion.forward(np.concatenate([h_a, h_b], axis=1))
    labels = np.array([s.label for s in paired], dtype=np.int64)
    return compute_batch_prototypes(fused, labels, teacher.num_classes)


def _epoch_trace(epoch: int, step_traces: list) -> EpochTrace:
    reports = [t.report for t in step_traces]
    n = len(reports)
    last = step_traces[-1]
    return EpochTrace(
        epoch=epoch,
        l_tea=sum(r.l_tea for r in reports) / n,
        l_stu=sum(r.l_stu for r in reports) / n,
        l_kl=sum(r.l_kl for r in reports) / n,
        l_pair=sum(r.l_pair for r in reports) / n,
        l_proto=sum(r.l_proto for r in reports) / n,
        total=sum(r.total for r in reports) / n,
        theta=last.theta,
        ratio=last.ratio,
        lr=last.lr,
    )


def export_trace_csv(traces: Sequence[EpochTrace], path) -> None:
    """Per-epoch training trace with loss terms, theta, ratio, and lr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "l_tea", "l_stu", "l_kl", "l_pair", "l_proto", "total",
             "theta", "ratio", "lr"]
        )
        for t in traces:
            writer.writerow(
                [t.epoch]
                + [repr(float(v)) for v in (t.l_tea, t.l_stu, t.l_kl, t.l_pair,
                                            t.l_proto, t.total, t.theta, t.ratio, t.lr)]
            )
