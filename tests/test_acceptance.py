"""Acceptance gate: the nine headline checks, one verdict line each.

Each test prints a single summary line (visible with -s or on failure) and
asserts the pinned threshold.  The ablation grid used by the ordering checks
is trained once per session over three dataset seeds and shared.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from pgad.ams import build_batch, prepare_pools, sampling_ratio
from pgad.evaluation import (
    auc,
    bonferroni,
    confusion,
    mcc,
    paired_ttest,
    sen_spe,
    t_sf_two_sided,
)
from pgad.harness import ArmSpec, ScenarioConfig, run_scenario
from pgad.losses import (
    LossWeights,
    ce_loss,
    kd_loss,
    pair_loss,
    proto_loss,
    similarity_matrix,
)
from pgad.nets import (
    Mlp,
    MlpSpec,
    StudentNet,
    TeacherNet,
    bind_joint_params,
    joint_buffers,
    stack_runs,
    student_forward,
    teacher_forward,
)
from pgad.prototypes import PrototypeSet, compute_batch_prototypes, empty_prototypes
from pgad.seeding import derive_seed
from pgad.synthdata import DatasetConfig, generate_dataset
from pgad.trainer import (
    AdamState,
    TrainConfig,
    _decay_mask,
    cosine_lr,
    global_prototypes,
    step_gradients,
    train_step,
)

GRID_SEEDS = (101, 202, 303)
FD_STEP = 1e-5
FD_TOL = 1e-4
ORACLE_TOL = 1e-9
DEGENERATION_TOL = 1e-10


# ===================================================================== helpers


def fd_grad(f, params, h=FD_STEP):
    base = np.asarray(params, dtype=np.float64)
    out = np.zeros_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        out[i] = (f(plus) - f(minus)) / (2.0 * h)
    return out


def rel_err(analytic, fd):
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(fd, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float((np.abs(a - b) / denom).max())


def _mlp(rng, d_in, d_out, hidden=None):
    dims = (d_in, int(rng.integers(2, 9)) if hidden is None else hidden, d_out)
    return Mlp(MlpSpec(dims), int(rng.integers(2**31)))


# ===================================================================== C1


def _check_ce_instance(rng):
    c = int(rng.integers(2, 5))
    net = _mlp(rng, int(rng.integers(2, 9)), c)
    n = int(rng.integers(2, 7))
    x = rng.normal(size=(n, net.spec.in_dim))
    labels = rng.integers(0, c, size=n)

    logits = net.forward(x)
    _, g = ce_loss(logits, labels)
    net.backward(g / n)
    analytic = net.grad.copy()

    def f(p):
        net.set_params(p)
        return ce_loss(net.forward(x), labels)[0].mean()

    return rel_err(analytic, fd_grad(f, net.get_params()))


def _check_kd_instance(rng):
    c = int(rng.integers(2, 5))
    net = _mlp(rng, int(rng.integers(2, 9)), c)
    n = int(rng.integers(2, 7))
    x = rng.normal(size=(n, net.spec.in_dim))
    logits_t = 2.0 * rng.normal(size=(n, c))
    temp = float(rng.uniform(1.0, 4.0))

    logits_s = net.forward(x)
    _, g = kd_loss(logits_s, logits_t, temp)
    net.backward(g)
    analytic = net.grad.copy()

    def f(p):
        net.set_params(p)
        return kd_loss(net.forward(x), logits_t, temp)[0]

    return rel_err(analytic, fd_grad(f, net.get_params()))


def _check_pair_instance(rng):
    k = int(rng.integers(2, 6))
    net_a = _mlp(rng, int(rng.integers(2, 9)), k)
    net_b = _mlp(rng, int(rng.integers(2, 9)), k)
    n = int(rng.integers(2, 6))
    m = n + int(rng.integers(0, 4))
    x_a = rng.normal(size=(n, net_a.spec.in_dim))
    x_b = rng.normal(size=(m, net_b.spec.in_dim))
    tau = float(rng.uniform(0.2, 1.0))

    anchors = net_a.forward(x_a)
    cands = net_b.forward(x_b)
    sims, vjp = similarity_matrix(anchors, cands, tau)
    _, d_sims = pair_loss(sims)
    d_anchor, d_cand = vjp(d_sims)
    net_a.backward(d_anchor)
    net_b.backward(d_cand)
    analytic = np.concatenate([net_a.grad, net_b.grad])

    n_a = net_a.param_count

    def f(p):
        net_a.set_params(p[:n_a])
        net_b.set_params(p[n_a:])
        sims_f, _ = similarity_matrix(net_a.forward(x_a), net_b.forward(x_b), tau)
        return pair_loss(sims_f)[0]

    params = np.concatenate([net_a.get_params(), net_b.get_params()])
    return rel_err(analytic, fd_grad(f, params))


def _check_proto_instance(rng, assignment):
    k = int(rng.integers(2, 6))
    net = _mlp(rng, int(rng.integers(2, 9)), k)
    n = int(rng.integers(2, 6))
    n_cls = int(rng.integers(2, 5))
    x = rng.normal(size=(n, net.spec.in_dim))
    labels = rng.integers(0, n_cls, size=n)
    feats = net.forward(x)

    for _ in range(50):
        values = 4.0 * rng.normal(size=(n_cls, k))
        d2 = ((feats[:, None, :] - values[None, :, :]) ** 2).sum(axis=2)
        d2_sorted = np.sort(d2, axis=1)
        if assignment == "true_class" or (d2_sorted[:, 1] - d2_sorted[:, 0]).min() > 1e-2:
            break
    protos = PrototypeSet(values=values, counts=np.ones(n_cls, dtype=np.int64))

    _, g, _ = proto_loss(feats, protos, assignment, labels)
    net.backward(g)
    analytic = net.grad.copy()

    def f(p):
        net.set_params(p)
        return proto_loss(net.forward(x), protos, assignment, labels)[0]

    return rel_err(analytic, fd_grad(f, net.get_params()))


def constant(protos):
    """A step_gradients prototype callback that matches the one run's batch
    against `protos` in every step."""
    return lambda fused, labels, n_genuine: protos


def one_run_gradients(teacher, student, pools, plan, callback, theta, cfg):
    """step_gradients for the one run that bind_joint_params laid the nets out as:
    its report and gradient row."""
    nets = stack_runs(teacher, student, *joint_buffers(teacher, student))
    reports, grads = step_gradients(*nets, [pools], [plan], callback, [theta], cfg)
    return reports[0], grads[0]


def _total_instance(rng):
    dim_a = int(rng.integers(3, 7))
    dim_b = int(rng.integers(3, 7))
    ds_cfg = DatasetConfig(
        num_classes=2, samples_per_class=6, dim_a=dim_a, dim_b=dim_b,
        class_separation=4.0, noise_scale=1.0, missing_rate=0.4,
        seed=int(rng.integers(2**31)),
    )
    samples = generate_dataset(ds_cfg)
    paired = [s for s in samples if s.paired]
    unpaired = [s for s in samples if not s.paired]
    by_id = {s.id: s for s in samples}
    pools = prepare_pools(paired, unpaired)
    plan = build_batch(*pools, 6, 0.5, int(rng.integers(2**31)))

    teacher = TeacherNet.create(dim_a, dim_b, 2, feat_dim=3, hidden_width=4,
                                seed=int(rng.integers(2**31)))
    student = StudentNet.create(dim_a, 2, feat_dim=3, hidden_width=4,
                                seed=int(rng.integers(2**31)))
    bind_joint_params([(teacher, student, 0.0)])
    protos = global_prototypes(teacher, pools)
    cfg = TrainConfig(
        proto_assignment="true_class",
        kd_temperature=float(rng.uniform(1.0, 3.0)),
        sim_temperature=float(rng.uniform(0.2, 1.0)),
    )
    theta = float(rng.uniform(-1.0, 1.0))
    return teacher, student, by_id, pools, plan, protos, cfg, theta


def _check_total_instance(rng):
    """Full-objective gradient: student by FD on the reported total, teacher
    by FD on the distillation-frozen part it actually optimizes, theta by FD
    on the expected-loss surrogate."""
    teacher, student, by_id, pools, plan, protos, cfg, theta = _total_instance(rng)
    w = cfg.loss_weights
    n_g = len(plan.genuine)

    report, grads = one_run_gradients(teacher, student, pools, plan, constant(protos), theta,
                                      cfg)
    grads = grads.copy()  # the calls below overwrite the joint gradient buffer
    p_t = teacher.param_count
    t_base = teacher.get_params().copy()
    s_base = student.get_params().copy()

    def f_student(p):
        student.set_params(p)
        rep, _ = one_run_gradients(teacher, student, pools, plan, constant(protos), theta, cfg)
        return rep.total

    err_s = rel_err(grads[p_t:-1], fd_grad(f_student, s_base))
    student.set_params(s_base)

    a_rows = list(plan.genuine) + [p[0] for p in plan.pseudo]
    b_rows = list(plan.genuine) + [p[1] for p in plan.pseudo]
    labels = np.array([by_id[i].label for i in a_rows])
    feats_a = np.stack([by_id[i].feat_a for i in a_rows])
    feats_b = np.stack([by_id[i].feat_b for i in b_rows])
    feat_s_const, _ = student_forward(student, feats_a)

    def f_teacher(p):
        teacher.set_params(p)
        h_b, _, logits_t = teacher_forward(teacher, feats_a, feats_b)
        sims, _ = similarity_matrix(feat_s_const[:n_g], h_b, cfg.sim_temperature)
        return w.tea * ce_loss(logits_t, labels)[0].mean() + w.pair * pair_loss(sims)[0]

    err_t = rel_err(grads[:p_t], fd_grad(f_teacher, t_base))
    teacher.set_params(t_base)

    _, _, logits_t = teacher_forward(teacher, feats_a, feats_b)
    _, logits_s = student_forward(student, feats_a)
    lg = (w.tea * ce_loss(logits_t[:n_g], labels[:n_g])[0].mean()
          + w.stu * ce_loss(logits_s[:n_g], labels[:n_g])[0].mean()
          + w.kl * report.l_kl + w.pair * report.l_pair)
    lq = (w.tea * ce_loss(logits_t[n_g:], labels[n_g:])[0].mean()
          + w.stu * ce_loss(logits_s[n_g:], labels[n_g:])[0].mean()
          + w.proto * report.l_proto)

    def f_theta(th):
        sig = 1.0 / (1.0 + math.exp(-th[0]))
        return sig * lg + (1.0 - sig) * lq

    err_theta = rel_err(np.array([grads[-1]]),
                        fd_grad(f_theta, np.array([theta])))
    return max(err_s, err_t, err_theta)


def test_c1_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(20474)
    worst = {}
    per_family = 100
    for _ in range(per_family):
        worst["ce"] = max(worst.get("ce", 0.0), _check_ce_instance(rng))
        worst["kd"] = max(worst.get("kd", 0.0), _check_kd_instance(rng))
        worst["pair"] = max(worst.get("pair", 0.0), _check_pair_instance(rng))
        assignment = "true_class" if rng.integers(2) else "nearest"
        worst["proto"] = max(worst.get("proto", 0.0), _check_proto_instance(rng, assignment))
        worst["total"] = max(worst.get("total", 0.0), _check_total_instance(rng))
    elapsed = time.monotonic() - started
    overall = max(worst.values())
    ok = overall < FD_TOL and elapsed < 120.0
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    print(f"[C1] gradient check: {5 * per_family} instances, max rel err {overall:.2e} "
          f"(tol {FD_TOL}), {detail}, elapsed {elapsed:.1f}s: {'PASS' if ok else 'FAIL'}")
    assert overall < FD_TOL
    assert elapsed < 120.0


# ===================================================================== C2


def brute_confusion(labels, preds):
    tp = int(np.sum((labels == 1) & (preds == 1)))
    tn = int(np.sum((labels == 0) & (preds == 0)))
    fp = int(np.sum((labels == 0) & (preds == 1)))
    fn = int(np.sum((labels == 1) & (preds == 0)))
    return tp, fp, tn, fn


def brute_mcc(tp, fp, tn, fn):
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def brute_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_c2_metric_oracles_agree():
    rng = np.random.default_rng(93101)
    instances = 0
    worst_real = 0.0

    # prototype means against a per-class loop
    for _ in range(300):
        n_cls = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 7))
        n = int(rng.integers(0, 30))
        feats = rng.normal(size=(n, dim))
        labels = rng.integers(0, n_cls, size=n)
        protos = compute_batch_prototypes(feats, labels, n_cls)
        for c in range(n_cls):
            members = feats[labels == c]
            assert int(protos.counts[c]) == len(members)
            assert bool(protos.stale[c]) == (len(members) == 0)
            if len(members):
                diff = float(np.abs(protos.values[c] - members.mean(axis=0)).max())
                worst_real = max(worst_real, diff)
                assert diff <= ORACLE_TOL
        instances += 1

    # confusion counts, MCC, sensitivity, specificity
    for _ in range(250):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # keep both classes present
        preds = rng.integers(0, 2, size=n)
        got = confusion(labels, preds)
        want = brute_confusion(labels, preds)
        assert got == want
        tp, fp, tn, fn = want
        diff = abs(mcc(tp, fp, tn, fn) - brute_mcc(tp, fp, tn, fn))
        worst_real = max(worst_real, diff)
        assert diff <= ORACLE_TOL
        sen, spe = sen_spe(tp, fp, tn, fn)
        assert abs(sen - tp / (tp + fn)) <= ORACLE_TOL
        assert abs(spe - tn / (tn + fp)) <= ORACLE_TOL
        instances += 1

    # AUC with deliberate score ties against the pairwise definition
    for _ in range(250):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        decimals = 1 if rng.integers(2) else 3
        scores = np.round(rng.uniform(size=n), decimals)
        diff = abs(auc(labels, scores) - brute_auc(labels, scores))
        worst_real = max(worst_real, diff)
        assert diff <= ORACLE_TOL
        instances += 1

    # paired t-test against scipy plus the degenerate conventions
    for _ in range(180):
        k = int(rng.integers(2, 13))
        a = rng.normal(size=k)
        b = rng.normal(size=k)
        if np.std(a - b, ddof=1) == 0.0:
            a[0] += 0.5
        res = paired_ttest(a, b)
        ref = stats.ttest_rel(a, b)
        diff = max(abs(res.t_statistic - float(ref.statistic)),
                   abs(res.p_value - float(ref.pvalue)))
        worst_real = max(worst_real, diff)
        assert diff <= ORACLE_TOL
        instances += 1
    for _ in range(20):
        k = int(rng.integers(2, 9))
        # dyadic values keep the constant offset exactly constant in floats
        x = rng.integers(-8, 9, size=k) * 0.25
        same = paired_ttest(x, x.copy())
        assert (same.t_statistic, same.p_value, same.perfect_separation) == (0.0, 1.0, False)
        apart = paired_ttest(x + 1.0, x)
        assert math.isinf(apart.t_statistic) and apart.t_statistic > 0
        assert apart.p_value == 0.0 and apart.perfect_separation
        instances += 1

    # t survival function: published two-sided critical points at df=4,
    # where an independent closed form exists, then random cross-checks
    published = ((2.132, 0.10), (2.776, 0.05), (3.747, 0.02), (4.604, 0.01))
    worst_table = 0.0
    for t_val, _alpha in published:
        u = t_val / math.sqrt(t_val * t_val + 4.0)
        closed = 1.0 - u * (3.0 - u * u) / 2.0
        worst_table = max(worst_table, abs(t_sf_two_sided(t_val, 4) - closed))
        instances += 1
    assert worst_table <= 1e-6
    for _ in range(100):
        t_val = float(rng.uniform(0.0, 8.0))
        u = t_val / math.sqrt(t_val * t_val + 4.0)
        closed = 1.0 - u * (3.0 - u * u) / 2.0
        diff = abs(t_sf_two_sided(t_val, 4) - closed)
        worst_real = max(worst_real, diff)
        assert diff <= ORACLE_TOL
        instances += 1

    ok = instances >= 1000
    print(f"[C2] metric oracles: {instances} fuzz instances, max real deviation "
          f"{worst_real:.2e} (tol {ORACLE_TOL}), table check {worst_table:.2e} "
          f"(tol 1e-6): {'PASS' if ok else 'FAIL'}")
    assert instances >= 1000


# ===================================================================== C3


def test_c3_bonferroni_value():
    corrected = bonferroni(0.05, 24)
    printed = f"{corrected:.5f}"
    ok = printed == "0.00208" and abs(corrected - 0.05 / 24) < 1e-15
    print(f"[C3] Bonferroni alpha=0.05 m=24 -> {corrected!r} prints as {printed}: "
          f"{'PASS' if ok else 'FAIL'}")
    assert printed == "0.00208"
    assert corrected == pytest.approx(0.05 / 24, abs=1e-15)


# ===================================================================== grid


def ablation_arms():
    return (
        ArmSpec(name="baseline", pcm=False, ams="none", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
        ArmSpec(name="pcm", pcm=True, ams="none", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0.5)),
        ArmSpec(name="ams_fixed", pcm=True, ams="fixed", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5)),
        ArmSpec(name="full", pcm=True, ams="dynamic", proto_strategy="paired",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5),
                rates=(0.2, 0.5, 0.7)),
        ArmSpec(name="proto_none_ams", pcm=False, ams="dynamic", proto_strategy="none",
                loss_weights=LossWeights(1, 1, 0.5, 0, 0)),
        ArmSpec(name="proto_all", pcm=True, ams="dynamic", proto_strategy="all",
                loss_weights=LossWeights(1, 1, 0.5, 0.5, 0.5)),
    )


def grid_scenario(seed: int, out_dir: str) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"ablation_{seed}",
        dataset=DatasetConfig(
            num_classes=2, samples_per_class=200, dim_a=16, dim_b=16,
            class_separation=6.5, noise_scale=1.6, missing_rate=0.0, seed=seed,
        ),
        train=TrainConfig(epochs=100, batch_size=48, learning_rate=1e-3,
                          proto_assignment="true_class", seed=0),
        arms=ablation_arms(),
        missing_rates=(0.5,),
        k_folds=5,
        output_dir=out_dir,
    )


@pytest.fixture(scope="session")
def ablation_grid(tmp_path_factory):
    runs = {}
    started = time.monotonic()
    for seed in GRID_SEEDS:
        out = tmp_path_factory.mktemp(f"grid_{seed}")
        summary = run_scenario(grid_scenario(seed, str(out)), jobs=4)
        runs[seed] = (summary, out)
    elapsed = time.monotonic() - started
    return runs, elapsed


def grand_mcc(runs, arm, rate=0.5):
    return float(np.mean([s.cell(arm, rate).mean["mcc"] for s, _ in runs.values()]))


# ===================================================================== C4-C7


def test_c4_component_ablation_improves(ablation_grid):
    runs, elapsed = ablation_grid
    base = grand_mcc(runs, "baseline")
    pcm = grand_mcc(runs, "pcm")
    ams = grand_mcc(runs, "ams_fixed")
    full = grand_mcc(runs, "full")
    gap = full - base
    ok = (0.6 <= base <= 0.8 and base <= pcm + 1e-9 and pcm <= ams + 1e-9
          and gap >= 0.02 and elapsed < 900.0)
    print(f"[C4] ablation at 50% missing over seeds {GRID_SEEDS}: baseline {base:.4f} "
          f"<= +pcm {pcm:.4f} <= +pcm+ams {ams:.4f}, full-baseline gap {gap:+.4f} "
          f"(>= 0.02), grid time {elapsed:.0f}s (< 900): {'PASS' if ok else 'FAIL'}")
    assert 0.6 <= base <= 0.8, f"baseline MCC {base:.4f} outside the target band"
    assert base <= pcm + 1e-9
    assert pcm <= ams + 1e-9
    assert gap >= 0.02
    assert elapsed < 900.0


def test_c5_missing_rate_degradation(ablation_grid):
    runs, _ = ablation_grid
    by_rate = [grand_mcc(runs, "full", r) for r in (0.2, 0.5, 0.7)]
    ok = by_rate[0] >= by_rate[1] - 1e-9 and by_rate[1] >= by_rate[2] - 1e-9
    vals = ", ".join(f"{r}:{v:.4f}" for r, v in zip((0.2, 0.5, 0.7), by_rate))
    print(f"[C5] full-model MCC by missing rate ({vals}) should be non-increasing: "
          f"{'PASS' if ok else 'FAIL'}")
    assert by_rate[0] >= by_rate[1] - 1e-9, (
        f"MCC rose from {by_rate[0]:.4f} at rate 0.2 to {by_rate[1]:.4f} at rate 0.5"
    )
    assert by_rate[1] >= by_rate[2] - 1e-9


def test_c6_prototype_strategy_ordering(ablation_grid):
    runs, _ = ablation_grid
    none = grand_mcc(runs, "proto_none_ams")
    all_ = grand_mcc(runs, "proto_all")
    paired = grand_mcc(runs, "full")
    ok = none <= all_ + 1e-9 and all_ <= paired + 1e-9
    print(f"[C6] prototype strategies at 50% missing: none {none:.4f} <= all {all_:.4f} "
          f"<= paired {paired:.4f}: {'PASS' if ok else 'FAIL'}")
    assert none <= all_ + 1e-9
    assert all_ <= paired + 1e-9


def test_c7_ams_ordering_and_ratio_trace(ablation_grid):
    runs, _ = ablation_grid
    no_ams = grand_mcc(runs, "pcm")
    fixed = grand_mcc(runs, "ams_fixed")
    dynamic = grand_mcc(runs, "full")

    departures = []
    for seed, (_, out) in runs.items():
        seed_max = 0.0
        for fold in range(5):
            path = os.path.join(str(out), "ams", f"full_rate0.5_fold{fold}.csv")
            rows = Path(path).read_text().splitlines()
            assert rows[0] == "epoch,theta,ratio"
            ratios = [float(ln.split(",")[2]) for ln in rows[1:]]
            seed_max = max(seed_max, max(abs(r - 0.5) for r in ratios))
        departures.append(seed_max)
    min_departure = min(departures)

    ok = no_ams <= fixed + 1e-9 and fixed <= dynamic + 1e-9 and min_departure >= 0.02
    print(f"[C7] AMS at 50% missing: none {no_ams:.4f} <= fixed {fixed:.4f} <= dynamic "
          f"{dynamic:.4f}; min per-seed ratio departure {min_departure:.4f} (>= 0.02): "
          f"{'PASS' if ok else 'FAIL'}")
    assert no_ams <= fixed + 1e-9
    assert fixed <= dynamic + 1e-9
    assert min_departure >= 0.02


# ===================================================================== C8


def test_c8_rerun_is_byte_identical(ablation_grid, tmp_path):
    runs, _ = ablation_grid
    _, first_out = runs[GRID_SEEDS[0]]
    rerun_out = tmp_path / "rerun"
    os.makedirs(rerun_out)
    run_scenario(grid_scenario(GRID_SEEDS[0], str(rerun_out)), jobs=4)

    compared = 0
    mismatched = []
    targets = ["metrics.csv", "summary.csv"]
    for sub in ("traces", "ams", "prototypes", "checkpoints"):
        targets += sorted(
            os.path.join(sub, name)
            for name in os.listdir(os.path.join(str(first_out), sub))
        )
    for rel in targets:
        a = Path(first_out, rel).read_bytes()
        b = Path(rerun_out, rel).read_bytes()
        compared += 1
        if a != b:
            mismatched.append(rel)
    ok = compared > 2 and not mismatched
    print(f"[C8] determinism: {compared} artifact files byte-compared across reruns, "
          f"{len(mismatched)} mismatched: {'PASS' if ok else 'FAIL'}")
    # 8 (arm, rate) cells x 5 folds each write 4 files, plus the two tables
    assert compared == 2 + 4 * 40
    assert mismatched == []


# ===================================================================== C9


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _manual_ce(logits, labels):
    return float(-_log_softmax(logits)[np.arange(len(labels)), labels].mean())


def _manual_kd(logits_s, logits_t, temp):
    ls_t = _log_softmax(logits_t / temp)
    ls_s = _log_softmax(logits_s / temp)
    p_t = np.exp(ls_t)
    kl = (p_t * (ls_t - ls_s)).sum(axis=1).mean()
    return max(float(temp * temp * kl), 0.0)


def test_c9_degenerates_to_plain_distillation():
    """With matching off, adaptive sampling off, and the matching and pairing
    weights zeroed, every step's report must equal hand-computed CE and KD."""
    cfg = TrainConfig(
        epochs=5, batch_size=16, learning_rate=1e-3, seed=5,
        proto_strategy="none", ams_mode="none",
        loss_weights=LossWeights(1, 1, 0.5, 0, 0),
    )
    ds_cfg = DatasetConfig(
        num_classes=2, samples_per_class=40, dim_a=8, dim_b=8,
        class_separation=5.0, noise_scale=1.2, missing_rate=0.0, seed=77,
    )
    samples = generate_dataset(ds_cfg)
    paired = [s for s in samples if s.paired]
    by_id = {s.id: s for s in samples}
    teacher = TeacherNet.create(8, 8, 2, feat_dim=8, hidden_width=12, seed=1)
    student = StudentNet.create(8, 2, feat_dim=8, hidden_width=12, seed=2)

    total_steps = 50
    pools = prepare_pools(paired, [])
    params, *nets = bind_joint_params([(teacher, student, 0.0)])
    adam = AdamState.zeros(params.shape)
    decay_mask = _decay_mask(params.shape[1])
    protos = empty_prototypes(2, teacher.feat_dim)
    worst = 0.0

    for step in range(total_steps):
        ratio = sampling_ratio(cfg.ams_mode, float(params[0, -1]), cfg.fixed_ratio)
        plan = build_batch(*pools, cfg.batch_size, ratio,
                           derive_seed(cfg.seed, "batch", step))
        assert not plan.pseudo

        labels = np.array([by_id[i].label for i in plan.genuine])
        feats_a = np.stack([by_id[i].feat_a for i in plan.genuine])
        feats_b = np.stack([by_id[i].feat_b for i in plan.genuine])
        _, _, logits_t = teacher_forward(teacher, feats_a, feats_b)
        _, logits_s = student_forward(student, feats_a)
        ref_tea = _manual_ce(logits_t, labels)
        ref_stu = _manual_ce(logits_s, labels)
        ref_kd = _manual_kd(logits_s, logits_t, cfg.kd_temperature)
        ref_total = ref_tea + ref_stu + 0.5 * ref_kd

        lr = cosine_lr(step, total_steps, cfg.learning_rate)
        protos, (trace,) = train_step(
            *nets, [pools], [plan], protos, params, adam, cfg, lr, step, decay_mask,
        )
        rep = trace.report
        assert rep.l_pair == 0.0 and rep.l_proto == 0.0
        assert params[0, -1] == 0.0 and trace.ratio == 1.0
        worst = max(
            worst,
            abs(rep.l_tea - ref_tea),
            abs(rep.l_stu - ref_stu),
            abs(rep.l_kl - ref_kd),
            abs(rep.total - ref_total),
        )

    ok = worst <= DEGENERATION_TOL
    print(f"[C9] degeneration to CE+KD: {total_steps} steps, max term deviation "
          f"{worst:.2e} (tol {DEGENERATION_TOL}): {'PASS' if ok else 'FAIL'}")
    assert worst <= DEGENERATION_TOL
