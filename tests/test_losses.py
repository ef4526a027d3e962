"""Loss values against hand-computed oracles plus finite-difference gradient checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pgad.errors import (
    ConfigError,
    DegenerateInputError,
    EmptyBatchError,
    LabelError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from pgad.losses import (
    LossReport,
    LossWeights,
    ce_loss,
    kd_loss,
    pair_loss,
    proto_loss,
    similarity_matrix,
    total_loss,
)
from pgad.prototypes import PrototypeSet

FD_STEP = 1e-5


def fd_grad(f, x, step=FD_STEP):
    flat = x.ravel()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += step
        down = flat.copy()
        down[i] -= step
        g[i] = (f(up.reshape(x.shape)) - f(down.reshape(x.shape))) / (2.0 * step)
    return g.reshape(x.shape)


def max_rel_err(a, b, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


# ---------------------------------------------------------------- ce_loss


def test_ce_uniform_logits_give_log_num_classes():
    nll, _ = ce_loss(np.zeros((3, 2)), [0, 1, 1])
    assert np.abs(nll - math.log(2)).max() < 1e-12
    nll4, _ = ce_loss(np.zeros((5, 4)), [0, 1, 2, 3, 0])
    assert np.abs(nll4 - math.log(4)).max() < 1e-12


def test_ce_perfect_prediction_goes_to_zero():
    logits = np.array([[50.0, 0.0], [0.0, 50.0]])
    nll, _ = ce_loss(logits, [0, 1])
    assert nll.max() < 1e-12


def test_ce_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)
    _, grad = ce_loss(logits, labels)
    assert np.abs(grad.sum(axis=1)).max() < 1e-12


def test_ce_gradient_matches_fd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, c = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        logits = rng.standard_normal((n, c)) * 2.0
        labels = rng.integers(0, c, size=n)
        _, grad = ce_loss(logits, labels)
        fd = fd_grad(lambda z: ce_loss(z, labels)[0].mean(), logits)
        grad = grad / n
        assert max_rel_err(grad, fd) < 1e-4


def test_ce_shifted_logits_invariance():
    """Adding a constant per row must not change the loss."""
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 3))
    labels = [0, 2, 1, 1]
    v0, _ = ce_loss(logits, labels)
    v1, _ = ce_loss(logits + 100.0, labels)
    assert np.abs(v0 - v1).max() < 1e-9


def test_ce_errors():
    with pytest.raises(EmptyBatchError):
        ce_loss(np.zeros((0, 2)), [])
    with pytest.raises(ShapeError):
        ce_loss(np.zeros(4), [0])
    with pytest.raises(ShapeError):
        ce_loss(np.zeros((2, 2)), [0])
    with pytest.raises(LabelError):
        ce_loss(np.zeros((2, 2)), [0, 2])
    with pytest.raises(LabelError):
        ce_loss(np.zeros((2, 2)), [-1, 0])


def test_ce_rows_do_not_depend_on_the_rest_of_the_batch():
    """A slice of the per-row values is ce_loss on those rows, bit for bit."""
    rng = np.random.default_rng(3)
    for n in (1, 7, 48):
        logits = rng.standard_normal((n, 2)) * 3.0
        labels = rng.integers(0, 2, size=n)
        nll, grad = ce_loss(logits, labels)
        assert nll.shape == (n,) and grad.shape == (n, 2)
        for k in range(1, n):
            head_nll, head_grad = ce_loss(logits[:k], labels[:k])
            assert np.array_equal(nll[:k], head_nll)
            assert np.array_equal(grad[:k], head_grad)
            assert np.array_equal(nll[k:], ce_loss(logits[k:], labels[k:])[0])


# ---------------------------------------------------------------- kd_loss


def test_kd_frozen_example():
    """Teacher (2/3, 1/3) against a uniform student at T=1."""
    student = np.array([[0.0, 0.0]])
    teacher = np.array([[math.log(2.0), 0.0]])
    value, _ = kd_loss(student, teacher, 1.0)
    expected = (2.0 / 3.0) * math.log((2.0 / 3.0) / 0.5) + (1.0 / 3.0) * math.log(
        (1.0 / 3.0) / 0.5
    )
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.05663301226513248) < 1e-12


def test_kd_identical_logits_give_zero():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((5, 4))
    value, grad = kd_loss(logits, logits.copy(), 2.0)
    assert value == 0.0
    assert np.abs(grad).max() < 1e-12


def test_kd_value_nonnegative_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, c = int(rng.integers(1, 8)), int(rng.integers(2, 5))
        t = float(rng.uniform(0.5, 4.0))
        value, _ = kd_loss(rng.standard_normal((n, c)) * 3,
                           rng.standard_normal((n, c)) * 3, t)
        assert value >= 0.0


def test_kd_gradient_is_student_side_fd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        temp = float(rng.uniform(0.5, 3.0))
        student = rng.standard_normal((n, c))
        teacher = rng.standard_normal((n, c))
        _, grad = kd_loss(student, teacher, temp)
        fd = fd_grad(lambda s: kd_loss(s, teacher, temp)[0], student)
        assert max_rel_err(grad, fd) < 1e-4


def test_kd_temperature_scaling_effect():
    """Higher temperature softens both distributions; the T^2 factor keeps
    the value from collapsing."""
    student = np.array([[2.0, -1.0, 0.5]])
    teacher = np.array([[-1.0, 2.0, 0.0]])
    v1, _ = kd_loss(student, teacher, 1.0)
    v4, _ = kd_loss(student, teacher, 4.0)
    assert v1 > 0.0 and v4 > 0.0
    assert v1 != pytest.approx(v4)


def test_kd_errors():
    ok = np.zeros((2, 2))
    with pytest.raises(RangeError):
        kd_loss(ok, ok, 0.0)
    with pytest.raises(RangeError):
        kd_loss(ok, ok, math.inf)
    with pytest.raises(ShapeError):
        kd_loss(np.zeros((2, 3)), ok, 1.0)
    with pytest.raises(EmptyBatchError):
        kd_loss(np.zeros((0, 2)), np.zeros((0, 2)), 1.0)


# ---------------------------------------------------------------- similarity


def test_similarity_frozen_example():
    sims, _ = similarity_matrix(np.array([[3.0, 4.0]]), np.array([[4.0, 3.0]]), 0.5)
    assert sims[0, 0] == pytest.approx(1.92, abs=1e-12)


def test_similarity_self_is_inverse_temperature():
    v = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, -4.0]])
    sims, _ = similarity_matrix(v, v, 0.1)
    assert np.allclose(np.diag(sims), 10.0, rtol=0, atol=1e-9)


def test_similarity_scale_invariance():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    sims, _ = similarity_matrix(a, b, 0.3)
    scaled, _ = similarity_matrix(3.0 * a, np.array([[0.5], [2.0], [1.0], [7.0]]) * b, 0.3)
    assert np.allclose(scaled, sims, rtol=1e-12, atol=1e-12)


def test_similarity_errors():
    a = np.ones((1, 3))
    with pytest.raises(RangeError):
        similarity_matrix(a, a, 0.0)
    with pytest.raises(ShapeError):
        similarity_matrix(a, np.ones((1, 4)), 1.0)
    with pytest.raises(ShapeError):
        similarity_matrix(np.ones(3), a, 1.0)
    with pytest.raises(DegenerateInputError):
        similarity_matrix(a, np.zeros((1, 3)), 1.0)


def test_similarity_matrix_agrees_with_pairwise_calls():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((5, 4))
    sims, _ = similarity_matrix(a, b, 0.25)
    assert sims.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            ref = float(a[i] @ b[j]) / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]) * 0.25)
            assert sims[i, j] == pytest.approx(ref, abs=1e-12)


def test_similarity_matrix_vjp_matches_fd():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 4))
    d_sims = rng.standard_normal((3, 4))
    sims, vjp = similarity_matrix(a, b, 0.5)
    d_a, d_b = vjp(d_sims)

    fd_a = fd_grad(lambda m: float((similarity_matrix(m, b, 0.5)[0] * d_sims).sum()), a)
    fd_b = fd_grad(lambda m: float((similarity_matrix(a, m, 0.5)[0] * d_sims).sum()), b)
    assert max_rel_err(d_a, fd_a) < 1e-4
    assert max_rel_err(d_b, fd_b) < 1e-4
    with pytest.raises(ShapeError):
        vjp(np.zeros((2, 2)))


def test_similarity_matrix_rejects_zero_rows():
    a = np.ones((2, 3))
    bad = np.vstack([np.ones(3), np.zeros(3)])
    with pytest.raises(DegenerateInputError):
        similarity_matrix(a, bad, 1.0)


# ---------------------------------------------------------------- pair_loss


def test_pair_loss_frozen_identity_example():
    sims = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, _ = pair_loss(sims)
    assert abs(value - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_pair_loss_dominant_diagonal_goes_to_zero():
    sims = np.full((3, 3), -30.0)
    np.fill_diagonal(sims, 30.0)
    value, _ = pair_loss(sims)
    assert value < 1e-12


def test_pair_loss_gradient_matches_fd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n_a = int(rng.integers(1, 5))
        n_b = n_a + int(rng.integers(0, 3))
        sims = rng.standard_normal((n_a, n_b)) * 2
        _, grad = pair_loss(sims)
        fd = fd_grad(lambda m: pair_loss(m)[0], sims)
        assert max_rel_err(grad, fd) < 1e-4


def test_pair_loss_protocol_errors():
    with pytest.raises(EmptyBatchError):
        pair_loss(np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        pair_loss(np.zeros(3))
    with pytest.raises(ShapeError):
        pair_loss(np.zeros((3, 2)))  # row 2 has no partner column


# ---------------------------------------------------------------- proto_loss


def two_protos():
    return PrototypeSet(
        values=np.array([[0.0, 0.0], [5.0, 5.0]]),
        counts=np.array([3, 3]),
    )


def test_proto_loss_frozen_example():
    value, grad, empty = proto_loss(np.array([[1.0, 0.0]]), two_protos())
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(grad, [[2.0, 0.0]])
    assert not empty


def test_proto_loss_empty_input_is_noop():
    value, grad, empty = proto_loss(np.zeros((0, 2)), two_protos())
    assert value == 0.0 and empty
    assert grad.shape == (0, 2)


def test_proto_loss_nearest_vs_true_class():
    protos = two_protos()
    feats = np.array([[4.0, 4.0]])  # nearest is class 1
    v_near, _, _ = proto_loss(feats, protos, "nearest")
    assert v_near == pytest.approx(2.0, abs=1e-12)
    v_true, _, _ = proto_loss(feats, protos, "true_class", labels=[0])
    assert v_true == pytest.approx(32.0, abs=1e-12)


def test_proto_loss_gradient_matches_fd():
    rng = np.random.default_rng(10)
    protos = PrototypeSet(
        values=np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]]),
        counts=np.array([2, 2]),
    )
    # features firmly inside each cluster so the assignment cannot flip
    feats = np.vstack([rng.standard_normal((3, 3)) * 0.5,
                       8.0 + rng.standard_normal((2, 3)) * 0.5])
    _, grad, _ = proto_loss(feats, protos, "nearest")
    fd = fd_grad(lambda m: proto_loss(m, protos, "nearest")[0], feats)
    assert max_rel_err(grad, fd) < 1e-4

    labels = [0, 1, 0, 1, 1]
    _, grad_t, _ = proto_loss(feats, protos, "true_class", labels=labels)
    fd_t = fd_grad(lambda m: proto_loss(m, protos, "true_class", labels=labels)[0], feats)
    assert max_rel_err(grad_t, fd_t) < 1e-4


def test_proto_loss_errors():
    protos = two_protos()
    with pytest.raises(ShapeError):
        proto_loss(np.zeros(2), protos)
    with pytest.raises(ShapeError):
        proto_loss(np.zeros((1, 3)), protos)
    with pytest.raises(UsageError):
        proto_loss(np.zeros((1, 2)) + 1, protos, "true_class")
    with pytest.raises(ConfigError):
        proto_loss(np.ones((1, 2)), protos, "centroid")
    with pytest.raises(LabelError):
        proto_loss(np.ones((1, 2)), protos, "true_class", labels=[2])
    all_stale = PrototypeSet(values=np.zeros((2, 2)),
                             counts=np.zeros(2, dtype=np.int64))
    with pytest.raises(ProtocolError):
        proto_loss(np.ones((1, 2)), all_stale)
    one_stale = PrototypeSet(values=np.zeros((2, 2)),
                             counts=np.array([0, 3]))
    with pytest.raises(ProtocolError):
        proto_loss(np.ones((1, 2)), one_stale, "true_class", labels=[0])


# ---------------------------------------------------------------- total_loss


def test_total_loss_frozen_weighting():
    w = LossWeights()  # 1, 1, 0.5, 0.5, 0.5
    report = total_loss(1.0, 1.0, 1.0, 1.0, 1.0, w)
    assert report.total == pytest.approx(3.5, abs=1e-12)
    all_ones = LossWeights(tea=1, stu=1, kl=1, pair=1, proto=1)
    assert total_loss(1, 1, 1, 1, 1, all_ones).total == pytest.approx(5.0)


def test_total_loss_recombine_consistency():
    rng = np.random.default_rng(11)
    for _ in range(25):
        terms = rng.uniform(0, 3, size=5)
        w = LossWeights(*rng.uniform(0, 2, size=5))
        r = total_loss(*terms, w)
        assert r.total == (w.tea * r.l_tea + w.stu * r.l_stu + w.kl * r.l_kl
                           + w.pair * r.l_pair + w.proto * r.l_proto)


def test_total_loss_rejects_bad_terms():
    w = LossWeights()
    with pytest.raises(NumericHealthError):
        total_loss(math.nan, 0, 0, 0, 0, w)
    with pytest.raises(NumericHealthError):
        total_loss(0, math.inf, 0, 0, 0, w)
    with pytest.raises(NumericHealthError):
        total_loss(0, 0, -0.1, 0, 0, w)


def test_loss_weights_validation():
    """Checked when built, by the constructor and by replace alike."""
    defaults = LossWeights()
    for bad, message in (({"tea": -1.0}, "loss weight tea must be"),
                         ({"proto": math.nan}, "loss weight proto must be")):
        with pytest.raises(ConfigError, match=message):
            LossWeights(**bad)
        with pytest.raises(ConfigError, match=message):
            replace(defaults, **bad)
    assert defaults == LossWeights(1.0, 1.0, 0.5, 0.5, 0.5)


def test_loss_report_fields():
    r = LossReport(l_tea=1, l_stu=2, l_kl=3, l_pair=4, l_proto=5, total=0)
    assert (r.l_tea, r.l_stu, r.l_kl, r.l_pair, r.l_proto, r.total) == (1, 2, 3, 4, 5, 0)


# ---------------------------------------------------------------- run axis


def test_stacked_kernels_give_each_run_its_own_bits():
    """Each kernel over (R, N, ...) stacks returns, per run, exactly what it
    returns for that run's (N, ...) inputs alone."""
    rng = np.random.default_rng(11)
    r, n, n_g, c, h = 3, 9, 5, 3, 4
    logits_s, logits_t = rng.standard_normal((2, r, n, c)) * 3
    labels = rng.integers(0, c, size=(r, n))
    feats, cands = rng.standard_normal((r, n_g, h)), rng.standard_normal((r, n, h))
    d_sims = rng.standard_normal((r, n_g, n))
    protos = [PrototypeSet(values=rng.standard_normal((c, h)), counts=rng.integers(1, 4, c))
              for _ in range(r)]
    stacked = {
        "ce": ce_loss(logits_s, labels),
        "kd": kd_loss(logits_s, logits_t, 2.0),
        "pair": pair_loss(similarity_matrix(feats, cands, 0.3)[0]),
        "vjp": similarity_matrix(feats, cands, 0.3)[1](d_sims),
        "nearest": proto_loss(feats, PrototypeSet.stack(protos)),
        "true_class": proto_loss(feats, PrototypeSet.stack(protos), "true_class",
                                 labels[:, :n_g]),
    }
    for i in range(r):
        alone = {
            "ce": ce_loss(logits_s[i], labels[i]),
            "kd": kd_loss(logits_s[i], logits_t[i], 2.0),
            "pair": pair_loss(similarity_matrix(feats[i], cands[i], 0.3)[0]),
            "vjp": similarity_matrix(feats[i], cands[i], 0.3)[1](d_sims[i]),
            "nearest": proto_loss(feats[i], protos[i]),
            "true_class": proto_loss(feats[i], protos[i], "true_class", labels[i, :n_g]),
        }
        for name, one in alone.items():
            for got, want in zip(stacked[name], one):
                if isinstance(want, bool):
                    assert got == want, name
                else:
                    assert np.asarray(got)[i].tobytes() == np.asarray(want).tobytes(), name


def test_stacked_kernels_name_the_run_whose_input_fails():
    rng = np.random.default_rng(12)
    labels = np.zeros((3, 4), dtype=np.int64)
    labels[2, 1] = 5
    with pytest.raises(LabelError) as failure:
        ce_loss(rng.standard_normal((3, 4, 2)), labels)
    assert failure.value.run == 2
    feats = rng.standard_normal((3, 2, 2))
    feats[1, 0] = 0.0
    with pytest.raises(DegenerateInputError) as failure:
        similarity_matrix(feats, rng.standard_normal((3, 2, 2)), 1.0)
    assert failure.value.run == 1
    counts = np.array([[3, 3], [3, 3], [3, 0]])
    protos = PrototypeSet(values=np.zeros((3, 2, 2)), counts=counts)
    with pytest.raises(ProtocolError, match="^class 1 has no usable prototype$") as failure:
        proto_loss(np.ones((3, 2, 2)), protos, "true_class", np.ones((3, 2), dtype=np.int64))
    assert failure.value.run == 2
    with pytest.raises(ProtocolError, match="every class is stale") as failure:
        proto_loss(np.ones((3, 2, 2)), PrototypeSet(values=np.zeros((3, 2, 2)),
                                                    counts=np.array([[1, 0], [0, 0], [0, 1]])))
    assert failure.value.run == 1
    with pytest.raises(LabelError) as failure:  # one run's inputs name no run
        ce_loss(np.zeros((2, 2)), [0, 2])
    assert not hasattr(failure.value, "run")
