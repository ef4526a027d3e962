"""Loss values against hand-computed oracles plus finite-difference gradient checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # a row whose class has no usable prototype is left out, not an error
    value, grad, empty = proto_loss(np.ones((1, 2)), one_stale, "true_class", labels=[0])
    assert (value, grad.tolist(), empty) == (0.0, [[0.0, 0.0]], False)
    value, grad, _ = proto_loss(np.ones((2, 2)), one_stale, "true_class", labels=[0, 1])
    assert value == 2.0 and grad.tolist() == [[0.0, 0.0], [2.0, 2.0]]  # the mean of one row


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
    # run 1 lacks a prototype of some of its rows' classes, which are left out
    lacking = PrototypeSet.stack(protos[:1] + [replace(protos[1], counts=np.array([0, 0, 2]))]
                                 + protos[2:])
    assert 0 < np.isin(labels[1, :n_g], [0, 1]).sum() < n_g
    stacked = {
        "ce": ce_loss(logits_s, labels),
        "kd": kd_loss(logits_s, logits_t, 2.0),
        "pair": pair_loss(similarity_matrix(feats, cands, 0.3)[0]),
        "vjp": similarity_matrix(feats, cands, 0.3)[1](d_sims),
        "nearest": proto_loss(feats, PrototypeSet.stack(protos)),
        "true_class": proto_loss(feats, PrototypeSet.stack(protos), "true_class",
                                 labels[:, :n_g]),
        "lacking": proto_loss(feats, lacking, "true_class", labels[:, :n_g]),
    }
    for i in range(r):
        alone = {
            "ce": ce_loss(logits_s[i], labels[i]),
            "kd": kd_loss(logits_s[i], logits_t[i], 2.0),
            "pair": pair_loss(similarity_matrix(feats[i], cands[i], 0.3)[0]),
            "vjp": similarity_matrix(feats[i], cands[i], 0.3)[1](d_sims[i]),
            "nearest": proto_loss(feats[i], protos[i]),
            "true_class": proto_loss(feats[i], protos[i], "true_class", labels[i, :n_g]),
            "lacking": proto_loss(feats[i], PrototypeSet(values=lacking.values[i],
                                                         counts=lacking.counts[i]),
                                  "true_class", labels[i, :n_g]),
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
    # a class without a usable prototype is not a failure: its rows are left out
    value, grad, _ = proto_loss(np.ones((3, 2, 2)), protos, "true_class",
                                np.ones((3, 2), dtype=np.int64))
    assert value.tolist() == [2.0, 2.0, 0.0] and not grad[2].any()
    with pytest.raises(ProtocolError, match="every class is stale") as failure:
        proto_loss(np.ones((3, 2, 2)), PrototypeSet(values=np.zeros((3, 2, 2)),
                                                    counts=np.array([[1, 0], [0, 0], [0, 1]])))
    assert failure.value.run == 1
    with pytest.raises(LabelError) as failure:  # one run's inputs name no run
        ce_loss(np.zeros((2, 2)), [0, 2])
    assert not hasattr(failure.value, "run")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kd_and_proto_over_a_full_stack_equal_their_grouped_values(data):
    """A training step runs kd_loss on each run's genuine rows and proto_loss on
    its pseudo rows once over the whole (R, N, ...) stack, with row masks.
    Every run gets the value and gradient rows of the old grouped calls: one
    call per group of runs sharing a genuine count, on the (k_g, n_g, ...)
    slices; the rows outside a run's mask get a zero gradient."""
    r = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(2, 48))
    c = data.draw(st.sampled_from([2, 3]))
    h = data.draw(st.sampled_from([2, 16]))
    assignment = data.draw(st.sampled_from(["nearest", "true_class"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_genuine = np.array(data.draw(st.lists(st.integers(1, n - 1), min_size=r, max_size=r)))
    genuine = np.arange(n) < n_genuine[:, None]
    logits_s, logits_t = rng.standard_normal((2, r, n, c)) * 3
    feats = rng.standard_normal((r, n, h))
    labels = rng.integers(0, c, size=(r, n))
    counts = rng.integers(0, 3, size=(r, c))
    counts[np.arange(r), rng.integers(0, c, size=r)] += 1  # every run has a usable class
    protos = PrototypeSet(values=rng.standard_normal((r, c, h)), counts=counts)

    kd_value, kd_grad = kd_loss(logits_s, logits_t, 1.5, genuine)
    proto_value, proto_grad, _ = proto_loss(feats, protos, assignment, labels, ~genuine)
    assert not kd_grad[~genuine].any() and not proto_grad[genuine].any()
    for count in set(n_genuine.tolist()):
        group = np.flatnonzero(n_genuine == count)
        value, grad = kd_loss(logits_s[group, :count], logits_t[group, :count], 1.5)
        assert kd_value[group].tobytes() == value.tobytes()
        assert kd_grad[group, :count].tobytes() == grad.tobytes()
        value, grad, _ = proto_loss(feats[group, count:], protos.select(group), assignment,
                                    labels[group, count:])
        assert proto_value[group].tobytes() == value.tobytes()
        assert proto_grad[group, count:].tobytes() == grad.tobytes()


# ---------------------------------------------------------------- merged kernels

# Row counts around the short-row thresholds of the row reductions: two
# columns fold from 8 rows on, up to seven columns from 64 rows on.
ROW_COUNTS = [1, 3, 7, 8, 9, 31, 32, 63, 64, 65, 130]


def plain_log_softmax(z):
    """log-softmax with NumPy's own row reductions, one matrix at a time."""
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def two_pass_kd(s, t, temperature):
    """kd_loss as two log-softmax passes, one per side, over plain reductions."""
    log_ps, log_pt = plain_log_softmax(s / temperature), plain_log_softmax(t / temperature)
    pt = np.exp(log_pt)
    kl = np.add.reduce(pt * (log_pt - log_ps), axis=-1)
    n = s.shape[-2]
    value = np.maximum(temperature**2 * (np.add.reduce(kl, axis=-1) / n), 0.0)
    return value, temperature * (np.exp(log_ps) - pt) / n


@pytest.mark.parametrize("c", range(2, 8))
@pytest.mark.parametrize("runs", [None, 3])
def test_one_cross_entropy_over_both_sides_equals_the_separate_calls(c, runs):
    """A training step takes cross-entropy once over its teacher and student
    logits, stacked side first (one run's (N, C) pair, or R runs' (R, N, C)
    pairs); each side gets the bits of its own call, and of NumPy's own row
    reductions, on either side of the short-row thresholds."""
    rng = np.random.default_rng(c)
    lead = () if runs is None else (runs,)
    for n in ROW_COUNTS:
        logits_t, logits_s = rng.standard_normal((2,) + lead + (n, c)) * 10.0 ** rng.integers(
            -2, 3, size=(2,) + lead + (n, c))
        labels = rng.integers(0, c, size=lead + (n,))
        nll, grad = ce_loss(np.concatenate((logits_t, logits_s)).reshape(-1, n, c),
                            np.concatenate((labels, labels)).reshape(-1, n))
        nll, grad = nll.reshape((2,) + labels.shape), grad.reshape((2,) + logits_t.shape)
        if runs is None:  # a one-run step stacks its two sides as one (2N, C) batch
            flat_nll, flat_grad = ce_loss(np.concatenate((logits_t, logits_s)),
                                          np.concatenate((labels, labels)))
            assert flat_nll.tobytes() == nll.tobytes() and flat_grad.tobytes() == grad.tobytes()
        for side, logits in enumerate((logits_t, logits_s)):
            alone_nll, alone_grad = ce_loss(logits, labels)
            assert nll[side].tobytes() == alone_nll.tobytes(), (n, side)
            assert grad[side].tobytes() == alone_grad.tobytes(), (n, side)
            f_nll, f_grad = ce_loss(np.asfortranarray(logits), labels)  # any memory order
            assert f_nll.tobytes() == alone_nll.tobytes() and f_grad.tobytes() == alone_grad.tobytes()
            logp = plain_log_softmax(logits)
            picked = np.take_along_axis(logp, labels[..., None], -1)[..., 0]
            assert alone_nll.tobytes() == (-picked).tobytes(), (n, side)
        means = np.add.reduce(nll, axis=-1) / n
        for side in range(2):
            assert means[side].tobytes() == (np.add.reduce(nll[side], axis=-1) / n).tobytes()


@pytest.mark.parametrize("c", range(2, 8))
@pytest.mark.parametrize("runs", [None, 3])
def test_one_pass_distillation_equals_two_passes(c, runs):
    """kd_loss takes the log-softmax of both sides in one pass over their
    stack; each run's value and gradient keep the bits of one pass per side
    over NumPy's own row reductions."""
    rng = np.random.default_rng(10 + c)
    lead = () if runs is None else (runs,)
    for n in ROW_COUNTS:
        s, t = rng.standard_normal((2,) + lead + (n, c)) * 4
        for temperature in (0.5, 2.0, 3.7):
            value, grad = kd_loss(s, t, temperature)
            want_value, want_grad = two_pass_kd(s, t, temperature)
            assert np.asarray(value).tobytes() == want_value.tobytes(), (n, temperature)
            assert grad.tobytes() == want_grad.tobytes(), (n, temperature)


def test_pair_loss_reads_and_writes_the_diagonal_as_fancy_indexing_does():
    """pair_loss takes each matrix's diagonal as a strided view; its values
    and gradient equal the fancy-indexed form, square or wide, one run or a
    stack, and a matrix that is not C-contiguous gets the same bits."""
    rng = np.random.default_rng(21)
    for shape in [(1, 1), (5, 5), (4, 9), (3, 6, 11), (2, 7, 7)]:
        sims = rng.standard_normal(shape) * 3
        n_a = shape[-2]
        rows = np.arange(n_a)
        shifted = sims - np.maximum.reduce(sims, axis=-1, keepdims=True)
        log_sum = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
        lse = log_sum[..., 0] + np.maximum.reduce(sims, axis=-1)
        want = np.add.reduce(lse - sims[..., rows, rows], axis=-1) / n_a
        want_grad = np.exp(shifted - log_sum)
        want_grad[..., rows, rows] -= 1.0
        want_grad /= n_a
        for matrix in (sims, np.asfortranarray(sims), np.repeat(sims, 2, axis=-1)[..., ::2]):
            value, grad = pair_loss(matrix)
            assert np.asarray(value).tobytes() == want.tobytes(), shape
            assert grad.tobytes() == want_grad.tobytes(), shape


@pytest.mark.parametrize("runs", [None, 3])
def test_similarity_over_both_sides_rows_keeps_the_per_side_bits(runs):
    """similarity_matrix takes the norms and unit vectors of both sides' rows
    in one array, and its VJP both sides' unit-vector gradients; the
    similarities and the gradients keep the bits of per-side norms,
    quotients and products."""
    rng = np.random.default_rng(33)
    lead = () if runs is None else (runs,)
    for n_a, n_b, dim in [(1, 1, 1), (3, 8, 4), (24, 48, 16), (65, 70, 9)]:
        a = rng.standard_normal(lead + (n_a, dim)) * 10.0 ** rng.integers(-2, 3)
        b = rng.standard_normal(lead + (n_b, dim)) * 10.0 ** rng.integers(-2, 3)
        temperature = 0.1
        sims, vjp = similarity_matrix(a, b, temperature)
        na = np.sqrt(np.add.reduce(a * a, axis=-1))[..., None]
        nb = np.sqrt(np.add.reduce(b * b, axis=-1))[..., None]
        a_hat, b_hat = a / na, b / nb
        assert sims.tobytes() == ((a_hat @ b_hat.mT) / temperature).tobytes(), (n_a, n_b)
        d_sims = rng.standard_normal(sims.shape)
        d_a_hat = (d_sims @ b_hat) / temperature
        d_b_hat = (d_sims.mT @ a_hat) / temperature
        want_a = (d_a_hat - np.add.reduce(d_a_hat * a_hat, axis=-1, keepdims=True) * a_hat) / na
        want_b = (d_b_hat - np.add.reduce(d_b_hat * b_hat, axis=-1, keepdims=True) * b_hat) / nb
        d_a, d_b = vjp(d_sims)
        assert d_a.tobytes() == want_a.tobytes() and d_b.tobytes() == want_b.tobytes(), (n_a, n_b)
