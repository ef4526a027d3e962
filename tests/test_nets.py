"""MLP forward/backward correctness, parameter flattening, checkpoints."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgad import nets
from pgad.errors import ConfigError, ProtocolError, ShapeError, UsageError
from pgad.nets import (
    Mlp,
    MlpSpec,
    StudentNet,
    TeacherNet,
    bind_joint_params,
    joint_buffers,
    load_checkpoint,
    save_checkpoint,
    student_backward,
    student_forward,
    teacher_backward,
    teacher_features,
    teacher_forward,
)

FD_STEP = 1e-5


def fd_grad(f, params, step=FD_STEP):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        g[i] = (f(up) - f(down)) / (2.0 * step)
    return g


def max_rel_err(a, b, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def test_mlp_spec_validation():
    """Checked when built, by the constructor and by replace alike."""
    good = MlpSpec((4, 3, 2))
    for bad in ({"layer_widths": (4,)}, {"layer_widths": (4, 0, 2)}):
        with pytest.raises(ConfigError):
            MlpSpec(**{"layer_widths": (4, 3), **bad})
        with pytest.raises(ConfigError):
            replace(good, **bad)


def test_mlp_init_bounds_and_determinism():
    spec = MlpSpec((5, 7, 3))
    net = Mlp(spec, seed=11)
    again = Mlp(spec, seed=11)
    assert np.array_equal(net.get_params(), again.get_params())
    other = Mlp(spec, seed=12)
    assert not np.array_equal(net.get_params(), other.get_params())
    for w, fan_in in zip(net.weights, (5, 7)):
        assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)


def test_mlp_param_round_trip():
    net = Mlp(MlpSpec((4, 6, 2)), seed=0)
    flat = net.get_params()
    assert flat.shape == (net.param_count,)
    assert net.param_count == (6 * 4 + 6) + (2 * 6 + 2)
    rng = np.random.default_rng(1)
    new = rng.standard_normal(flat.shape)
    net.set_params(new)
    assert np.array_equal(net.get_params(), new)
    with pytest.raises(ShapeError):
        net.set_params(new[:-1])


def test_mlp_weights_are_views_that_set_params_keeps_bound():
    net = Mlp(MlpSpec((4, 6, 2)), seed=0)
    weights, biases = list(net.weights), list(net.biases)
    new = np.arange(net.param_count, dtype=np.float64)
    net.set_params(new)
    assert all(a is b for a, b in zip(net.weights + net.biases, weights + biases))
    assert all(w.flags.c_contiguous for w in net.weights)
    assert np.array_equal(net.weights[0], new[:24].reshape(6, 4))
    assert np.array_equal(net.biases[0], new[24:30])
    assert np.array_equal(net.weights[1], new[30:42].reshape(2, 6))
    assert np.array_equal(net.biases[1], new[42:])


def test_bind_joint_params_layout_and_in_place_updates():
    t = TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=1)
    s = StudentNet.create(4, 2, feat_dim=3, hidden_width=5, seed=2)
    before_t, before_s = t.get_params(), s.get_params()
    x = np.random.default_rng(0).standard_normal((3, 4))
    _, logits = student_forward(s, x)

    buf, _, _ = bind_joint_params([(t, s, 0.25)])
    assert np.array_equal(buf, [np.concatenate([before_t, before_s, [0.25]])])
    assert joint_buffers(t, s)[0] is buf
    assert np.array_equal(student_forward(s, x)[1], logits)  # same values, new home

    buf[0, : t.param_count] += 1.0
    assert np.array_equal(t.get_params(), before_t + 1.0)
    assert np.array_equal(s.get_params(), before_s)
    s.set_params(before_s * 2.0)  # writes the buffer, so the binding holds
    assert joint_buffers(t, s)[0] is buf
    assert np.array_equal(buf[0, t.param_count : -1], before_s * 2.0)
    assert buf[0, -1] == 0.25


def test_mlp_bind_rejects_bad_buffers():
    net = Mlp(MlpSpec((3, 2)), seed=0)
    good = np.zeros(net.param_count)
    bad = (np.zeros(net.param_count + 1), np.zeros(2 * net.param_count)[::2],
           np.zeros(net.param_count, dtype=np.float32))
    for buffer in bad:
        with pytest.raises(ShapeError):
            net.bind(buffer, good.copy())
        with pytest.raises(ShapeError):  # the gradient buffer is held to the same rules
            net.bind(good.copy(), buffer)


def test_mlp_final_layer_is_affine():
    """A single-layer net must be exactly W x + b, no activation."""
    net = Mlp(MlpSpec((3, 2)), seed=4)
    x = np.array([[10.0, -20.0, 30.0]])  # tanh would saturate these
    out = net.forward(x)
    expected = x @ net.weights[0].T + net.biases[0]
    assert np.allclose(out, expected, atol=0, rtol=0)


def test_mlp_forward_shape_errors():
    net = Mlp(MlpSpec((4, 3)), seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros(4))  # 1-d rejected at the Mlp level
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 5)))


def test_mlp_backward_cache_semantics():
    net = Mlp(MlpSpec((3, 4, 2)), seed=2)
    x = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(UsageError):
        net.backward(np.zeros((5, 2)))
    out = net.forward(x)
    net.backward(np.ones_like(out))
    with pytest.raises(UsageError):
        net.backward(np.ones_like(out))  # cache consumed by the first call


def test_mlp_backward_wrong_grad_shape():
    net = Mlp(MlpSpec((3, 2)), seed=2)
    net.forward(np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        net.backward(np.zeros((4, 3)))


def test_mlp_backward_writes_the_gradient_views_in_place():
    net = Mlp(MlpSpec((3, 4, 2)), seed=2)
    grad, views = net.grad, net._grad_weights + net._grad_biases
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    net.forward(x)
    d_input = net.backward(g)
    assert d_input.shape == x.shape
    assert net.grad is grad and all(v.base is grad for v in views)
    first = grad.copy()
    # the layer gradients, in get_params order: weights row-major, then bias
    h = np.tanh(x @ net.weights[0].T + net.biases[0])
    delta = (g @ net.weights[1]) * (1.0 - h * h)
    expected = np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0),
                               (g.T @ h).ravel(), g.sum(axis=0)])
    assert np.allclose(first, expected, rtol=1e-12, atol=1e-12)

    net.forward(x)
    assert net.backward(2.0 * g, input_grad=False) is None  # no input gradient asked for
    assert net.grad is grad and np.allclose(grad, 2.0 * first, rtol=1e-12, atol=1e-12)


def test_backward_chains_return_the_net_gradient_buffer_and_overwrite_it():
    t = TeacherNet.create(3, 3, 2, feat_dim=2, hidden_width=4, seed=3)
    s = StudentNet.create(3, 2, feat_dim=2, hidden_width=4, seed=4)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    for net in (t, s):
        assert net.grad.shape == (net.param_count,)
        assert all(p.grad.base is net.grad for p in net._parts)

    teacher_forward(t, a, b)
    g1 = teacher_backward(t, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    kept = g1.copy()
    teacher_forward(t, a, b)
    g2 = teacher_backward(t, rng.standard_normal((5, 2)))  # no modality-B gradient
    assert g1 is g2 is t.grad and not np.array_equal(g2, kept)

    student_forward(s, a)
    assert student_backward(s, rng.standard_normal((5, 2))) is s.grad


def test_bind_joint_params_lays_out_the_gradients_like_the_parameters():
    t = TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=1)
    s = StudentNet.create(4, 2, feat_dim=3, hidden_width=5, seed=2)
    buf, _, _ = bind_joint_params([(t, s, 0.0)])
    params, grad = joint_buffers(t, s)
    assert params is buf and grad.shape == buf.shape
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 3))
    teacher_forward(t, a, b)
    teacher_backward(t, rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))
    student_forward(s, a)
    student_backward(s, rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))
    n_t = t.param_count
    assert np.array_equal(grad[0, :n_t], t.grad) and np.array_equal(grad[0, n_t:-1], s.grad)
    assert t.grad.base is grad and s.grad.base is grad


def test_mlp_gradients_match_finite_differences():
    """Analytic parameter and input gradients against central differences."""
    rng = np.random.default_rng(5)
    for widths in ((3, 2), (4, 5, 2), (2, 6, 4, 3)):
        net = Mlp(MlpSpec(widths), seed=int(rng.integers(1000)))
        x = rng.standard_normal((4, widths[0]))
        w = rng.standard_normal((4, widths[-1]))  # fixed projection to a scalar

        def f(flat, net=net, x=x, w=w):
            net.set_params(flat)
            return float((net.forward(x) * w).sum())

        base = net.get_params().copy()
        net.set_params(base)
        net.forward(x)
        d_input = net.backward(w)
        analytic = net.grad.copy()
        fd = fd_grad(f, base)
        net.set_params(base)
        assert max_rel_err(analytic, fd) < 1e-4, widths

        def f_in(flat_x, net=net, w=w, shape=x.shape):
            return float((net.forward(flat_x.reshape(shape)) * w).sum())

        fd_in = fd_grad(f_in, x.ravel().copy()).reshape(x.shape)
        assert max_rel_err(d_input, fd_in) < 1e-4


def test_teacher_create_shapes_and_validation():
    t = TeacherNet.create(dim_a=6, dim_b=5, num_classes=3, feat_dim=4, hidden_width=8)
    assert t.feat_dim == 4
    assert t.num_classes == 3
    assert t.enc_a.spec.layer_widths == (6, 8, 4)
    assert t.enc_b.spec.layer_widths == (5, 8, 4)
    assert t.fusion.spec.layer_widths == (8, 4)
    assert t.head.spec.layer_widths == (4, 3)
    bad_enc_b = Mlp(MlpSpec((5, 8, 3)), seed=0)
    with pytest.raises(ConfigError):
        TeacherNet(t.enc_a, bad_enc_b, t.fusion, t.head)
    bad_fusion = Mlp(MlpSpec((7, 4)), seed=0)
    with pytest.raises(ConfigError):
        TeacherNet(t.enc_a, t.enc_b, bad_fusion, t.head)


def test_teacher_create_seed_isolation():
    """Different net seeds give different weights; same seed reproduces."""
    a = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=5, seed=1)
    b = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=5, seed=1)
    c = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=5, seed=2)
    assert np.array_equal(a.get_params(), b.get_params())
    assert not np.array_equal(a.get_params(), c.get_params())
    # encoder sub-seeds differ, so equal-shape encoders are not clones
    d = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=5, seed=1)
    assert not np.array_equal(d.enc_a.get_params(), d.enc_b.get_params())


def test_teacher_forward_shapes_and_batch_mismatch():
    t = TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 3))
    h_b, fused, logits = teacher_forward(t, a, b)
    assert h_b.shape == (6, 3) and fused.shape == (6, 3) and logits.shape == (6, 2)
    h_b2, fused2 = teacher_features(t, a, b)
    assert np.array_equal(h_b2, h_b) and np.array_equal(fused2, fused)
    assert np.array_equal(logits, t.head.forward(fused))
    with pytest.raises(ShapeError):
        teacher_forward(t, a, b[:4])
    with pytest.raises(ShapeError):
        teacher_features(t, a[0], b[0])  # a single pair is not a batch


def test_teacher_backward_matches_fd():
    t = TeacherNet.create(3, 3, 2, feat_dim=2, hidden_width=4, seed=3)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((5, 3))
    gh = rng.standard_normal((5, 2))
    gl = rng.standard_normal((5, 2))

    def f(flat):
        t.set_params(flat)
        h_b, _, logits = teacher_forward(t, a, b)
        return float((h_b * gh).sum() + (logits * gl).sum())

    base = t.get_params().copy()
    t.set_params(base)
    teacher_forward(t, a, b)
    analytic = teacher_backward(t, gl, gh)
    fd = fd_grad(f, base)
    t.set_params(base)
    assert max_rel_err(analytic, fd) < 1e-4


def test_student_forward_backward_matches_fd():
    s = StudentNet.create(4, 3, feat_dim=3, hidden_width=5, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4))
    gf = rng.standard_normal((4, 3))
    gl = rng.standard_normal((4, 3))

    def f(flat):
        s.set_params(flat)
        feat, logits = student_forward(s, x)
        return float((feat * gf).sum() + (logits * gl).sum())

    base = s.get_params().copy()
    s.set_params(base)
    student_forward(s, x)
    analytic = student_backward(s, gl, gf)
    fd = fd_grad(f, base)
    s.set_params(base)
    assert max_rel_err(analytic, fd) < 1e-4


def test_student_forward_rejects_single_vector():
    s = StudentNet.create(3, 2, feat_dim=2, hidden_width=4, seed=1)
    with pytest.raises(ShapeError):
        student_forward(s, np.ones(3))
    feat, logits = student_forward(s, np.ones((1, 3)))
    assert feat.shape == (1, 2) and logits.shape == (1, 2)


def test_checkpoint_round_trip(tmp_path):
    for net in (
        TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=9),
        StudentNet.create(4, 2, feat_dim=3, hidden_width=5, seed=9),
    ):
        path = tmp_path / f"{type(net).__name__}.txt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert type(back) is type(net)
        assert np.array_equal(back.get_params(), net.get_params())
        x = np.random.default_rng(0).standard_normal((3, 4))
        if isinstance(net, StudentNet):
            f0, l0 = student_forward(net, x)
            f1, l1 = student_forward(back, x)
            assert np.array_equal(f0, f1) and np.array_equal(l0, l1)


def test_checkpoint_rejects_corruption(tmp_path):
    net = StudentNet.create(3, 2, feat_dim=2, hidden_width=3, seed=0)
    path = tmp_path / "ck.txt"
    save_checkpoint(net, path)
    lines = path.read_text().splitlines()

    truncated = tmp_path / "short.txt"
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ProtocolError):
        load_checkpoint(truncated)

    bad_kind = tmp_path / "kind.txt"
    bad_kind.write_text(lines[0].replace("student", "ensemble") + "\n"
                        + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ProtocolError):
        load_checkpoint(bad_kind)

    with pytest.raises(UsageError):
        save_checkpoint({"not": "a net"}, tmp_path / "no.txt")


@pytest.mark.parametrize("corrupt", [
    lambda h: h.pop("specs"),
    lambda h: h["specs"].pop("head"),
    lambda h: h["specs"]["enc_a"].pop("layer_widths"),
    lambda h: h["specs"]["enc_a"].update(layer_widths="3,3,2"),
    lambda h: h["specs"]["enc_a"].update(layer_widths=[3, 0, 2]),
    lambda h: h["specs"]["head"].update(activation=None),
    lambda h: h["specs"]["head"].update(activation="sigmoid"),
    lambda h: h["specs"]["head"].update(layer_widths=[5, 2]),
    lambda h: h.update(specs=[]),
    lambda h: h.update(kind=[]),
    lambda h: h.update(kind={}),
    lambda h: h.clear(),
])
def test_checkpoint_rejects_bad_header_naming_the_file(tmp_path, corrupt):
    import json

    path = tmp_path / "ck.txt"
    save_checkpoint(StudentNet.create(3, 2, feat_dim=2, hidden_width=3, seed=0), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    corrupt(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ProtocolError, match="ck.txt"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_relu_header_naming_the_file_and_part(tmp_path):
    """tanh is the only hidden activation, so a header naming another one is
    refused rather than loaded as tanh."""
    path = tmp_path / "ck.txt"
    save_checkpoint(StudentNet.create(3, 2, feat_dim=2, hidden_width=3, seed=0), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert [spec["activation"] for spec in header["specs"].values()] == ["tanh", "tanh"]
    header["specs"]["enc_a"]["activation"] = "relu"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ProtocolError,
                       match=r"ck\.txt: specs\.enc_a: activation must be 'tanh', got 'relu'"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_json_header_and_non_numeric_values(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("not json\n0.5\n")
    with pytest.raises(ProtocolError, match="ck.txt"):
        load_checkpoint(path)
    save_checkpoint(StudentNet.create(3, 2, feat_dim=2, hidden_width=3, seed=0), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + ["0.5x"]) + "\n")
    with pytest.raises(ProtocolError, match="ck.txt"):
        load_checkpoint(path)


def test_checkpoint_reexport_identical(tmp_path):
    net = TeacherNet.create(4, 4, 2, feat_dim=3, hidden_width=4, seed=5)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_checkpoint(net, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_count_mismatch_builds_no_part(tmp_path, monkeypatch):
    path = tmp_path / "ck.txt"
    save_checkpoint(TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=9), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")

    def no_mlp(spec, seed):
        raise AssertionError(f"built an Mlp {spec.layer_widths} for a short checkpoint")

    monkeypatch.setattr(nets, "Mlp", no_mlp)
    with pytest.raises(ProtocolError, match=r"ck\.txt: checkpoint holds \d+ values"):
        load_checkpoint(path)


CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("line"), st.integers(0, 10**4),
              st.text(st.sampled_from('0123456789-.e{}[]":, \n') | st.characters(
                  exclude_categories=("Cs",)), max_size=8)),
    st.tuples(st.just("cut"), st.integers(0, 10**4), st.integers(0, 400)),
    # any width of any part to anything in 0..64
    st.tuples(st.just("width"), st.integers(0, 3), st.integers(0, 2), st.integers(0, 64)),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["teacher", "student"]),
       dims=st.tuples(*[st.integers(1, 8)] * 4), edit=CHECKPOINT_EDITS)
@example(kind="student", dims=(2, 2, 2, 2), edit=("line", 1, "nan"))  # non-finite values
@example(kind="teacher", dims=(2, 2, 2, 2), edit=("line", 2, "inf"))
@example(kind="student", dims=(2, 2, 2, 2), edit=("line", 3, "-inf"))
def test_checkpoint_loads_an_edited_file_or_raises_protocol_error(tmp_path_factory, kind,
                                                                  dims, edit):
    dim_a, dim_b, feat, hidden = dims
    net = (TeacherNet.create(dim_a, dim_b, 2, feat, hidden, seed=1) if kind == "teacher"
           else StudentNet.create(dim_a, 2, feat, hidden, seed=1))
    path = tmp_path_factory.mktemp("ck") / "ck.txt"
    save_checkpoint(net, path)
    lines = path.read_text().splitlines()
    if edit[0] == "width":
        header = json.loads(lines[0])
        spec = list(header["specs"].values())[edit[1] % len(header["specs"])]
        spec["layer_widths"][edit[2] % len(spec["layer_widths"])] = edit[3]
        lines[0] = json.dumps(header)
    elif edit[0] == "line":
        lines[edit[1] % len(lines)] = edit[2]
    else:
        i = edit[1] % len(lines)
        lines[i] = lines[i][: edit[2]]
    path.write_text("\n".join(lines) + "\n")
    with open(path) as fh:  # value lines as the reader sees them
        fh.readline()
        n_values = sum(1 for line in fh if line.strip())

    built = []

    class CountingMlp(nets.Mlp):
        def __init__(self, spec, seed):
            super().__init__(spec, seed)
            built.append(self.param_count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "Mlp", CountingMlp)
        try:
            back = load_checkpoint(path)
        except ProtocolError:
            back = None
    assert sum(built) <= n_values  # the header alone never sizes an allocation
    if back is not None:
        assert type(back) is type(net) and back.param_count == n_values
        assert np.isfinite(back.get_params()).all()


def test_nets_along_the_run_axis_give_each_run_its_own_bits():
    """bind_joint_params lays three runs out as rows; the stacked nets' chains
    over (3, N, ...) batches equal each run's own chains, parameter and
    gradient, bit for bit, and the stacked parts view the runs' rows."""
    rng = np.random.default_rng(3)
    runs = [(TeacherNet.create(4, 3, 2, feat_dim=3, hidden_width=5, seed=i),
             StudentNet.create(4, 2, feat_dim=3, hidden_width=5, seed=10 + i), 0.1 * i)
            for i in range(3)]
    params, teacher, student = bind_joint_params(runs)
    _, grad = joint_buffers(teacher, student)
    assert params.shape == grad.shape == (3, runs[0][0].param_count + runs[0][1].param_count + 1)
    assert teacher.enc_a.weights[0].shape == (3, 5, 4)
    assert all(np.shares_memory(p._flat, params) for p in teacher._parts + student._parts)
    a, b = rng.standard_normal((3, 6, 4)), rng.standard_normal((3, 6, 3))
    d_logits, d_h = rng.standard_normal((3, 6, 2)), rng.standard_normal((3, 6, 3))
    stacked = [*teacher_forward(teacher, a, b), *student_forward(student, a)]
    teacher_backward(teacher, d_logits, d_h)
    student_backward(student, d_logits, d_h)
    stacked_grad = grad.copy()
    for i, (t, s, theta) in enumerate(runs):
        alone = [*teacher_forward(t, a[i], b[i]), *student_forward(s, a[i])]
        assert all(x[i].tobytes() == y.tobytes() for x, y in zip(stacked, alone))
        teacher_backward(t, d_logits[i], d_h[i])
        student_backward(s, d_logits[i], d_h[i])
        assert grad[i, :-1].tobytes() == stacked_grad[i, :-1].tobytes()
        assert params[i, -1] == theta
    with pytest.raises(ShapeError):
        teacher_forward(teacher, a[0], b[0])  # nets along the run axis take (3, N, in)
    with pytest.raises(UsageError):
        save_checkpoint(student, "unused")


def test_bind_joint_params_rejects_runs_it_cannot_stack():
    t, s = TeacherNet.create(4, 3, 2, seed=1), StudentNet.create(4, 2, seed=2)
    wider = TeacherNet.create(4, 3, 2, hidden_width=7, seed=3)
    with pytest.raises(UsageError, match="same specs"):
        bind_joint_params([(t, s, 0.0), (wider, StudentNet.create(4, 2, seed=4), 0.0)])
    with pytest.raises(UsageError, match="nets of its own"):
        bind_joint_params([(t, s, 0.0), (TeacherNet.create(4, 3, 2, seed=5), s, 0.0)])
    with pytest.raises(UsageError):
        bind_joint_params([])
