"""Small MLP encoders and heads with explicit, framework-free gradients.

Everything here is plain numpy in float64.  Each network exposes its
trainable parameters as one flat vector in a fixed documented order
(sub-nets in declared order; within an MLP, per layer: weight matrix in
row-major order, then bias), so optimizers and finite-difference checks
can treat a network as a single point in R^n.

The parameters live in that order in flat float64 buffers, and the
gradients in a second buffer of the same layout: every Mlp weight and
bias, and its gradient, is a view into its buffer.  A TeacherNet or
StudentNet binds its parts to one pair of buffers when it is built, so
`net.grad` is the whole net's gradient without a copy.  set_params writes
the parameter buffer in place, so the views stay bound.

Nets that train together share a leading run axis.  bind_joint_params lays
R (teacher, student, theta) runs out as the rows of one (R, P) buffer,
[teacher | student | theta] per row, with the gradients in a second buffer
of the same layout: each run's own nets stay bound to its row, which is
what checkpoints and evaluation read, and the R runs also come back as one
TeacherNet and one StudentNet along the run axis (stack_runs), whose parts
view the buffer's columns as (R, out, in) weights and (R, out) biases; a
stack of one run is bound to its row without the axis.  When a stacked
teacher's two encoders have one spec, their values are adjacent in each
row, so they are also one Mlp with an axis of 2 (TeacherNet.encoders),
and teacher_features and teacher_backward run both in one pass.  An
in-place optimizer step on the buffer is then the update of every net,
and the backward chains fill the gradient buffer without a concatenation
(joint_buffers returns both buffers).

Each network has one forward and one backward chain here, and the
trainer calls them: teacher_features (encoders and fusion),
teacher_forward (those plus the head), teacher_backward, student_forward
and student_backward.  A net takes (N, in) batches, and nets along the run
axis take (R, N, in) batches, one per run; the stacked matmuls and
reductions give each run the bits it gets on its own.  Mlp.backward
writes the layer gradients into the net's gradient views (np.matmul and
np.add.reduce with out=, the same reductions `@` and ndarray.sum run, so
the bits do not change) and returns the gradient with respect to its
input; a backward chain returns the net's gradient buffer, which the next
backward overwrites.

Backward passes consume a single-slot cache written by the most recent
forward pass.  Calling backward twice, or before any forward, raises
UsageError instead of silently reusing stale activations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError, UsageError
from .seeding import derive_seed


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input → hidden… → output); the hidden layers are tanh."""

    layer_widths: tuple

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 2:
            raise ConfigError(f"need at least input and output widths, got {self.layer_widths}")
        if any(int(w) < 1 for w in self.layer_widths):
            raise ConfigError(f"all layer widths must be >= 1, got {self.layer_widths}")

    @property
    def in_dim(self) -> int:
        return int(self.layer_widths[0])

    @property
    def out_dim(self) -> int:
        return int(self.layer_widths[-1])

    @property
    def param_count(self) -> int:
        widths = [int(w) for w in self.layer_widths]
        return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def _layer_views(flat: np.ndarray, widths) -> tuple[list, list]:
    """Per-layer (weights, biases) views into a flat vector in parameter order,
    or into the rows of an (R, n) buffer along the run axis."""
    weights, biases = [], []
    lead = flat.shape[:-1]
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(
            flat[..., offset : offset + fan_out * fan_in].reshape(lead + (fan_out, fan_in))
        )
        offset += fan_out * fan_in
        biases.append(flat[..., offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _check_buffer(buffer: np.ndarray, n: int) -> None:
    if (buffer.dtype != np.float64 or buffer.shape != (n,)
            or not buffer.flags.c_contiguous):
        raise ShapeError(
            f"expected a C-contiguous float64 buffer of length {n}, "
            f"got {buffer.dtype} {buffer.shape}"
        )


class Mlp:
    """Fully connected net: tanh hidden layers, an affine final layer.

    `weights` and `biases` are views into the flat parameter vector, and
    `grad` is the flat gradient of the last backward pass in the same
    layout.  An Mlp along the run axis (Mlp.view) has (R, n) buffers,
    (R, out, in) weights and (R, out) biases.
    """

    def __init__(self, spec: MlpSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(seed)
        draws = []
        widths = spec.layer_widths
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            s = 1.0 / math.sqrt(fan_in)
            draws.append(rng.uniform(-s, s, size=(fan_out, fan_in)).ravel())
            draws.append(rng.uniform(-s, s, size=(fan_out,)))
        self._bind_views(np.concatenate(draws), np.zeros(spec.param_count))
        self._cache: Optional[list] = None

    @classmethod
    def view(cls, spec: MlpSpec, flat: np.ndarray, grad: np.ndarray) -> "Mlp":
        """An Mlp of `spec` whose parameters and gradient are the views `flat`
        and `grad` themselves, not copies: (param_count,) for one net, or
        (R, param_count) for R nets along the run axis, or (..., 2,
        param_count) for a teacher's two encoders (TeacherNet.on_runs)."""
        for buffer in (flat, grad):
            if (buffer.dtype != np.float64 or buffer.ndim not in (1, 2, 3)
                    or buffer.shape[-1] != spec.param_count or buffer.strides[-1] != 8):
                raise ShapeError(f"expected a float64 buffer of {spec.param_count} contiguous "
                                 f"values per run, got {buffer.dtype} {buffer.shape}")
        mlp = cls.__new__(cls)
        mlp.spec = spec
        mlp._bind_views(flat, grad)
        mlp._cache = None
        return mlp

    def _bind_views(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self._flat, self.grad = flat, grad
        self.weights, self.biases = _layer_views(flat, self.spec.layer_widths)
        self._grad_weights, self._grad_biases = _layer_views(grad, self.spec.layer_widths)
        # forward's operands: per layer, W^T and the bias as a row that broadcasts,
        # the tanh layers apart from the affine last one; and the leading axes
        # of the batches forward takes, the buffer's: none for one net
        layers = [(w.mT, b[..., None, :]) for w, b in zip(self.weights, self.biases)]
        self._hidden, self._out = layers[:-1], layers[-1]
        self._lead = flat.shape[:-1]

    @property
    def param_count(self) -> int:
        return self.spec.param_count

    def bind(self, buffer: np.ndarray, grad: np.ndarray) -> None:
        """Move the parameters into `buffer` and the gradient into `grad`.

        Both are C-contiguous float64 vectors of length param_count, usually
        slices of larger buffers; the current values are copied in, and
        every weight and bias (and its gradient) becomes a view into them.
        """
        _check_buffer(buffer, self.param_count)
        _check_buffer(grad, self.param_count)
        buffer[...] = self._flat
        grad[...] = self.grad
        self._bind_views(buffer, grad)

    def get_params(self) -> np.ndarray:
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ShapeError(f"expected parameters of shape {self._flat.shape}, got {flat.shape}")
        self._flat[...] = flat

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Outputs for an (N, in) batch, or for an (R, N, in) batch along the run axis."""
        x = np.asarray(x, dtype=np.float64)
        lead = self._lead
        if x.shape[:-2] != lead or x.ndim != len(lead) + 2:
            raise ShapeError(f"expected a batch of shape {lead + ('N', self.spec.in_dim)}, "
                             f"got shape {x.shape}")
        if x.shape[-1] != self.spec.layer_widths[0]:
            raise ShapeError(f"expected input dim {self.spec.in_dim}, got {x.shape[-1]}")
        acts = [x]
        h = x
        for w_t, b in self._hidden:
            h = h @ w_t
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        w_t, b = self._out
        h = h @ w_t
        h += b
        acts.append(h)
        self._cache = acts
        return h

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Write the parameter gradient into `grad`; return the gradient wrt the input.

        Consumes the cache from the most recent forward pass.  With
        input_grad=False the input gradient is not computed and None is
        returned.
        """
        if self._cache is None:
            raise UsageError("backward called without a pending forward pass")
        acts, self._cache = self._cache, None
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != acts[-1].shape:
            raise ShapeError(f"expected upstream grad of shape {acts[-1].shape}, got {grad_out.shape}")

        delta = grad_out
        for i in range(len(acts) - 2, -1, -1):  # layer i maps acts[i] to acts[i + 1]
            np.matmul(delta.mT, acts[i], out=self._grad_weights[i])
            np.add.reduce(delta, axis=-2, out=self._grad_biases[i])
            if i == 0:
                return delta @ self.weights[0] if input_grad else None
            delta = delta @ self.weights[i]
            # times tanh's derivative 1 - a*a at layer i - 1's output a, which is
            # not read again: worked in place
            a = acts[i]
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            delta = np.multiply(delta, a, out=a)


class _Net:
    """Parameter plumbing shared by TeacherNet and StudentNet.

    `_parts` holds the sub-nets in get_params order, named by
    `part_names`: an encoder whose output width is the feature dim first,
    the head last.  The parts are bound to one parameter buffer `_flat`
    and one gradient buffer `grad` of the whole net (_bind_parts); along
    the run axis both are (R, param_count).  Each subclass binds get_params
    and set_params in its own class body, so the two classes keep separate
    entries that can be replaced one at a time (the benchmark's tracer
    times them per class).
    """

    part_names: tuple
    _parts: tuple
    _flat: np.ndarray
    grad: np.ndarray

    @property
    def feat_dim(self) -> int:
        return self._parts[0].spec.out_dim

    @property
    def num_classes(self) -> int:
        return self._parts[-1].spec.out_dim

    @property
    def param_count(self) -> int:
        return sum(p.param_count for p in self._parts)

    def _bind_parts(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Move every part's parameters and gradient into `flat` and `grad`, in order."""
        offset = 0
        for p in self._parts:
            n = p.param_count
            p.bind(flat[offset : offset + n], grad[offset : offset + n])
            offset += n
        self._flat, self.grad = flat, grad

    def on_runs(self, flat: np.ndarray, grad: np.ndarray):
        """R nets of this class and these parts' specs along the run axis, whose
        parameters and gradient are the (R, param_count) views `flat` and
        `grad` themselves: part by part, Mlp.view of their columns.  One run
        (R = 1) is bound to its row without the run axis, so it runs the
        (N, ...) chains of a lone net."""
        if len(flat) == 1:
            flat, grad = flat[0], grad[0]
        net = object.__new__(type(self))
        parts, offset = [], 0
        for name, p in zip(self.part_names, self._parts):
            n = p.param_count
            parts.append(Mlp.view(p.spec, flat[..., offset : offset + n],
                                  grad[..., offset : offset + n]))
            setattr(net, name, parts[-1])
            offset += n
        net._parts = tuple(parts)
        net._flat, net.grad = flat, grad
        return net


def _get_params(net: _Net) -> np.ndarray:
    return net._flat.copy()


def _set_params(net: _Net, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != net._flat.shape:
        raise ShapeError(f"expected parameters of shape {net._flat.shape}, got {flat.shape}")
    net._flat[...] = flat


class TeacherNet(_Net):
    """Two-modality classifier: per-modality encoders, fusion MLP, linear head."""

    part_names = ("enc_a", "enc_b", "fusion", "head")

    def __init__(self, enc_a: Mlp, enc_b: Mlp, fusion: Mlp, head: Mlp):
        feat = enc_a.spec.out_dim
        if enc_b.spec.out_dim != feat:
            raise ConfigError(
                f"encoder output dims differ: enc_a {feat} vs enc_b {enc_b.spec.out_dim}"
            )
        if fusion.spec.in_dim != 2 * feat:
            raise ConfigError(f"fusion must take {2 * feat} inputs, got {fusion.spec.in_dim}")
        if fusion.spec.out_dim != feat:
            raise ConfigError(
                f"fusion output dim {fusion.spec.out_dim} must equal encoder dim {feat}"
            )
        if head.spec.in_dim != feat:
            raise ConfigError(f"head must take {feat} inputs, got {head.spec.in_dim}")
        self.enc_a = enc_a
        self.enc_b = enc_b
        self.fusion = fusion
        self.head = head
        self._parts = (enc_a, enc_b, fusion, head)
        self._bind_parts(np.empty(self.param_count), np.zeros(self.param_count))

    @classmethod
    def create(
        cls,
        dim_a: int,
        dim_b: int,
        num_classes: int,
        feat_dim: int = 16,
        hidden_width: int = 32,
        seed: int = 0,
    ) -> "TeacherNet":
        enc_a = Mlp(MlpSpec((dim_a, hidden_width, feat_dim)), derive_seed(seed, "enc_a"))
        enc_b = Mlp(MlpSpec((dim_b, hidden_width, feat_dim)), derive_seed(seed, "enc_b"))
        fusion = Mlp(MlpSpec((2 * feat_dim, feat_dim)), derive_seed(seed, "fusion"))
        head = Mlp(MlpSpec((feat_dim, num_classes)), derive_seed(seed, "head"))
        return cls(enc_a, enc_b, fusion, head)

    get_params = _get_params
    set_params = _set_params

    # enc_a and enc_b as one Mlp with an axis of 2 before the batch: a run
    # stack's, when the encoders have one spec (on_runs); None otherwise.
    encoders: Optional[Mlp] = None

    def on_runs(self, flat: np.ndarray, grad: np.ndarray) -> "TeacherNet":
        """_Net.on_runs, whose encoders also form one stacked Mlp when they have
        one spec: their values lead each row, enc_a's then enc_b's, so they
        are views of one (..., 2, n) block, and teacher_features and
        teacher_backward run both in one pass; each keeps its bits."""
        net = super().on_runs(flat, grad)
        spec, n = net.enc_a.spec, net.enc_a.param_count
        if net.enc_b.spec == spec:
            shape = net._flat.shape[:-1] + (2, n)
            net.encoders = Mlp.view(spec, np.reshape(net._flat[..., : 2 * n], shape, copy=False),
                                    np.reshape(net.grad[..., : 2 * n], shape, copy=False))
        return net


class StudentNet(_Net):
    """Single-modality classifier: modality-A encoder plus linear head."""

    part_names = ("enc_a", "head")

    def __init__(self, enc_a: Mlp, head: Mlp):
        feat = enc_a.spec.out_dim
        if head.spec.in_dim != feat:
            raise ConfigError(f"head must take {feat} inputs, got {head.spec.in_dim}")
        self.enc_a = enc_a
        self.head = head
        self._parts = (enc_a, head)
        self._bind_parts(np.empty(self.param_count), np.zeros(self.param_count))

    @classmethod
    def create(
        cls,
        dim_a: int,
        num_classes: int,
        feat_dim: int = 16,
        hidden_width: int = 32,
        seed: int = 0,
    ) -> "StudentNet":
        enc_a = Mlp(MlpSpec((dim_a, hidden_width, feat_dim)), derive_seed(seed, "enc_a"))
        head = Mlp(MlpSpec((feat_dim, num_classes)), derive_seed(seed, "head"))
        return cls(enc_a, head)

    get_params = _get_params
    set_params = _set_params


def teacher_features(net: TeacherNet, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (modality-B embeddings h_b, fused features) for a batch of pairs."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"batch sizes differ: a is {a.shape}, b is {b.shape}")
    if net.encoders is None or a.shape != b.shape:  # (the latter: ShapeError below)
        h_a, h_b = net.enc_a.forward(a), net.enc_b.forward(b)
    else:
        h = net.encoders.forward(np.stack((a, b), axis=-3))
        h_a, h_b = h[..., 0, :, :], h[..., 1, :, :]
    fused = net.fusion.forward(np.concatenate([h_a, h_b], axis=-1))
    return h_b, fused


def teacher_forward(
    net: TeacherNet, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (h_b, fused, logits): teacher_features followed by the head."""
    h_b, fused = teacher_features(net, a, b)
    return h_b, fused, net.head.forward(fused)


def teacher_backward(
    net: TeacherNet, d_logits: np.ndarray, d_h_b: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gradient, in get_params order, through the last teacher_forward.

    d_logits and d_h_b are the upstream gradients of its logits and of its
    modality-B embeddings (None: zero); the fused features reach a loss
    only through the head.  Returns `net.grad`, which the next backward
    overwrites.
    """
    d_fused = net.head.backward(d_logits)
    d_concat = net.fusion.backward(d_fused)
    feat = net.feat_dim
    d_a, d_b = d_concat[..., :feat], d_concat[..., feat:]
    if d_h_b is not None:
        d_b = d_b + d_h_b
    if net.encoders is None:
        net.enc_a.backward(d_a, input_grad=False)
        net.enc_b.backward(d_b, input_grad=False)
    else:
        net.encoders.backward(np.stack((d_a, d_b), axis=-3), input_grad=False)
    return net.grad


def student_forward(net: StudentNet, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (features, logits) for a batch of modality-A inputs."""
    feat = net.enc_a.forward(a)
    return feat, net.head.forward(feat)


def student_backward(
    net: StudentNet, d_logits: np.ndarray, d_feat: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gradient, in get_params order, through the last student_forward.

    d_logits and d_feat are the upstream gradients of its logits and of
    its features (None: zero).  Returns `net.grad`, which the next backward
    overwrites.
    """
    d_head = net.head.backward(d_logits)
    net.enc_a.backward(d_head if d_feat is None else d_head + d_feat, input_grad=False)
    return net.grad


def bind_joint_params(runs) -> tuple[np.ndarray, TeacherNet, StudentNet]:
    """Lay R (teacher, student, theta) runs out as the rows of one (R, P) buffer.

    Row r is [teacher_r | student_r | theta_r]: the nets' current parameters
    are copied in and each run's nets are bound to their row (see
    Mlp.bind), so writing the buffer in place updates every net.  The nets'
    gradients move into a second buffer of the same layout (joint_buffers
    returns both).  Returns the parameter buffer and the R runs as one
    TeacherNet and one StudentNet along the run axis (stack_runs).  The
    runs' nets must be distinct objects with the first run's part specs.
    """
    runs = [tuple(run) for run in runs]
    if not runs:
        raise UsageError("bind_joint_params needs at least one run")
    teacher, student, _ = runs[0]
    specs = _specs(teacher), _specs(student)
    if any((_specs(t), _specs(s)) != specs for t, s, _ in runs):
        raise UsageError("runs laid out in one buffer need nets of the same specs")
    nets = [net for t, s, _ in runs for net in (t, s)]
    if len({id(net) for net in nets}) != len(nets):
        raise UsageError("each run needs nets of its own")
    n_t, n_s = teacher.param_count, student.param_count
    buffer = np.empty((len(runs), n_t + n_s + 1))
    grad = np.zeros_like(buffer)
    for row, (t, s, theta) in enumerate(runs):
        t._bind_parts(buffer[row, :n_t], grad[row, :n_t])
        s._bind_parts(buffer[row, n_t:-1], grad[row, n_t:-1])
        buffer[row, -1] = theta
    return (buffer, *stack_runs(teacher, student, buffer, grad))


def _specs(net: _Net) -> tuple:
    return type(net), tuple(p.spec for p in net._parts)


def stack_runs(
    teacher: TeacherNet, student: StudentNet, params: np.ndarray, grad: np.ndarray
) -> tuple[TeacherNet, StudentNet]:
    """The runs of (R, P) joint buffers `params` and `grad`, laid out as
    bind_joint_params does, as one TeacherNet and one StudentNet of
    `teacher`'s and `student`'s specs along the run axis (_Net.on_runs)."""
    n_t = teacher.param_count
    return (teacher.on_runs(params[:, :n_t], grad[:, :n_t]),
            student.on_runs(params[:, n_t:-1], grad[:, n_t:-1]))


def joint_buffers(teacher: TeacherNet, student: StudentNet) -> tuple[np.ndarray, np.ndarray]:
    """The (R, P) (parameter, gradient) buffers that bind_joint_params bound every
    part of `teacher` and `student` to, one run's nets or the runs along the
    run axis; UsageError if there are none."""
    params, grad = teacher._flat.base, teacher.grad.base
    if params is not None:
        for part in teacher._parts + student._parts:
            if part._flat.base is not params or part.grad.base is not grad:
                break
        else:
            return params, grad
    raise UsageError("teacher and student must be bound together (bind_joint_params)")


_NET_KINDS = {"teacher": TeacherNet, "student": StudentNet}


def save_checkpoint(net, path) -> None:
    """Write a text checkpoint: JSON header line, then one float64 repr per line.

    The header gives each part's layer_widths and its activation, which is
    always "tanh".
    """
    if isinstance(net, TeacherNet):
        kind = "teacher"
    elif isinstance(net, StudentNet):
        kind = "student"
    else:
        raise UsageError(f"cannot checkpoint object of type {type(net).__name__}")
    header = {
        "kind": kind,
        "specs": {
            name: {
                "layer_widths": list(getattr(net, name).spec.layer_widths),
                "activation": "tanh",
            }
            for name in net.part_names
        },
    }
    flat = net.get_params()
    if flat.ndim != 1:
        raise UsageError("a checkpoint holds one net, not nets along the run axis")
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for v in flat:
            fh.write(repr(float(v)) + "\n")


def _checked_spec(info, path, name: str) -> MlpSpec:
    """The MlpSpec a checkpoint header gives for part `name`, whose
    activation must be "tanh"."""
    widths = info.get("layer_widths") if isinstance(info, dict) else None
    if (not isinstance(widths, list)
            or not all(isinstance(w, int) and not isinstance(w, bool) for w in widths)):
        raise ProtocolError(
            f"{path}: checkpoint header needs integer layer_widths under specs.{name}"
        )
    if info.get("activation") != "tanh":
        raise ProtocolError(
            f"{path}: specs.{name}: activation must be 'tanh', got {info.get('activation')!r}"
        )
    try:
        return MlpSpec(tuple(widths))
    except ConfigError as exc:
        raise ProtocolError(f"{path}: specs.{name}: {exc}") from None


def load_checkpoint(path):
    """Rebuild a TeacherNet or StudentNet from a save_checkpoint file.

    A header that is not a JSON object naming a known kind and a valid spec
    with activation "tanh" for every part, a value line that is not a finite
    number, or a value count other than the one the specs imply raises
    ProtocolError naming the file.
    The count is checked before any part is built, so a header's widths
    cannot make it allocate more than the file holds.
    """
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ProtocolError(f"{path}: checkpoint header is not JSON: {exc}") from None
        try:
            values = [float(line) for line in fh if line.strip()]
        except ValueError as exc:
            raise ProtocolError(f"{path}: checkpoint value is not a number: {exc}") from None
    kind = header.get("kind") if isinstance(header, dict) else None
    if not isinstance(kind, str) or kind not in _NET_KINDS:
        raise ProtocolError(f"{path}: unknown checkpoint kind {kind!r}")
    specs = header.get("specs")
    if not isinstance(specs, dict):
        raise ProtocolError(f"{path}: checkpoint header has no specs")
    part_specs = {name: _checked_spec(specs.get(name), path, name)
                  for name in _NET_KINDS[kind].part_names}
    needed = sum(spec.param_count for spec in part_specs.values())
    if len(values) != needed:  # checked before any part is allocated
        raise ProtocolError(
            f"{path}: checkpoint holds {len(values)} values but the architecture needs {needed}"
        )
    params = np.array(values, dtype=np.float64)
    finite = np.isfinite(params)
    if not finite.all():
        raise ProtocolError(f"{path}: checkpoint values must be finite, got {params[~finite][0]}")
    try:
        net = _NET_KINDS[kind](**{name: Mlp(spec, seed=0) for name, spec in part_specs.items()})
    except ConfigError as exc:
        raise ProtocolError(f"{path}: {exc}") from None
    net.set_params(params)
    return net
