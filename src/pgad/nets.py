"""Small MLP encoders and heads with explicit, framework-free gradients.

Everything here is plain numpy in float64.  Each network exposes its
trainable parameters as one flat vector in a fixed documented order
(sub-nets in declared order; within an MLP, per layer: weight matrix in
row-major order, then bias), so optimizers and finite-difference checks
can treat a network as a single point in R^n.

The parameters live in that order in flat float64 buffers, and the
gradients in a second buffer of the same layout: every Mlp weight and
bias, and its gradient, is a C-contiguous view into its buffer.  A
TeacherNet or StudentNet binds its parts to one pair of buffers when it is
built, so `net.grad` is the whole net's gradient without a copy.
set_params writes the parameter buffer in place, so the views stay bound.
bind_joint_params moves a teacher and a student into one pair of buffers
laid out as [teacher | student | theta]; an in-place optimizer step on the
parameter buffer is then the update of both nets, and the backward chains
below fill the gradient buffer without a concatenation (joint_buffers
returns both buffers).

Each network has one forward and one backward chain here, and the
trainer calls them: teacher_features (encoders and fusion),
teacher_forward (those plus the head), teacher_backward, student_forward
and student_backward.  Mlp.backward writes the layer gradients into the
net's gradient views (np.matmul and np.add.reduce with out=, the same
reductions `@` and ndarray.sum run, so the bits do not change) and returns
the gradient with respect to its input; a backward chain returns the net's
gradient buffer, which the next backward overwrites.  Inputs are 2-d
batches.

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

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input → hidden… → output) and the hidden activation."""

    layer_widths: tuple
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 2:
            raise ConfigError(f"need at least input and output widths, got {self.layer_widths}")
        if any(int(w) < 1 for w in self.layer_widths):
            raise ConfigError(f"all layer widths must be >= 1, got {self.layer_widths}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

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


def _activate_in_place(name: str, z: np.ndarray) -> None:
    """Apply the activation to `z` in place."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _times_act_grad(name: str, delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """delta times the activation's derivative, taken from its output `a`, as a new array."""
    if name == "relu":
        return delta * (a > 0.0).astype(np.float64)
    out = a * a
    np.subtract(1.0, out, out=out)
    return np.multiply(delta, out, out=out)


def _layer_views(flat: np.ndarray, widths) -> tuple[list, list]:
    """Per-layer (weights, biases) views into a flat vector in parameter order."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out])
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
    """Fully connected net; the final layer is affine (no activation).

    `weights` and `biases` are views into the flat parameter vector, and
    `grad` is the flat gradient of the last backward pass in the same
    layout.
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

    def _bind_views(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self._flat, self.grad = flat, grad
        self.weights, self.biases = _layer_views(flat, self.spec.layer_widths)
        self._grad_weights, self._grad_biases = _layer_views(grad, self.spec.layer_widths)

    @property
    def param_count(self) -> int:
        return self._flat.size

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
        if flat.shape != (self.param_count,):
            raise ShapeError(f"expected flat vector of length {self.param_count}, got {flat.shape}")
        self._flat[...] = flat

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"expected a 2-d batch (N, {self.spec.in_dim}), got shape {x.shape}")
        if x.shape[1] != self.spec.in_dim:
            raise ShapeError(f"expected input dim {self.spec.in_dim}, got {x.shape[1]}")
        acts = [x]
        last = len(self.weights) - 1
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i != last:
                _activate_in_place(self.spec.activation, h)
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

        last = len(self.weights) - 1
        delta = grad_out
        for i in range(last, -1, -1):
            if i != last:
                delta = _times_act_grad(self.spec.activation, delta, acts[i + 1])
            np.matmul(delta.T, acts[i], out=self._grad_weights[i])
            np.add.reduce(delta, axis=0, out=self._grad_biases[i])
            if i == 0 and not input_grad:
                return None
            delta = delta @ self.weights[i]
        return delta


class _Net:
    """Parameter plumbing shared by TeacherNet and StudentNet.

    `_parts` holds the sub-nets in get_params order: an encoder whose
    output width is the feature dim first, the head last.  The parts are
    bound to one parameter buffer `_flat` and one gradient buffer `grad`
    of the whole net (_bind_parts).  Each subclass binds get_params and
    set_params in its own class body, so the two classes keep separate
    entries that can be replaced one at a time (the benchmark's tracer
    times them per class).
    """

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


def _get_params(net: _Net) -> np.ndarray:
    return net._flat.copy()


def _set_params(net: _Net, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (net.param_count,):
        raise ShapeError(f"expected flat vector of length {net.param_count}, got {flat.shape}")
    net._flat[...] = flat


class TeacherNet(_Net):
    """Two-modality classifier: per-modality encoders, fusion MLP, linear head."""

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
        activation: str = "tanh",
        seed: int = 0,
    ) -> "TeacherNet":
        enc_a = Mlp(MlpSpec((dim_a, hidden_width, feat_dim), activation), derive_seed(seed, "enc_a"))
        enc_b = Mlp(MlpSpec((dim_b, hidden_width, feat_dim), activation), derive_seed(seed, "enc_b"))
        fusion = Mlp(MlpSpec((2 * feat_dim, feat_dim), activation), derive_seed(seed, "fusion"))
        head = Mlp(MlpSpec((feat_dim, num_classes), activation), derive_seed(seed, "head"))
        return cls(enc_a, enc_b, fusion, head)

    get_params = _get_params
    set_params = _set_params


class StudentNet(_Net):
    """Single-modality classifier: modality-A encoder plus linear head."""

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
        activation: str = "tanh",
        seed: int = 0,
    ) -> "StudentNet":
        enc_a = Mlp(MlpSpec((dim_a, hidden_width, feat_dim), activation), derive_seed(seed, "enc_a"))
        head = Mlp(MlpSpec((feat_dim, num_classes), activation), derive_seed(seed, "head"))
        return cls(enc_a, head)

    get_params = _get_params
    set_params = _set_params


def teacher_features(net: TeacherNet, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (modality-B embeddings h_b, fused features) for a batch of pairs."""
    if len(a) != len(b):
        raise ShapeError(f"batch sizes differ: a has {len(a)}, b has {len(b)}")
    h_a = net.enc_a.forward(a)
    h_b = net.enc_b.forward(b)
    fused = net.fusion.forward(np.concatenate([h_a, h_b], axis=1))
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
    net.enc_a.backward(d_concat[:, :feat], input_grad=False)
    d_b = d_concat[:, feat:]
    net.enc_b.backward(d_b if d_h_b is None else d_b + d_h_b, input_grad=False)
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


def bind_joint_params(teacher: TeacherNet, student: StudentNet, theta: float) -> np.ndarray:
    """One flat float64 buffer [teacher | student | theta] that both nets live in.

    Copies the nets' current parameters into a new buffer and binds both
    nets to it (see Mlp.bind), so writing the buffer in place updates the
    nets.  The last entry holds `theta`.  The nets' gradients move into a
    second buffer of the same layout (joint_buffers returns both).
    """
    n_t, n_s = teacher.param_count, student.param_count
    buffer = np.empty(n_t + n_s + 1)
    grad = np.zeros(n_t + n_s + 1)
    teacher._bind_parts(buffer[:n_t], grad[:n_t])
    student._bind_parts(buffer[n_t:-1], grad[n_t:-1])
    buffer[-1] = theta
    return buffer


def joint_buffers(teacher: TeacherNet, student: StudentNet) -> tuple[np.ndarray, np.ndarray]:
    """The (parameter, gradient) buffers that bind_joint_params(teacher, student,
    ...) bound every part of both nets to; UsageError if there are none."""
    params, grad = teacher._flat.base, teacher.grad.base
    parts = teacher._parts + student._parts
    if params is None or any(p._flat.base is not params or p.grad.base is not grad for p in parts):
        raise UsageError("teacher and student must be bound together (bind_joint_params)")
    return params, grad


_NET_KINDS = {"teacher": TeacherNet, "student": StudentNet}
_PART_NAMES = {"teacher": ("enc_a", "enc_b", "fusion", "head"), "student": ("enc_a", "head")}


def save_checkpoint(net, path) -> None:
    """Write a text checkpoint: JSON header line, then one float64 repr per line."""
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
                "activation": getattr(net, name).spec.activation,
            }
            for name in _PART_NAMES[kind]
        },
    }
    flat = net.get_params()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for v in flat:
            fh.write(repr(float(v)) + "\n")


def _checked_spec(info, path, name: str) -> MlpSpec:
    """The MlpSpec a checkpoint header gives for part `name`."""
    widths = info.get("layer_widths") if isinstance(info, dict) else None
    activation = info.get("activation") if isinstance(info, dict) else None
    if (not isinstance(widths, list) or not isinstance(activation, str)
            or not all(isinstance(w, int) and not isinstance(w, bool) for w in widths)):
        raise ProtocolError(
            f"{path}: checkpoint header needs integer layer_widths and an activation "
            f"under specs.{name}"
        )
    try:
        return MlpSpec(tuple(widths), activation)
    except ConfigError as exc:
        raise ProtocolError(f"{path}: specs.{name}: {exc}") from None


def load_checkpoint(path):
    """Rebuild a TeacherNet or StudentNet from a save_checkpoint file.

    A header that is not a JSON object naming a known kind and a valid spec
    for every part, a value line that is not a finite number, or a value
    count other than the one the specs imply raises ProtocolError naming the
    file.
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
    part_specs = {name: _checked_spec(specs.get(name), path, name) for name in _PART_NAMES[kind]}
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
