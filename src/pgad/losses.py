"""The five training loss terms and their analytic gradients.

Every function is pure and returns (value, gradient) so callers can wire
gradients into whatever parameter flattening they use.  Softmax-type
quantities are computed via max-shifted log-sum-exp throughout; this also
guarantees nonnegative values numerically, not just mathematically.

Gradient conventions:
  ce_loss     -> per-row values and their gradient wrt the logits,
                 softmax - onehot; the batch loss is their mean, with
                 gradient (softmax - onehot) / N
  kd_loss     -> gradient wrt STUDENT logits only, T * (p_s - p_t) / N
                 (the teacher side is a constant)
  pair_loss   -> gradient wrt the similarity matrix entries; row i's
                 partner is column i
  proto_loss  -> gradient wrt the unpaired features; the nearest-prototype
                 assignment is piecewise constant, so no gradient flows
                 through the argmin and prototypes themselves are constants

Means are np.add.reduce(x) / n and row norms sqrt(add.reduce(x * x, axis=1)):
that is how ndarray.mean and np.linalg.norm compute them in NumPy 2.x, so
the values are bit for bit the same, without the wrappers' per-call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
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
from .prototypes import PrototypeSet, nearest_prototypes_batch

KD_TEMPERATURE_DEFAULT = 2.0
SIM_TEMPERATURE_DEFAULT = 0.1
TERM_NAMES = ("l_tea", "l_stu", "l_kl", "l_pair", "l_proto")


@dataclass(frozen=True)
class LossWeights:
    tea: float = 1.0
    stu: float = 1.0
    kl: float = 0.5
    pair: float = 0.5
    proto: float = 0.5

    def __post_init__(self) -> None:
        for name in ("tea", "stu", "kl", "pair", "proto"):
            v = getattr(self, name)
            if not (v >= 0.0) or not math.isfinite(v):
                raise ConfigError(f"loss weight {name} must be a finite nonnegative real, got {v}")


@dataclass(frozen=True)
class LossReport:
    l_tea: float
    l_stu: float
    l_kl: float
    l_pair: float
    l_proto: float
    total: float


def _shifted_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row max, z minus it, log of the row sums of exp of that), all keepdims."""
    top = np.maximum.reduce(z, axis=1, keepdims=True)
    shifted = z - top
    return top, shifted, np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    _, shifted, log_sum = _shifted_lse(z)
    shifted -= log_sum
    return shifted


def ce_loss(logits: np.ndarray, labels):
    """Per-row softmax cross-entropy and its gradient wrt the logits.

    Returns (negative log-likelihoods of shape (N,), softmax - onehot).  The
    batch loss is the mean of the first, with gradient the second over N; a
    subset's loss is the mean of a slice, as each row depends on its own
    logits only.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"expected logits matrix (N, C), got shape {logits.shape}")
    n, c = logits.shape
    if n == 0:
        raise EmptyBatchError("ce_loss needs at least one sample")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= c:
        raise LabelError(f"labels must lie in [0, {c})")

    logp = _log_softmax(logits)
    rows = np.arange(n)
    nll = -logp[rows, labels]
    grad = np.exp(logp, out=logp)
    grad[rows, labels] -= 1.0
    return nll, grad


def kd_loss(
    student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Temperature-softened KL(teacher ‖ student), mean over samples, scaled by T².

    Only the student side receives a gradient.
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise RangeError(f"temperature must be positive, got {temperature}")
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.ndim != 2 or t.ndim != 2:
        raise ShapeError("kd_loss expects 2-d logit matrices")
    if s.shape != t.shape:
        raise ShapeError(f"logit shapes differ: student {s.shape} vs teacher {t.shape}")
    n = s.shape[0]
    if n == 0:
        raise EmptyBatchError("kd_loss needs at least one sample")

    log_ps = _log_softmax(s / temperature)
    log_pt = _log_softmax(t / temperature)
    pt = np.exp(log_pt)
    kl_per_sample = np.add.reduce(pt * (log_pt - log_ps), axis=1)
    value = max(float(temperature**2 * (np.add.reduce(kl_per_sample) / n)), 0.0)
    grad = temperature * (np.exp(log_ps) - pt) / n
    return value, grad


def similarity_matrix(feats_a: np.ndarray, feats_b: np.ndarray, temperature: float):
    """All-pairs temperature-scaled cosine similarities plus a VJP.

    Returns (S, vjp) with S[i, j] = cos(a_i, b_j)/temperature and
    vjp(dS) -> (d feats_a, d feats_b).
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise RangeError(f"temperature must be positive, got {temperature}")
    a = np.asarray(feats_a, dtype=np.float64)
    b = np.asarray(feats_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"expected (N_a, H) and (N_b, H), got {a.shape} and {b.shape}")
    na = np.sqrt(np.add.reduce(a * a, axis=1))
    nb = np.sqrt(np.add.reduce(b * b, axis=1))
    if np.logical_or.reduce(na < 1e-12) or np.logical_or.reduce(nb < 1e-12):
        raise DegenerateInputError("cosine similarity is undefined for a zero vector")
    a_hat = a / na[:, None]
    b_hat = b / nb[:, None]
    sims = (a_hat @ b_hat.T) / temperature

    def vjp(d_sims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d_sims = np.asarray(d_sims, dtype=np.float64)
        if d_sims.shape != sims.shape:
            raise ShapeError(f"expected upstream grad of shape {sims.shape}, got {d_sims.shape}")
        d_a_hat = (d_sims @ b_hat) / temperature
        d_b_hat = (d_sims.T @ a_hat) / temperature
        d_a = (d_a_hat - np.add.reduce(d_a_hat * a_hat, axis=1, keepdims=True) * a_hat) / na[:, None]
        d_b = (d_b_hat - np.add.reduce(d_b_hat * b_hat, axis=1, keepdims=True) * b_hat) / nb[:, None]
        return d_a, d_b

    return sims, vjp


def pair_loss(sim_matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax-over-candidates loss anchoring row i at its genuine partner, column i.

    The denominator of each row runs over all columns, so there must be at
    least as many columns as rows.
    """
    sims = np.asarray(sim_matrix, dtype=np.float64)
    if sims.ndim != 2:
        raise ShapeError(f"expected similarity matrix, got shape {sims.shape}")
    n_a, n_b = sims.shape
    if n_a == 0 or n_b == 0:
        raise EmptyBatchError("pair_loss needs a nonempty similarity matrix")
    if n_b < n_a:
        raise ShapeError(f"row i pairs with column i, but {sims.shape} has fewer columns than rows")

    top, shifted, log_sum = _shifted_lse(sims)
    lse = log_sum[:, 0] + top[:, 0]
    rows = np.arange(n_a)
    value = float(np.add.reduce(lse - sims[rows, rows]) / n_a)
    shifted -= log_sum
    grad = np.exp(shifted, out=shifted)  # the row softmax
    grad[rows, rows] -= 1.0
    grad /= n_a
    return value, grad


def proto_loss(
    unpaired_feats: np.ndarray,
    protos: PrototypeSet,
    assignment: str = "nearest",
    labels=None,
) -> tuple[float, np.ndarray, bool]:
    """Mean squared distance from each feature to its assigned prototype.

    Returns (value, gradient, empty).  An empty feature set is a no-op:
    (0.0, zero-size gradient, empty=True).  The assignment is either the
    nearest usable prototype (default) or the feature's true-class
    prototype when assignment="true_class" and labels are given.
    """
    feats = np.asarray(unpaired_feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"expected feature matrix (N, H), got shape {feats.shape}")
    if feats.shape[0] == 0:
        return 0.0, np.zeros_like(feats), True
    if feats.shape[1] != protos.dim:
        raise ShapeError(f"feature dim {feats.shape[1]} != prototype dim {protos.dim}")
    if np.logical_and.reduce(protos.stale):
        raise ProtocolError("no usable prototype: every class is stale")

    if assignment == "nearest":
        idx, _ = nearest_prototypes_batch(feats, protos)
    elif assignment == "true_class":
        if labels is None:
            raise UsageError("assignment='true_class' requires labels")
        idx = np.asarray(labels, dtype=np.int64)
        if idx.shape != (feats.shape[0],):
            raise ShapeError(f"expected {feats.shape[0]} labels, got shape {idx.shape}")
        if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= protos.num_classes:
            raise LabelError(f"labels must lie in [0, {protos.num_classes})")
        if np.logical_or.reduce(protos.stale[idx]):
            bad = int(idx[protos.stale[idx]][0])
            raise ProtocolError(f"class {bad} has no usable prototype")
    else:
        raise ConfigError(f"assignment must be 'nearest' or 'true_class', got {assignment!r}")

    diff = feats - protos.values[idx]
    n = feats.shape[0]
    value = float(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / n)
    return value, 2.0 * diff / n, False


def total_loss(
    l_tea: float,
    l_stu: float,
    l_kl: float,
    l_pair: float,
    l_proto: float,
    weights: LossWeights,
) -> LossReport:
    """Weighted combination of the five terms; rejects non-finite or negative input."""
    terms = (l_tea, l_stu, l_kl, l_pair, l_proto)
    for name, term in zip(TERM_NAMES, terms):
        if not math.isfinite(term):
            raise NumericHealthError(f"loss term {name} is not finite: {term}")
        if term < 0.0:
            raise NumericHealthError(f"loss term {name} is negative: {term}")
    l_tea, l_stu, l_kl, l_pair, l_proto = (float(term) for term in terms)
    total = (
        weights.tea * l_tea
        + weights.stu * l_stu
        + weights.kl * l_kl
        + weights.pair * l_pair
        + weights.proto * l_proto
    )
    if not math.isfinite(total):
        raise NumericHealthError(f"total loss is not finite: {total}")
    return LossReport(l_tea, l_stu, l_kl, l_pair, l_proto, total=total)
