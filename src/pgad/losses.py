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
  pair_loss   -> gradient wrt the similarity matrix entries
  proto_loss  -> gradient wrt the unpaired features; the nearest-prototype
                 assignment is piecewise constant, so no gradient flows
                 through the argmin and prototypes themselves are constants
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

    def validate(self) -> None:
        for name in ("tea", "stu", "kl", "pair", "proto"):
            v = getattr(self, name)
            if not (v >= 0.0) or not math.isfinite(v):
                raise ConfigError(f"loss weight {name} must be a finite nonnegative real, got {v}")

    def as_tuple(self) -> tuple:
        return (self.tea, self.stu, self.kl, self.pair, self.proto)


@dataclass(frozen=True)
class LossReport:
    l_tea: float
    l_stu: float
    l_kl: float
    l_pair: float
    l_proto: float
    total: float

    def recombine(self, weights: LossWeights) -> float:
        """The exact expression total_loss uses; == self.total must hold."""
        return (
            weights.tea * self.l_tea
            + weights.stu * self.l_stu
            + weights.kl * self.l_kl
            + weights.pair * self.l_pair
            + weights.proto * self.l_proto
        )


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


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
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(f"labels must lie in [0, {c})")

    logp = _log_softmax(logits)
    rows = np.arange(n)
    nll = -logp[rows, labels]
    grad = np.exp(logp)
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
    kl_per_sample = (pt * (log_pt - log_ps)).sum(axis=1)
    value = max(float(temperature**2 * kl_per_sample.mean()), 0.0)
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
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if (na < 1e-12).any() or (nb < 1e-12).any():
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
        d_a = (d_a_hat - (d_a_hat * a_hat).sum(axis=1, keepdims=True) * a_hat) / na[:, None]
        d_b = (d_b_hat - (d_b_hat * b_hat).sum(axis=1, keepdims=True) * b_hat) / nb[:, None]
        return d_a, d_b

    return sims, vjp


def pair_loss(sim_matrix: np.ndarray, positives) -> tuple[float, np.ndarray]:
    """Softmax-over-candidates loss anchoring each row at its genuine partner.

    `positives` must assign exactly one partner column to every row of the
    similarity matrix; the denominator of each row runs over all columns.
    """
    sims = np.asarray(sim_matrix, dtype=np.float64)
    if sims.ndim != 2:
        raise ShapeError(f"expected similarity matrix, got shape {sims.shape}")
    n_a, n_b = sims.shape
    if n_a == 0 or n_b == 0:
        raise EmptyBatchError("pair_loss needs a nonempty similarity matrix")

    pos_col = np.full(n_a, -1, dtype=np.int64)
    for i, j in positives:
        if not (0 <= i < n_a) or not (0 <= j < n_b):
            raise RangeError(f"positive ({i}, {j}) outside matrix of shape {sims.shape}")
        if pos_col[i] != -1:
            raise ProtocolError(f"row {i} has more than one positive")
        pos_col[i] = j
    missing = np.flatnonzero(pos_col == -1)
    if missing.size:
        raise ProtocolError(f"row {int(missing[0])} has no positive")

    shifted = sims - sims.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + sims.max(axis=1)
    rows = np.arange(n_a)
    value = float((lse - sims[rows, pos_col]).mean())
    grad = _softmax(sims)
    grad[rows, pos_col] -= 1.0
    return value, grad / n_a


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
    if not protos.usable().any():
        raise ProtocolError("no usable prototype: every class is stale")

    if assignment == "nearest":
        idx, _ = nearest_prototypes_batch(feats, protos)
    elif assignment == "true_class":
        if labels is None:
            raise UsageError("assignment='true_class' requires labels")
        idx = np.asarray(labels, dtype=np.int64)
        if idx.shape != (feats.shape[0],):
            raise ShapeError(f"expected {feats.shape[0]} labels, got shape {idx.shape}")
        if idx.min() < 0 or idx.max() >= protos.num_classes:
            raise LabelError(f"labels must lie in [0, {protos.num_classes})")
        if protos.stale[idx].any():
            bad = int(idx[protos.stale[idx]][0])
            raise ProtocolError(f"class {bad} has no usable prototype")
    else:
        raise ConfigError(f"assignment must be 'nearest' or 'true_class', got {assignment!r}")

    diff = feats - protos.values[idx]
    n = feats.shape[0]
    value = float((diff**2).sum(axis=1).mean())
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
    weights.validate()
    terms = (l_tea, l_stu, l_kl, l_pair, l_proto)
    for name, term in zip(TERM_NAMES, terms):
        if not math.isfinite(term):
            raise NumericHealthError(f"loss term {name} is not finite: {term}")
        if term < 0.0:
            raise NumericHealthError(f"loss term {name} is negative: {term}")
    report = LossReport(
        l_tea=float(l_tea),
        l_stu=float(l_stu),
        l_kl=float(l_kl),
        l_pair=float(l_pair),
        l_proto=float(l_proto),
        total=0.0,
    )
    total = report.recombine(weights)
    if not math.isfinite(total):
        raise NumericHealthError(f"total loss is not finite: {total}")
    return LossReport(
        l_tea=report.l_tea,
        l_stu=report.l_stu,
        l_kl=report.l_kl,
        l_pair=report.l_pair,
        l_proto=report.l_proto,
        total=total,
    )
