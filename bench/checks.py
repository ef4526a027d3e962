"""Output checks computed apart from pgad: own parsers, forward pass and metrics.

Nothing here imports pgad.  Each check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# Sub-net order of a student checkpoint's flat parameter vector; within a
# sub-net, per layer: weight matrix (fan_out x fan_in, row-major), then bias.
STUDENT_PARTS = ("enc_a", "head")
METRICS = ("mcc", "auc", "sen", "spe")
LOSS_COLUMNS = ("l_tea", "l_stu", "l_kl", "l_pair", "l_proto", "total")
TOL = 1e-9


def read_student_checkpoint(path: str) -> list:
    """Parse a student checkpoint into [(weights, biases, activation), ...] per sub-net."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        values = np.array([float(line) for line in fh if line.strip()])
    if header.get("kind") != "student":
        raise ValueError(f"{path}: checkpoint kind {header.get('kind')!r} is not 'student'")
    parts, offset = [], 0
    for name in STUDENT_PARTS:
        spec = header["specs"][name]
        widths = spec["layer_widths"]
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(values[offset: offset + fan_in * fan_out].reshape(fan_out, fan_in))
            offset += fan_in * fan_out
            biases.append(values[offset: offset + fan_out])
            offset += fan_out
        parts.append((weights, biases, spec["activation"]))
    if offset != values.size:
        raise ValueError(f"{path}: {values.size} values for an architecture of {offset}")
    return parts


def _mlp(x: np.ndarray, weights, biases, activation: str) -> np.ndarray:
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w.T + b
        if i < len(weights) - 1:
            x = np.tanh(x) if activation == "tanh" else np.maximum(x, 0.0)
    return x


def student_outputs(parts: list, feats_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, logits) of the student encoder and head."""
    enc, head = parts
    h = _mlp(feats_a, *enc)
    return h, _mlp(h, *head)


def fold_metrics(labels: np.ndarray, logits: np.ndarray) -> dict:
    """MCC, AUC (by direct pair counting, ties half), SEN and SPE; class 1 positive."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    scores = shifted[:, 1] / shifted.sum(axis=1)
    preds = np.argmax(logits, axis=1)
    tp = int(((labels == 1) & (preds == 1)).sum())
    fp = int(((labels == 0) & (preds == 1)).sum())
    tn = int(((labels == 0) & (preds == 0)).sum())
    fn = int(((labels == 1) & (preds == 0)).sum())
    den = float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (float(tp) * tn - float(fp) * fn) / math.sqrt(den) if den else 0.0
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return {"mcc": mcc, "auc": float(wins) / (pos.size * neg.size),
            "sen": tp / (tp + fn), "spe": tn / (tn + fp)}


def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def check_trace(trace_path: str, ams_path: str, epochs: int, ams_mode: str) -> list:
    """Per-epoch losses finite and >= 0; ratio in [0, 1], 1.0 without AMS; ams file agrees."""
    errors = []
    header, rows = read_csv(trace_path)
    if len(rows) != epochs:
        errors.append(f"{trace_path}: {len(rows)} epochs, expected {epochs}")
    col = {name: header.index(name) for name in LOSS_COLUMNS + ("theta", "ratio")}
    for row in rows:
        for name in LOSS_COLUMNS:
            v = float(row[col[name]])
            if not (math.isfinite(v) and v >= 0.0):
                errors.append(f"{trace_path}: epoch {row[0]} {name}={v}")
        ratio = float(row[col["ratio"]])
        if not 0.0 <= ratio <= 1.0 or (ams_mode == "none" and ratio != 1.0):
            errors.append(f"{trace_path}: epoch {row[0]} ratio={ratio} under ams={ams_mode}")
    _, ams_rows = read_csv(ams_path)
    expected = [[r[0], r[col["theta"]], r[col["ratio"]]] for r in rows]
    if ams_rows != expected:
        errors.append(f"{ams_path}: theta/ratio rows differ from {trace_path}")
    return errors


def check_metrics(found: dict, expected: dict, where: str) -> list:
    errors = [f"{where}: {m}={found[m]!r}, recomputed {expected[m]!r}"
              for m in METRICS if abs(found[m] - expected[m]) > TOL]
    if expected["mcc"] <= 0.0:
        errors.append(f"{where}: MCC {expected['mcc']} is not above chance")
    return errors


def read_metrics_csv(path: str) -> dict:
    """{(method, rate, fold): {metric: value}} from a metrics.csv."""
    header, rows = read_csv(path)
    if header != ["method", "scenario", "fold"] + list(METRICS):
        raise ValueError(f"{path}: unexpected header {header}")
    return {(r[0], float(r[1].removeprefix("rate=")), int(r[2])):
            dict(zip(METRICS, map(float, r[3:]))) for r in rows}


def check_plan(plan, paired: dict, unpaired: dict, batch_size: int) -> list:
    """Batch-plan invariants; `paired` and `unpaired` map pool ids to labels."""
    errors = []
    if any(i not in paired for i in plan.genuine):
        errors.append("a genuine id is not in the paired pool")
    if len(set(plan.genuine)) != len(plan.genuine):
        errors.append("a genuine id repeats")
    donors = [donor for _, donor, _ in plan.pseudo]
    if len(set(donors)) != len(donors):
        errors.append("a donor donates twice")
    for rec, donor, cls in plan.pseudo:
        if rec not in unpaired:
            errors.append(f"recipient {rec} is not unpaired")
        elif donor not in paired or paired[donor] != unpaired[rec] or cls != unpaired[rec]:
            errors.append(f"donor {donor} does not share recipient {rec}'s class")
    if plan.shortfall < 0 or len(plan.genuine) + len(plan.pseudo) + plan.shortfall != batch_size:
        errors.append(f"genuine {len(plan.genuine)} + pseudo {len(plan.pseudo)} + shortfall "
                      f"{plan.shortfall} != batch size {batch_size}")
    return errors


def check_embeddings(path: str, ids, labels, paired, feats: np.ndarray) -> list:
    """Compare an embeddings CSV with the rows the benchmark wrote and its own features."""
    header, rows = read_csv(path)
    if header[:3] != ["id", "label", "paired"] or len(header) != 3 + feats.shape[1]:
        return [f"{path}: unexpected header {header[:4]}..."]
    if len(rows) != len(ids):
        return [f"{path}: {len(rows)} rows, expected {len(ids)}"]
    got = np.array([[float(v) for v in r] for r in rows])
    errors = []
    for j, (name, want) in enumerate((("id", ids), ("label", labels), ("paired", paired))):
        if not np.array_equal(got[:, j], want):
            errors.append(f"{path}: {name} column differs")
    err = float(np.abs(got[:, 3:] - feats).max())
    if not err <= TOL:
        errors.append(f"{path}: embeddings differ from the recomputed features by {err}")
    return errors


def _files(paths) -> list:
    """Every file under the given files and directories, in a fixed order."""
    found = []
    for root in paths:
        if os.path.isfile(root):
            found.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            found += [os.path.join(dirpath, name) for name in sorted(filenames)]
    return found


def digest(paths) -> str:
    """sha256 over every file under `paths`: its path below the common root, then its bytes."""
    files = _files(paths)
    base = os.path.commonpath([os.path.dirname(p) for p in files])
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, base).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def tree_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in _files(paths))
