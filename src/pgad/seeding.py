"""Deterministic hierarchical seed derivation.

Experiment randomness is organized as a tree: a root seed plus a path of
labels (strings, ints, floats) yields a child seed via chained splitmix64
scrambles.  Sibling paths are independent, so adding a new experiment arm
never perturbs the random streams of existing arms.
"""

from __future__ import annotations

import hashlib

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step on a 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _token(part) -> int:
    # bool is checked before int: isinstance(True, int) holds
    if isinstance(part, bool):
        canon = f"b:{int(part)}"
    elif isinstance(part, int):
        canon = f"i:{part}"
    elif isinstance(part, float):
        canon = f"f:{part!r}"
    elif isinstance(part, str):
        canon = f"s:{part}"
    else:
        raise TypeError(f"cannot derive a seed from {type(part).__name__}")
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(root: int, *parts) -> int:
    """Derive the child seed for `parts` under `root`."""
    state = splitmix64(root & _MASK)
    for part in parts:
        state = splitmix64(state ^ _token(part))
    return state

