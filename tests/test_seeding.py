"""Hierarchical seed derivation: determinism, independence, input canonicalization."""

import numpy as np
import pytest

from pgad.seeding import _hash_token, _token, derive_seed, splitmix64


def test_splitmix64_pinned_values():
    # regression pins for the scramble step
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(0xDEADBEEF) == 5395234354446855067


def test_splitmix64_range_and_determinism():
    for x in range(200):
        a = splitmix64(x)
        assert 0 <= a < 2**64
        assert a == splitmix64(x)


def test_splitmix64_no_collisions_on_small_inputs():
    outs = {splitmix64(x) for x in range(2000)}
    assert len(outs) == 2000


def test_derive_seed_pinned_value():
    assert derive_seed(42, "train", 0.5, 3) == 14170156769693300088
    assert derive_seed(42) == 13679457532755275413


def test_derive_seed_depends_on_order_and_type():
    assert derive_seed(0, "a", 1) != derive_seed(0, 1, "a")
    assert derive_seed(0, 1) != derive_seed(0, 1.0)
    assert derive_seed(0, 1) != derive_seed(0, "1")
    assert derive_seed(0, True) != derive_seed(0, 1)
    assert derive_seed(0, 0.5) != derive_seed(0, "0.5")


def test_cached_tokens_keep_their_type_and_value():
    """str and int tokens are cached by type, so True and 1 (equal as keys of
    an untyped cache) keep their own tokens; floats are not cached, because
    0.0 == -0.0 although their tokens differ."""
    for part in (1, True, "batch", 0, False, 7):
        assert _token(part) == _hash_token(part)
        assert _token(part) == _hash_token(part)  # a cache hit
    assert _token(True) != _token(1) and _token(False) != _token(0)
    assert derive_seed(0, 1, True) != derive_seed(0, True, 1)
    assert derive_seed(0, 0.0) != derive_seed(0, -0.0)
    assert derive_seed(0, -0.0) == derive_seed(0, -0.0) != derive_seed(0, 0.0)


def test_derive_seed_sibling_independence():
    # the same label under different parents gives unrelated streams
    seen = set()
    for root in range(50):
        for arm in ("baseline", "full"):
            seen.add(derive_seed(root, arm, 0.5, 0))
    assert len(seen) == 100


def test_derive_seed_rejects_unhashable_part_types():
    with pytest.raises(TypeError):
        derive_seed(0, [1, 2])
    with pytest.raises(TypeError):
        derive_seed(0, None)


def test_derived_seed_generator_reproducible_draws():
    def rng(root, *parts):
        return np.random.default_rng(derive_seed(root, *parts))

    assert rng(7, "x").integers(0, 2**31) == 1538842965
    a = rng(123, "noise", 4).standard_normal(8)
    b = rng(123, "noise", 4).standard_normal(8)
    assert np.array_equal(a, b)
    c = rng(123, "noise", 5).standard_normal(8)
    assert not np.array_equal(a, c)


def test_float_parts_distinguish_close_rates():
    rates = (0.2, 0.5, 0.7)
    seeds = {derive_seed(9, "train", r, 0) for r in rates}
    assert len(seeds) == len(rates)
