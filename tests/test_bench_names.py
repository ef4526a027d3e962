"""The benchmark's span tracer finds every name it times in the package.

bench/tracing.py replaces each entry of its TRACED table at run time:
functions through getattr on the pgad module, methods through the class's
own __dict__.  A refactor that renames, moves or inherits one of them would
otherwise surface only when a traced benchmark run fails.
"""

import importlib
import inspect
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def traced(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    import tracing

    return tracing.TRACED


def test_every_traced_name_resolves_like_the_tracer_looks_it_up(traced):
    importlib.import_module("pgad.harness")  # what Tracer.install imports first
    for mod_name, names in traced.items():
        module = importlib.import_module(f"pgad.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                assert meth in cls.__dict__, f"{mod_name}.{name} is not defined on its class"
                assert callable(cls.__dict__[meth])
            else:
                assert callable(getattr(module, name, None)), f"{mod_name}.{name} is missing"


def test_hooked_functions_keep_the_parameters_their_hooks_read(traced):
    from pgad import ams, trainer

    assert "grads" in inspect.signature(trainer.clip_global_norm).parameters
    params = inspect.signature(ams.build_batch).parameters
    assert {"paired_pool", "unpaired_pool", "batch_size", "seed"} <= set(params)

