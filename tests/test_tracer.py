"""The names the per-layer tracer wraps exist in velobs.

`perfbench/tracer.py` looks each traced function up as an attribute of its
velobs module and each traced method in its class's own namespace; a name
deleted or moved would break `perfbench/run.py --trace 1`.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for key, mod, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"velobs.{mod}"), attr, None)), key
    for key, mod, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"velobs.{mod}"), cls_name, None)
        assert cls is not None and meth in cls.__dict__, key
