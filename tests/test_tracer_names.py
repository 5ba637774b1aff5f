"""The benchmark's tracer wraps program functions by name.

perfbench/tracer.py looks each (module, attribute path) of SPANS and COUNTS
up in the owner's own __dict__ when it installs its wrappers, and a name
that is gone raises KeyError there.  This test reads the tables without
importing the harness and resolves every name the same way, so removing or
renaming a wrapped function fails here, with the name.
"""

import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SPANS"] + namespace["COUNTS"]


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = []
    for _, mod, path in names:
        owner = importlib.import_module(f"gabkron.{mod}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"gabkron.{mod}.{path}")
    assert not missing, f"names the tracer wraps are missing: {missing}"
