"""The benchmark's tracer must find every fedsim name it wraps.

``perfbench/tracing.py`` wraps public fedsim functions and methods by name,
so renaming or deleting one of them would otherwise surface only as a
crash of ``perfbench/run.py --trace 1``.
"""

import os
import sys

import fedsim
import fedsim.cli
import fedsim.harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def test_tracer_resolves_every_traced_name():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, module, attr in tracing.FUNCTIONS:
            assert hasattr(getattr(sys.modules[module], attr), "__wrapped__"), attr
        for _, module, cls_name, methods in tracing.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for attr in methods:
                assert hasattr(cls.__dict__[attr], "__wrapped__"), f"{cls_name}.{attr}"
    finally:
        tracer.uninstall()
    assert not hasattr(fedsim.algorithms.run_round, "__wrapped__")
