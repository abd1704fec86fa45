"""The benchmark's tracer must find every fedsim name it wraps.

``perfbench/tracing.py`` wraps public fedsim functions and methods by name,
so renaming or deleting one of them would otherwise surface only as a
crash of ``perfbench/run.py --trace 1``.
"""

import os
import sys

import numpy as np

import fedsim
import fedsim.cli
import fedsim.harness
from fedsim.algorithms import AlgorithmConfig
from fedsim.link_model import StaticLinkProcess
from fedsim.objectives import QuadraticObjective
from fedsim.streams import SeededStream

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


def test_traced_run_experiment_calls_run_round_once_per_round():
    # algorithms.round_self_s is the self time of these calls, so each
    # round must be one run_round call, measurement and batch included.
    obj = QuadraticObjective(np.random.default_rng(1).normal(size=(2, 5)))
    T = 7
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fedsim.algorithms.run_experiment(AlgorithmConfig("fedavg", s=2, eta=0.1), obj,
                                         StaticLinkProcess(np.full(5, 0.5)), T,
                                         SeededStream(2).child("sim"))
    finally:
        tracer.uninstall()
    stats = tracer.take_stats()
    assert stats.calls["algorithms.run_experiment"] == 1
    assert stats.calls["algorithms.run_round"] == T
    assert stats.self_time["algorithms.run_round"] > 0.0
