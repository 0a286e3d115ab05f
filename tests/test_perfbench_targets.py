"""The benchmark's tracer can still find every function it wraps.

``perfbench/tracing.py`` wraps diffdag's functions by name and reads some of
their arguments by position; a rename there would silently drop a per-layer
metric. This only reads ``perfbench/``.
"""

import importlib.util
import inspect
from pathlib import Path

from diffdag import estimators, pipeline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # importing diffdag above put every module in sys.modules, where the
    # tracer looks the targets up
    tracing = _tracing()
    assert tracing.TARGETS
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == []


def test_traced_functions_keep_the_arguments_the_tracer_reads():
    # _lp_info reads sigma1 and _prune_info reads delta, first positionally
    assert next(iter(inspect.signature(estimators.dantzig_selector).parameters)) == "sigma1"
    assert next(iter(inspect.signature(pipeline.prune).parameters)) == "delta"
