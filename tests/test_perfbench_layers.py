"""The benchmark's tracer patches package functions by name; keep the names alive.

``perfbench/layers.py`` lists every ``softmentions.<module>.<attr>`` it
wraps. A rename or deletion would otherwise surface only when the benchmark
runs with tracing on.
"""
import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module, attr, _ in layers.SPANS + layers.COUNTS:
        target = importlib.import_module(f"softmentions.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"softmentions.{module}.{attr}")
    assert missing == []
