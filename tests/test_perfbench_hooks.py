"""The benchmark's traced run wraps package functions by dotted path
(`perfbench/layers.py`); each path must still name a function, or
`perfbench/run.py --trace 1` fails when it installs its wrappers."""
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_path_resolves_to_a_function():
    layers = _layers()
    paths = [path for paths, _ in layers.LAYERS.values() for path in paths]
    assert paths
    for path in paths:
        owner, attr = layers._resolve(path)
        assert callable(getattr(owner, attr)), path
