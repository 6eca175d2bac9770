import importlib.util
from pathlib import Path


def test_every_traced_name_is_callable():
    # perfbench/tracer.py wraps these functions by name; one renamed or
    # deleted here would silently drop out of every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.TARGETS.items():
        for name in names:
            obj = importlib.import_module(f"dynamo.{module}")
            for attr in name.split("."):
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
