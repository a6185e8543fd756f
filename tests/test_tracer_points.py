"""Every function the benchmark tracer patches is still bound where it
looks for it.  The tracer's own tests (``python -m pytest perfbench``)
are slow and run apart from this suite, so a function moved between
modules would otherwise leave its layer unmeasured unseen."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_patch_point_is_bound():
    points = [(modname, attr) for entries in _layers().values()
              for attr, modules in entries for modname in modules]
    assert len(points) > 30
    missing = [f"{modname}.{attr}" for modname, attr in points
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert missing == []
