"""bench/tracer.py patches weilaut functions by the names it looks them up
under; a rename or a deletion there breaks every traced benchmark run.

The tracer is only imported here, never installed, so nothing is patched.
"""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists():
    tracer = load_tracer()
    places = [place for _, places, _ in tracer.TIMED for place in places]
    places += [place for _, places in tracer.COUNTED for place in places]
    assert places
    missing = [
        "%s.%s" % (owner.__name__, attr)
        for owner, attr in places
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
