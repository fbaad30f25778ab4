"""The benchmark's tracer wraps program functions by name: a rename must
fail here instead of silently dropping a layer from the traced split."""

import importlib.util
from pathlib import Path

from cuckoograph import CuckooGraph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets(CuckooGraph)


def test_every_traced_attribute_exists_but_the_retired_flush():
    # the pending queues and their flush were deleted with the fail sinks
    missing = {attr for _, owner, attr, *_ in load_targets()
               if getattr(owner, attr, None) is None}
    assert missing == {"_flush_pending"}
