"""Every callable the end-to-end tracer patches exists under its name.

``benchmarks/e2e/trace.py`` wraps each :data:`TARGETS` entry by name — a
class attribute or a module global — and its ``install`` looks each one
up in the owner's ``__dict__``.  Renaming or moving one of them would
only fail the benchmark's own self-test; this reads the target list
(without installing anything) so tier-1 fails first.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACE = pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e" / "trace.py"


def _targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves(monkeypatch):
    targets = _targets(monkeypatch)
    assert {"load_payload", "parse_select", "hash_join"} <= {
        target.attr for target in targets
    }
    for target in targets:
        holder = importlib.import_module(target.module)
        if target.owner is not None:
            holder = getattr(holder, target.owner)
        assert callable(vars(holder).get(target.attr)), (
            f"{target.module}.{target.owner or ''}.{target.attr} "
            f"({target.name}) is gone"
        )
