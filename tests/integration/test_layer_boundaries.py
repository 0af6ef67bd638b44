"""Two layer boundaries, checked on the syntax tree of ``src/repro``.

* Workload drivers (``repro.workloads``) never touch the raw
  :class:`~repro.storage.bus.DataBus`: they go through the serving front
  end or the streaming service, or admission, fair-share scheduling and
  backpressure are silently bypassed.  Any use of the name ``DataBus``
  (import, annotation, attribute) and any ``bus.transfer`` reference is
  flagged.
* The stream layer never stores extents one by one: sealed slice groups
  flow through ``PLogManager.append_batch`` (-> ``StoragePool.
  store_batch``), so commits get one vectorized EC encode and
  makespan-charged write waves.  Any ``<expr>.store(...)`` call is
  flagged; ``archive.py`` is exempt (it persists one placeholder extent
  per archiving pass, not a group commit).

Comments and strings are not code and are not flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _trees(package: str, exempt: tuple[str, ...] = ()):
    for path in sorted((SRC / package).rglob("*.py")):
        if path.name not in exempt:
            yield path, ast.parse(path.read_text(), filename=str(path))


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(SRC.parent)}:{node.lineno}"


def _is_bus(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bus") or (
        isinstance(node, ast.Attribute) and node.attr == "bus"
    )


def direct_bus_uses(package: str = "workloads") -> list[str]:
    found = []
    for path, tree in _trees(package):
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == "DataBus")
                or (isinstance(node, ast.Attribute) and node.attr == "DataBus")
                or (isinstance(node, ast.alias)
                    and node.name.split(".")[-1] == "DataBus")
                or (isinstance(node, ast.Attribute) and node.attr == "transfer"
                    and _is_bus(node.value))
            ):
                found.append(_where(path, node))
    return found


def per_extent_stores(package: str = "stream",
                      exempt: tuple[str, ...] = ("archive.py",)) -> list[str]:
    return [
        _where(path, node)
        for path, tree in _trees(package, exempt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "store"
    ]


def test_workload_drivers_never_use_the_raw_bus():
    assert direct_bus_uses() == []


def test_stream_layer_never_stores_extents_one_by_one():
    assert per_extent_stores() == []


def test_the_checks_see_what_they_guard():
    """Each check flags the real thing where it is allowed: the stream
    layer's bus-typed constructors and the archive's placeholder store."""
    assert any(hit.startswith("repro/stream/service.py:")
               for hit in direct_bus_uses("stream"))
    assert any(hit.startswith("repro/stream/archive.py:")
               for hit in per_extent_stores(exempt=()))
