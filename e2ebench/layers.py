"""Layer map of the simulator and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one layer.  The map is
keyed by *package* (a module's own package, never an ancestor), with a
few single-module overrides, so a lookup is an exact key match: a module
in a package that is missing from :data:`PACKAGE_LAYERS` is unmapped, and
:func:`unmapped_modules` reports it.

``repro/net/port.py`` is its own layer, ``net.port``, because it holds
inline copies of ``DRRScheduler.select``/``on_enqueue`` and of DynaQ
admission (``DynaQBuffer.admit``) on its fast path.  Their time therefore
counts under ``net.port``, not under ``queueing.schedulers`` or ``core``.
When a later change removes those copies, time that moves from
``net.port`` to ``queueing.schedulers``/``core`` is a shift between
layers, not a regression.

Self time of code outside ``src/repro`` (built-in functions such as
``heapq.heappush``, and standard-library Python) is charged to the layers
of its callers, in proportion to the self time each caller accounts for.
What no ``repro`` caller accounts for (interpreter start-up, the
benchmark's own code) is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

PACKAGE_LAYERS: Dict[str, str] = {
    "repro": "harness",
    "repro.apps": "apps",
    "repro.core": "core",
    "repro.diagnosis": "telemetry",
    "repro.experiments": "harness",
    "repro.extras": "queueing",
    "repro.faults": "harness",
    "repro.metrics": "metrics",
    "repro.net": "net",
    "repro.perf": "harness",
    "repro.queueing": "queueing",
    "repro.queueing.schedulers": "queueing.schedulers",
    "repro.serve": "harness",
    "repro.sim": "sim",
    "repro.snapshot": "harness",
    "repro.soak": "harness",
    "repro.telemetry": "telemetry",
    "repro.transport": "transport",
    "repro.workloads": "workloads",
}

MODULE_LAYERS: Dict[str, str] = {
    "repro.net.port": "net.port",
    "repro.sim.trace": "telemetry",
}

# Reporting order; "other" is everything outside src/repro.
LAYERS: Tuple[str, ...] = (
    "sim", "net.port", "net", "core", "queueing", "queueing.schedulers",
    "transport", "apps", "workloads", "metrics", "telemetry", "harness",
    "other",
)


def module_name(path: str, src_root: str) -> Optional[str]:
    """Dotted name of ``path`` if it lies under ``src_root/repro``.

    A package's ``__init__.py`` keeps its ``.__init__`` suffix, so it
    sits in its own package like every other module of the package.
    """
    rel = os.path.relpath(os.path.abspath(path), src_root)
    parts = rel[:-3].split(os.sep)
    if not rel.endswith(".py") or parts[0] != "repro":
        return None
    return ".".join(parts)


def layer_of_module(name: str) -> Optional[str]:
    """The layer of a dotted ``repro`` module name, or ``None``."""
    if name in MODULE_LAYERS:
        return MODULE_LAYERS[name]
    package = name.rsplit(".", 1)[0]
    return PACKAGE_LAYERS.get(package)


def repro_modules(src_root: str) -> List[str]:
    """Every module under ``src_root/repro``, as dotted names."""
    names = []
    for directory, _, files in os.walk(os.path.join(src_root, "repro")):
        for file in files:
            if file.endswith(".py"):
                names.append(module_name(os.path.join(directory, file),
                                         src_root))
    return sorted(names)


def unmapped_modules(src_root: str) -> List[str]:
    """Modules the layer map does not place (the self-test wants none)."""
    return [name for name in repro_modules(src_root)
            if layer_of_module(name) is None]


class LayerResolver:
    """Maps profiled source files to layers, with a per-file cache."""

    def __init__(self, src_root: str) -> None:
        self.src_root = os.path.abspath(src_root)
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of_file(self, path: str) -> Optional[str]:
        """Layer of a source file; ``None`` outside ``src/repro``."""
        if path not in self._cache:
            name = module_name(path, self.src_root)
            layer = None
            if name is not None:
                layer = layer_of_module(name)
                if layer is None:
                    raise KeyError(f"module {name} has no layer")
            self._cache[path] = layer
        return self._cache[path]


def layer_self_times(stats: Dict[tuple, tuple],
                     resolver: LayerResolver) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    Each entry is ``(file, line, name) -> (cc, nc, tt, ct, callers)``, and
    ``callers[caller] = (cc, nc, tt, ct)`` splits the callee's figures by
    caller.  A function outside ``src/repro`` hands its self time ``tt`` to
    its callers' layers, weighted by the ``tt`` each caller accounts for,
    recursively through further non-``repro`` callers.
    """
    shares: Dict[tuple, Dict[str, float]] = {}
    visiting = set()

    def share(func: tuple) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = resolver.layer_of_file(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        total = sum(figures[2] for figures in callers.values())
        if func in visiting or total <= 0:
            return {"other": 1.0}
        visiting.add(func)
        out: Dict[str, float] = {}
        for caller, figures in callers.items():
            weight = figures[2] / total
            for name, fraction in share(caller).items():
                out[name] = out.get(name, 0.0) + weight * fraction
        visiting.discard(func)
        shares[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        for name, fraction in share(func).items():
            totals[name] += entry[2] * fraction
    return totals


def entry_cumulative(stats: Dict[tuple, tuple], resolver: LayerResolver,
                     layer: str,
                     functions: Optional[Iterable[str]] = None) -> float:
    """Cumulative seconds of calls *into* ``layer`` from outside it.

    Sums ``ct`` over caller edges that cross the layer boundary, so
    recursion inside the layer is not counted twice.  ``functions``
    restricts the callees to those names (e.g. the topology builders).
    """
    wanted = set(functions) if functions is not None else None
    total = 0.0
    for func, entry in stats.items():
        if resolver.layer_of_file(func[0]) != layer:
            continue
        if wanted is not None and func[2] not in wanted:
            continue
        for caller, figures in entry[4].items():
            if resolver.layer_of_file(caller[0]) != layer:
                total += figures[3]
    return total
