"""Roll a cProfile run up into per-layer self time and call counts.

Every profiled function's own time (``tottime``) is charged to one
layer. A function inside ``repro`` belongs to the layer its module
maps to; a function of the benchmark itself belongs to ``harness``.
Anything else -- builtins, NumPy, the standard library -- has no layer
of its own: its time goes to its callers along the profile's caller
edges, split by the time each edge carried, and climbs through
further non-layer callers until it reaches a layer. Time with no layer
anywhere above it lands in ``unattributed``. Because every function's
time is split into shares that sum to one, the layer totals sum to the
profile's total time.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

#: pstats key: (filename, first line, function name)
Key = Tuple[str, int, str]
#: pstats value: (primitive calls, calls, tottime, cumtime, callers)
Entry = Tuple[int, int, float, float, Mapping[Key, Tuple]]

_SIMCORE = {
    "fairshare": "simcore.fairshare",
    "fluid": "simcore.fluid",
    "pipeline": "simcore.pipeline",
    "flowclass": "simcore.flowclass",
}

#: top-level ``repro`` packages that are layers in their own right
_PACKAGES = (
    "dpss", "netsim", "backend", "viewer", "service", "netlogger",
    "volren", "protocol", "scenegraph", "ibravr", "datagen",
)


def layer_of_module(rel: str) -> str:
    """Layer of a module path relative to the ``repro`` package.

    ``simcore/fluid.py`` -> ``simcore.fluid``; the event-loop modules
    (env, events, process, sync, resources, calendar) are
    ``simcore.env``; unlisted packages are ``other``.
    """
    parts = rel.replace(os.sep, "/").split("/")
    if parts[0] == "simcore":
        stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
        return _SIMCORE.get(stem, "simcore.env")
    if parts[0] in _PACKAGES:
        return parts[0]
    return "other"


class Rollup:
    """Classifies profile keys and charges their time to layers."""

    def __init__(self, repro_root: str, harness_root: str):
        self._repro = os.path.normpath(repro_root) + os.sep
        self._harness = os.path.normpath(harness_root) + os.sep

    def layer(self, key: Key) -> Optional[str]:
        """The layer a profiled function belongs to, or ``None``."""
        filename = os.path.normpath(key[0])
        if filename.startswith(self._repro):
            return layer_of_module(filename[len(self._repro):])
        if filename.startswith(self._harness):
            return "harness"
        return None

    def self_times(self, stats: Mapping[Key, Entry]) -> Dict[str, float]:
        """Seconds of self time per layer (``unattributed`` included)."""
        memo: Dict[Key, Dict[str, float]] = {}
        totals: Dict[str, float] = {}
        for key, entry in stats.items():
            tottime = entry[2]
            if tottime == 0.0:
                continue
            own = self.layer(key)
            # A function's own time follows the edges that carried it
            # (their tottime column).
            split = (
                {own: 1.0} if own is not None
                else self._split(stats, key, 2, memo, ())
            )
            for layer, frac in split.items():
                totals[layer] = totals.get(layer, 0.0) + tottime * frac
        return totals

    def _above(self, stats, key, memo, path) -> Dict[str, float]:
        """Where time spent under ``key`` belongs, as fractions."""
        own = self.layer(key)
        if own is not None:
            return {own: 1.0}
        if key not in memo:
            # Time under a caller divides by inclusive time (cumtime).
            memo[key] = self._split(stats, key, 3, memo, path)
        return memo[key]

    def _split(self, stats, key, column, memo, path) -> Dict[str, float]:
        entry = stats.get(key)
        callers = entry[4] if entry is not None else {}
        path = path + (key,)
        # Recursive edges are skipped: the outer frame carries them.
        edges = [(c, e) for c, e in callers.items() if c not in path]
        weights = [max(e[column], 0.0) for _c, e in edges]
        if sum(weights) <= 0.0:
            weights = [float(e[1]) for _c, e in edges]  # call counts
        total = sum(weights)
        if total <= 0.0:
            return {"unattributed": 1.0}
        split: Dict[str, float] = {}
        for (caller, _edge), weight in zip(edges, weights):
            if weight == 0.0:
                continue
            for layer, frac in self._above(stats, caller, memo, path).items():
                split[layer] = split.get(layer, 0.0) + frac * weight / total
        return split


def call_count(stats: Mapping[Key, Entry], module_suffix: str,
               function: str) -> int:
    """Total calls of ``function`` defined in a file ending with
    ``module_suffix`` (``/`` separated, e.g. ``simcore/env.py``)."""
    suffix = module_suffix.replace("/", os.sep)
    return sum(
        entry[1]
        for key, entry in stats.items()
        if key[2] == function and os.path.normpath(key[0]).endswith(suffix)
    )
