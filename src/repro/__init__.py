"""FlexCast reproduction: genuine overlay-based atomic multicast (MIDDLEWARE 2023).

The public API is intentionally small; most users need only:

* :class:`repro.core.FlexCastProtocol` (and the baselines in :mod:`repro.protocols`),
* an overlay from :mod:`repro.overlay` (``build_o1`` et al.),
* :class:`repro.core.BatchingClient` to amortize envelope overhead under
  heavy traffic (size/time-window submission batching),
* :func:`repro.experiments.run_experiment` with an
  :class:`repro.experiments.ExperimentConfig` to reproduce the paper's
  experiments, or
* :mod:`repro.runtime` to run the same protocols over real TCP sockets.

See README.md for a quickstart and DESIGN.md for the full system inventory.
"""

import importlib
import sys
from typing import Any, Callable, Dict

#: Public name -> the submodule defining it.  The package imports none of
#: them itself: a name is imported on first use (PEP 562), so a process that
#: needs one subsystem does not load the others.
_EXPORTS = {
    "BatchingClient": ".core.batching",
    "FlexCastGroup": ".core.flexcast",
    "FlexCastProtocol": ".core.flexcast",
    "Message": ".core.message",
    "ExperimentConfig": ".experiments.config",
    "run_experiment": ".experiments.runner",
    "build_complete": ".overlay.builders",
    "build_o1": ".overlay.builders",
    "build_o2": ".overlay.builders",
    "build_t1": ".overlay.builders",
    "build_t2": ".overlay.builders",
    "build_t3": ".overlay.builders",
    "standard_overlays": ".overlay.builders",
    "CDagOverlay": ".overlay.cdag",
    "TreeOverlay": ".overlay.tree",
    "HierarchicalProtocol": ".protocols.hierarchical",
    "SkeenProtocol": ".protocols.skeen",
    "aws_latency_matrix": ".sim.latencies",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """A package's module ``__getattr__`` (PEP 562): import the submodule
    that ``exports`` names for an attribute on first use, and keep it."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = lazy_exports(__name__, _EXPORTS)
