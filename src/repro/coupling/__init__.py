"""Coupling maps, layouts, and predefined device topologies.

The names below are imported on first use.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.coupling.coupling_map import CouplingMap
    from repro.coupling.devices import (
        DEVICE_REGISTRY,
        device,
        fully_connected_device,
        grid_device,
        ibm_5q_tenerife,
        ibm_16q,
        ibm_20q_tokyo,
        ibm_27q_falcon,
        linear_device,
        ring_device,
    )
    from repro.coupling.layout import Layout

__getattr__ = lazy_exports(__name__, {
    "repro.coupling.coupling_map": ("CouplingMap",),
    "repro.coupling.devices": (
        "DEVICE_REGISTRY",
        "device",
        "fully_connected_device",
        "grid_device",
        "ibm_5q_tenerife",
        "ibm_16q",
        "ibm_20q_tokyo",
        "ibm_27q_falcon",
        "linear_device",
        "ring_device",
    ),
    "repro.coupling.layout": ("Layout",),
})

__all__ = [
    "CouplingMap",
    "DEVICE_REGISTRY",
    "Layout",
    "device",
    "fully_connected_device",
    "grid_device",
    "ibm_16q",
    "ibm_20q_tokyo",
    "ibm_27q_falcon",
    "ibm_5q_tenerife",
    "linear_device",
    "ring_device",
]
