"""Flows of Hermitian (2,2)-forms on complex 3-folds.

Modules: the exterior-algebra oracle (:mod:`~anomaly_flow.exterior`), pointwise
Hermitian form algebra (:mod:`~anomaly_flow.pointwise`), symbol and
ellipticity analysis (:mod:`~anomaly_flow.linearize`), spectral torus
calculus (:mod:`~anomaly_flow.grid`), time integration
(:mod:`~anomaly_flow.flow`), and the ``anomaly`` CLI (:mod:`~anomaly_flow.cli`).
"""

from .exterior import (
    MultiVector,
    dz,
    dzbar,
    from_form11,
    from_form22,
    to_form22,
    top_coefficient,
    wedge,
)
from .grid import PeriodicGrid
from .flow import DtControl, FuYauProblem, TorusProblem

__all__ = [
    "MultiVector",
    "dz",
    "dzbar",
    "wedge",
    "from_form11",
    "from_form22",
    "to_form22",
    "top_coefficient",
    "PeriodicGrid",
    "DtControl",
    "FuYauProblem",
    "TorusProblem",
]

__version__ = "0.1.0"
