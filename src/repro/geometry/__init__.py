"""Geometric substrate: axis-parallel boxes and the paper's exponential grids
with the condition-(3) cell filter."""
from repro.geometry.boxes import Box
from repro.geometry.grid import GridParams, candidate_cells_from_points, enumerate_cells

__all__ = [
    "Box",
    "GridParams",
    "candidate_cells_from_points",
    "enumerate_cells",
]
