"""Closed-loop benchmark of the curveatlas public API; see run.py."""
