"""Set-up probe: import curveatlas from ./src, verify the embedded point
tables once, print "ready".  run.py times it from process start."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import curveatlas.cli  # noqa: E402,F401  (pulls in every module, numpy and sympy)
from curveatlas.curves import CurveId, paper_points  # noqa: E402

for curve in (CurveId.K1, CurveId.K3, CurveId.KS):
    paper_points(curve)
print("ready", flush=True)
