"""Command-line front door.

Subcommands:
  verify-points   check every embedded table point against its curve equation
                  (the only membership verdict on the tables)
  verify-maps     the KS <-> K3 pairing derived from the tables, round trips,
                  Pell invariants; the coverings K1 -> K2 and K3 -> K6 as
                  identities in Q[a,b], and the commuting square and Euler
                  resolvent as identities in Q[a,b]
  verify-tower    per d (one, or all six): W and the recovered pair, then,
                  for a d with a table pair, j and the cubic-tower residuals
                  with their margins in bits; modular is an alias
  search          height search on Ks or |x| box on K1/K3, judged inside --bound
  report          the full battery in one run

Exit codes: 0 all checks pass, 1 at least one failure (including a
corrupt table entry, a search that misses a table entry inside its bound,
a discriminant with no K3 table pair, or with no K1 table pair when 3 does
not divide it, and one for which the modular engine finds no pair, no
integral j or no usable precision), 2 bad usage (including
--bits outside [8, 16384], a --d above D_MAX = 5762473 or not a squarefree
positive d = 3 mod 8, and search sizes outside [1, BOUND_MAX]), 3 I/O error.
JSON output serializes every number as a string (exact "p/q" rationals,
decimals with an explicit error radius); the schema ships as
report_schema.json next to this module.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from .curves import (
    CurveId, PointRecord, defining_poly, is_on_curve, is_singular_point,
    paper_points, rational_paper_points,
)
from .fixedreal import IndistinguishableFromZeroError
from .kernel import BivarPoly
from .maps import (
    MapDomainError, cover_k1_to_k2, cover_k3_to_k6, euler_resolvent_check,
    k1_to_k3, k1_to_ks, k2_to_k6, k3_to_ks, ks_to_k3, pair_k1_to_k2,
    pell_params,
)
from .modular import (
    CLASS_NUMBER_ONE_DS, InvalidDiscriminantError, ModularContext,
    RecoveryError, default_precision, paper_labels, recover_pair, schlafli_w,
    verify_tower, weber_product_selftest,
)
from .search import reconcile, search_integral, search_ks


@dataclass
class Check:
    id: str
    status: str  # pass | fail
    details: str = ""
    values: Dict[str, str] = field(default_factory=dict)


@dataclass
class Report:
    command: str
    checks: List[Check] = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, id: str, ok: bool, details: str = "", **values):
        self.checks.append(Check(
            id, "pass" if ok else "fail", details,
            {k: str(v) for k, v in values.items()},
        ))

    def failed(self) -> List[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json(self) -> dict:
        return {
            "tool": "curveatlas",
            "version": __version__,
            "schema_version": 1,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": self.command,
            "elapsed_seconds": f"{self.elapsed:.3f}",
            "checks": [
                {
                    "id": c.id,
                    "status": c.status,
                    **({"details": c.details} if c.details else {}),
                    **({"values": c.values} if c.values else {}),
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"curveatlas {__version__} :: {self.command}"]
        for c in self.checks:
            line = f"  [{c.status.upper():4s}] {c.id}"
            if c.details:
                line += f"  {c.details}"
            lines.append(line)
            for k, v in c.values.items():
                lines.append(f"          {k} = {v}")
        nfail = len(self.failed())
        lines.append(f"  {len(self.checks) - nfail} pass, {nfail} fail"
                     f"  ({self.elapsed:.2f}s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# check builders


def _pid(pt) -> str:
    """The point as (x,y), each coordinate as str() prints it (render_csv)."""
    return f"({pt[0]},{pt[1]})"


def checks_verify_points(report: Report) -> List[PointRecord]:
    """One point: check per table entry; returns the records judged."""
    records = [r for c in (CurveId.K3, CurveId.K1, CurveId.KS)
               for r in paper_points(c)]
    for rec in records:
        details = f"d={rec.d}" if rec.d is not None else ""
        report.add(f"point:{rec.curve}:{_pid(rec.pt)}",
                   is_on_curve(rec.curve, rec.pt), details)
    return records


def checks_singularity(report: Report) -> None:
    """(1,2) is the unique double point among the rational K3 entries."""
    singular = [
        rec.pt for rec in rational_paper_points(CurveId.K3)
        if is_singular_point(CurveId.K3, rec.pt)
    ]
    report.add(
        "singular:K3", singular == [(Fraction(1), Fraction(2))],
        "unique double point (1,2)",
    )


_PELL_EXPECTED = {
    3: (2, -3, 2), 11: (-2, -1, 0), 19: (-2, 3, -2),
    43: (-14, -3, -2), 67: (14, -17, 12), 163: (82, -99, 70),
}


_GENERIC_PAIR = (BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1}))
"""The variables (a, b) of Q[a, b].  A map with no branch and no division by
a variable, run on this pair, returns its image as polynomials in Q[a, b]."""


def checks_verify_maps(report: Report) -> None:
    # ks_to_k3 pairs the KS table with the rational K3 table; k3_to_ks
    # inverts it, and every K3 entry left unhit is outside its domain
    k3_table = [rec.pt for rec in rational_paper_points(CurveId.K3)]
    hit = set()
    for rec in paper_points(CurveId.KS):
        img = ks_to_k3(rec.pt)
        hit.add(img)
        try:
            back = k3_to_ks(img)
        except MapDomainError:
            back = None
        report.add(
            f"map:ks_to_k3:{_pid(rec.pt)}",
            img in k3_table and back == rec.pt,
            f"-> {_pid(img)}, round trip",
        )
    for pt in k3_table:
        if pt in hit:
            continue
        pid = f"map:k3_to_ks:exceptional:{_pid(pt)}"
        try:
            k3_to_ks(pt)
            report.add(pid, False, "no domain error")
        except MapDomainError as e:
            report.add(pid, True, f"domain error, factors: {', '.join(e.factors)}")
    # The coverings: K2 after cover_k1_to_k2 is K1/4 and K6 after
    # cover_k3_to_k6 is K3/4 in Q[a, b], so each sends its curve into the
    # target.
    for cover, src, dst, cid in (
        (cover_k1_to_k2, CurveId.K1, CurveId.K2, "map:cover-k1-k2"),
        (cover_k3_to_k6, CurveId.K3, CurveId.K6, "map:cover-k3-k6"),
    ):
        image = defining_poly(dst).evaluate(*cover(_GENERIC_PAIR))
        report.add(cid, image == defining_poly(src) / 4,
                   f"{dst}(cover(a,b)) = {src}(a,b)/4, identity in Q[a,b]")
    # Commuting square and Euler resolvent: equality at the generic pair is
    # equality in Q[a, b], which proves each identity for every exact input.
    report.add(
        "map:commuting-square",
        cover_k3_to_k6(k1_to_k3(_GENERIC_PAIR))
        == k2_to_k6(pair_k1_to_k2(_GENERIC_PAIR)),
        "K3->K6 after K1->K3 vs K2->K6 after the pair map, identity in Q[a,b]",
    )
    report.add("map:euler-resolvent", euler_resolvent_check(_GENERIC_PAIR),
               "identity in Q[a,b]")
    # Pell invariant over the 11 rational K3 points.  For a2 != 1 the residual
    # times 4(a2-1)^2 is K6(a2, b2) in Q[a, b], so K6 is tested only at a2 = 1.
    for rec in rational_paper_points(CurveId.K3):
        a2b2 = cover_k3_to_k6(rec.pt)
        tri = pell_params(a2b2)
        pid = f"map:pell:{_pid(rec.pt)}"
        if tri is None:
            report.add(pid, is_on_curve(CurveId.K6, a2b2),
                       "a2 = 1, Pell parameter undefined")
            continue
        ok = tri.residual() == 0
        vals = {"k": tri.k, "u": tri.u, "v": tri.v}
        if rec.d is not None:
            expected = _PELL_EXPECTED[rec.d]
            ok = ok and (tri.k, tri.u, tri.v) == expected
            vals["d"] = rec.d
        report.add(pid, ok, "u^2 - 2v^2 = 1", **vals)
    # K1 -> KS images of the table points with al3 != 0
    for rec in paper_points(CurveId.K1):
        pid = f"map:k1_to_ks:{_pid(rec.pt)}"
        if rec.pt[0] == 0:
            try:
                k1_to_ks(rec.pt)
                report.add(pid, False, "expected domain error")
            except MapDomainError:
                report.add(pid, True, "outside map domain (al3 = 0)")
            continue
        img = k1_to_ks(rec.pt)
        report.add(pid, is_on_curve(CurveId.KS, img), f"-> {_pid(img)}")


def _attempt(report: Report, check_id: str, fn, *args, **values):
    """fn(*args) for fn recover_pair or verify_tower, or None after recording
    a failing check, with values, when the modular engine gives no verdict:
    no pair or j within tolerance, a j that is not the cube the tower needs,
    or a precision too low to divide."""
    try:
        return fn(*args)
    except RecoveryError as e:
        report.add(check_id, False, str(e), **values)
    except IndistinguishableFromZeroError as e:
        report.add(check_id, False, f"precision too low: {e}", **values)
    return None


def checks_tower(report: Report, d: int, bits: Optional[int]) -> None:
    """Tower checks for one d, one check per verdict: tower:d=D:recover
    judges the pair recovered from one W at P against the table and carries
    W (also when recovery fails); for a d with a table pair, one
    verify_tower call is the only source of j, gamma2 and the residuals.
    A d without a K3 table pair gets no j, and one without the K1 pair that
    eq3.2 and eq3.3 need fails tower:d=D:j-cube."""
    ctx = ModularContext.create(d, prec=bits)
    w = schlafli_w(ctx)
    a3b3, al3be3 = paper_labels(d)
    recover_id = f"tower:d={d}:recover"
    W = w.decimal(40)
    pair = _attempt(report, recover_id, recover_pair, ctx, w, W=W)
    if pair is not None:
        table = a3b3 or f"has no integer pair for d={d}"
        report.add(recover_id, pair == a3b3,
                   f"recovered (a3,b3)={pair}, table {table}, P={ctx.prec}",
                   W=W, a3=pair[0], b3=pair[1])
    if a3b3 is None:
        return
    rep = _attempt(report, f"tower:d={d}:j-cube", verify_tower, ctx, a3b3, al3be3)
    if rep is None:
        return
    report.add(f"tower:d={d}:j-cube", rep.gamma2 is not None,
               f"j={rep.j}, gamma2={rep.gamma2}", j=rep.j, gamma2=rep.gamma2)
    failed = rep.failed()
    keep = rep.prec - rep.threshold_bits()
    for eq, res in rep.residuals.items():
        margin = keep - math.log2(abs(res.mantissa) + res.errbits)
        report.add(
            f"tower:d={d}:{eq}", eq not in failed,
            f"|residual| < 2^-{rep.threshold_bits()}",
            residual=res.decimal(40), margin_bits=f"{margin:.2f}",
        )


def checks_search(report: Report, curve: CurveId, bound: int) -> List[PointRecord]:
    """One search, judged by the rational table entries its spec covers."""
    res = search_ks(bound) if curve is CurveId.KS else search_integral(curve, bound)
    rec = reconcile(res, [r for r in rational_paper_points(curve)
                          if res.spec.covers(r.pt)])
    report.add(
        f"search:{curve}:bound={bound}", rec.clean(),
        f"found {len(res.found)} points, scanned {res.scanned}, "
        f"both={len(rec.both)}, paper_only={len(rec.paper_only)}, "
        f"search_only={len(rec.search_only)} in {res.elapsed:.2f}s",
        scanned=res.scanned, candidates=res.candidates,
    )
    for r in res.found:
        report.add(f"search:{curve}:point:{_pid(r.pt)}", True)
    return res.found


SELFTEST_BITS = (64, 128, 256)


def checks_selftest(report: Report) -> None:
    for p in SELFTEST_BITS:
        st = weber_product_selftest(p)
        # the defect itself is the measured quantity; the tracked radius is a
        # worst-case bound on that same defect, so it is not added here;
        # st.prec is p, so |mantissa| < 2^8 is |defect| < 2^-(p - 8)
        ok = abs(st.mantissa) < 1 << 8
        report.add(
            f"selftest:product:P={p}", ok,
            f"|sigma*sigma1*sigma2 - sqrt2| < 2^-{p - 8}",
            defect=st.decimal(40),
        )


# ---------------------------------------------------------------------------
# output


def render_csv(records) -> str:
    buf = io.StringIO()
    wtr = csv.writer(buf)
    wtr.writerow(["curve", "coord1", "coord2", "provenance", "d"])
    for r in records:
        wtr.writerow([
            r.curve, *r.pt, r.provenance, r.d if r.d is not None else "",
        ])
    return buf.getvalue()


def emit(report: Report, fmt: str, out: Optional[str],
         csv_records=None) -> int:
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2)
    elif fmt == "csv":
        text = render_csv(csv_records)
    else:
        text = report.to_text()
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    return 1 if report.failed() else 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


BITS_MIN, BITS_MAX = 8, 16384
"""Range of --bits.  Below 8 bits the pair and j tests compare against
2^-(P//4) >= 1/2, which every real number meets; at the ceiling, twice the
largest precision the tests use, one tower already takes seconds."""


D_MAX = bisect.bisect_right(range(1 << 40), BITS_MAX, key=default_precision) - 1
"""Largest --d, the last d whose default precision fits in BITS_MAX; above
it --d is a usage error, with or without --bits, checked before the
engine's squarefree test or its float precision formula sees the d."""


BOUND_MAX = 10**6
"""Largest search size (search --bound, report --height, --box).  At it the
KS scan takes about 0.15 s and 17 MB, and the K1 and K3 boxes about 0.23 s
and 18 MB each, as fresh `search` commands (one core of a 2-core Xeon); time
is about linear in the bound, and the KS scan's memory grows as sqrt(H)."""


def _bounded_int(lo: Optional[int], hi: Optional[int] = None):
    """argparse type for an integer in [lo, hi]; a None end is open."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            want = (f">= {lo}" if hi is None else f"<= {hi}" if lo is None
                    else f"in [{lo}, {hi}]")
            raise argparse.ArgumentTypeError(f"must be {want}, got {v}")
        return v
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; every later main reuses it."""
    ap = argparse.ArgumentParser(
        prog="curveatlas",
        description="exact verification atlas for the class-number-one curve family",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    bits = _bounded_int(BITS_MIN, BITS_MAX)
    bits_help = f"working precision, {BITS_MIN} to {BITS_MAX} bits (default: sized to d)"
    size = _bounded_int(1, BOUND_MAX)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report to this path")

    # csv lists point records; only these two commands produce them
    with_csv = ("text", "json", "csv")
    common(sub.add_parser("verify-points", help="check all embedded tables"), with_csv)
    common(sub.add_parser("verify-maps", help="check coverings and birational maps"))

    p = sub.add_parser("verify-tower", aliases=["modular"],
                       help="W, pair recovery, j and cubic-tower residuals")
    p.add_argument("--d", type=_bounded_int(None, D_MAX),
                   help=f"one discriminant, at most {D_MAX} (default: all six)")
    p.add_argument("--bits", type=bits, help=bits_help)
    common(p)

    p = sub.add_parser("search", help="bounded exact point search")
    p.add_argument("--curve", choices=("ks", "k1", "k3"), required=True)
    p.add_argument("--bound", type=size, required=True,
                   help=f"z-height on ks, |x| on k1/k3, at most {BOUND_MAX}")
    common(p, with_csv)

    p = sub.add_parser("report", help="full battery")
    p.add_argument("--bits", type=bits, help=bits_help)
    p.add_argument("--height", type=size, default=200)
    p.add_argument("--box", type=size, default=50)
    common(p)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    report = Report(command=args.command)
    csv_records = None
    start = time.monotonic()
    try:
        if args.command == "verify-points":
            csv_records = checks_verify_points(report)
        elif args.command == "verify-maps":
            checks_verify_maps(report)
        elif args.command in ("verify-tower", "modular"):
            ds = (args.d,) if args.d is not None else CLASS_NUMBER_ONE_DS
            for d in ds:
                checks_tower(report, d, args.bits)
        elif args.command == "search":
            curve = CurveId[args.curve.upper()]
            csv_records = checks_search(report, curve, args.bound)
        elif args.command == "report":
            checks_verify_points(report)
            checks_singularity(report)
            checks_verify_maps(report)
            for d in CLASS_NUMBER_ONE_DS:
                checks_tower(report, d, args.bits)
            checks_selftest(report)
            checks_search(report, CurveId.KS, args.height)
            checks_search(report, CurveId.K3, args.box)
            checks_search(report, CurveId.K1, args.box)
    except InvalidDiscriminantError as e:
        ap.error(str(e))
    report.elapsed = time.monotonic() - start
    return emit(report, args.format, args.out, csv_records)


if __name__ == "__main__":
    sys.exit(main())
