import argparse
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import curveatlas
from curveatlas import cli, curves, maps, modular
from curveatlas.cli import build_parser, main
from curveatlas.curves import CurveId, defining_poly, is_on_curve, paper_points
from curveatlas.fixedreal import FixedReal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    return [r for r in csv.reader(io.StringIO(text)) if r]


def load_schema():
    with resources.files("curveatlas").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


class TestVerifyPoints:
    def test_exit_zero_and_29_records(self, capsys):
        code, out = run(capsys, "verify-points", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["checks"]) == 29
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_json_validates_against_schema(self, capsys):
        _, out = run(capsys, "verify-points", "--format", "json")
        jsonschema.validate(json.loads(out), load_schema())

    def test_csv_export(self, capsys):
        code, out = run(capsys, "verify-points", "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["curve", "coord1", "coord2", "provenance", "d"]
        assert len(rows) == 30  # header + 29 table points
        curves = {r[0] for r in rows[1:]}
        assert curves == {"K1", "K3", "Ks"}

    def test_csv_rows_are_the_judged_records(self, capsys):
        # one walk of the tables: the csv rows are, in order, the records
        # behind the 29 point: checks
        _, out = run(capsys, "verify-points", "--format", "json")
        checks = [(c["id"], c.get("details", "")) for c in json.loads(out)["checks"]]
        _, out = run(capsys, "verify-points", "--format", "csv")
        rows = csv_rows(out)[1:]
        assert [(f"point:{c}:({x},{y})", f"d={d}" if d else "")
                for c, x, y, _, d in rows] == checks
        assert len(checks) == 29


class TestVerifyMaps:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "verify-maps", "--format", "json")
        assert code == 0
        data = json.loads(out)
        ids = [c["id"] for c in data["checks"]]
        assert "map:commuting-square" in ids
        assert "map:euler-resolvent" in ids
        assert any(i.startswith("map:pell:") for i in ids)
        assert any(i.startswith("map:k3_to_ks:exceptional") for i in ids)

    def test_identities_are_proved_in_q_ab(self, capsys):
        _, out = run(capsys, "verify-maps", "--format", "json")
        by_id = {c["id"]: c for c in json.loads(out)["checks"]}
        for cid in ("map:commuting-square", "map:euler-resolvent"):
            assert by_id[cid]["status"] == "pass"
            assert by_id[cid]["details"].endswith("identity in Q[a,b]")

    def test_exceptional_point_without_domain_error(self, monkeypatch):
        monkeypatch.setattr(cli, "k3_to_ks", lambda p: (Fraction(0), Fraction(0)))
        by_id = verify_maps_checks()
        for pid in ("map:k3_to_ks:exceptional:(1,2)",
                    "map:k3_to_ks:exceptional:(-1,-2)"):
            assert by_id[pid].status == "fail"
            assert by_id[pid].details == "no domain error"
        assert not any("Fraction" in cid for cid in by_id)

    def test_exceptional_check_fails_when_one_point_maps(self, monkeypatch):
        k3_to_ks = cli.k3_to_ks
        monkeypatch.setattr(
            cli, "k3_to_ks",
            lambda p: (Fraction(0), Fraction(0)) if p == (1, 2) else k3_to_ks(p))
        by_id = verify_maps_checks()
        assert by_id["map:k3_to_ks:exceptional:(1,2)"].status == "fail"
        assert [c for c, v in by_id.items() if v.status == "fail"] == [
            "map:k3_to_ks:exceptional:(1,2)"]

    def test_pairing_is_derived_from_the_tables(self):
        by_id = verify_maps_checks()
        assert sorted(c for c in by_id if c.startswith("map:ks_to_k3:")) == sorted(
            f"map:ks_to_k3:{cli._pid(rec.pt)}" for rec in paper_points(CurveId.KS))
        assert sorted(c for c in by_id if c.startswith("map:k3_to_ks:")) == [
            "map:k3_to_ks:exceptional:(-1,-2)", "map:k3_to_ks:exceptional:(1,2)"]
        assert by_id["map:ks_to_k3:(2,14)"].details == "-> (-17,150), round trip"

    def test_swapped_images_fail_the_round_trip(self, monkeypatch):
        a, b = (Fraction(1), Fraction(4)), (Fraction(2), Fraction(14))
        ks_to_k3 = cli.ks_to_k3
        swap = {a: ks_to_k3(b), b: ks_to_k3(a)}
        monkeypatch.setattr(cli, "ks_to_k3", lambda p: swap.get(p) or ks_to_k3(p))
        failed = [c for c, v in verify_maps_checks().items() if v.status == "fail"]
        assert failed == ["map:ks_to_k3:(1,4)", "map:ks_to_k3:(2,14)"]

    def test_image_missing_from_the_k3_table_fails(self, monkeypatch):
        table = cli.rational_paper_points
        monkeypatch.setattr(cli, "rational_paper_points", lambda c: [
            rec for rec in table(c) if rec.pt != (7, 26)])
        failed = [c for c, v in verify_maps_checks().items() if v.status == "fail"]
        assert failed == ["map:ks_to_k3:(1,4)"]

    def test_colliding_images_leave_a_point_unhit(self, monkeypatch):
        # (1,4) is sent to the image (-17,150) of (2,14), so (7,26) is hit by
        # no image and k3_to_ks maps it without a domain error
        ks_to_k3 = cli.ks_to_k3
        monkeypatch.setattr(
            cli, "ks_to_k3",
            lambda p: ks_to_k3((Fraction(2), Fraction(14)) if p == (1, 4) else p))
        by_id = verify_maps_checks()
        failed = [c for c, v in by_id.items() if v.status == "fail"]
        assert failed == ["map:ks_to_k3:(1,4)", "map:k3_to_ks:exceptional:(7,26)"]
        assert by_id["map:k3_to_ks:exceptional:(7,26)"].details == "no domain error"

    def test_image_at_the_double_point_is_a_failing_check(self, monkeypatch):
        # k3_to_ks raises at (1,2): the round trip fails, with no traceback
        ks_to_k3 = cli.ks_to_k3
        monkeypatch.setattr(
            cli, "ks_to_k3",
            lambda p: (Fraction(1), Fraction(2)) if p == (1, 4) else ks_to_k3(p))
        by_id = verify_maps_checks()
        failed = [c for c, v in by_id.items() if v.status == "fail"]
        assert failed == ["map:ks_to_k3:(1,4)", "map:k3_to_ks:exceptional:(7,26)"]
        assert by_id["map:ks_to_k3:(1,4)"].details == "-> (1,2), round trip"

    def test_coverings_are_proved_in_q_ab(self):
        by_id = verify_maps_checks()
        for cid, details in (
            ("map:cover-k1-k2", "K2(cover(a,b)) = K1(a,b)/4, identity in Q[a,b]"),
            ("map:cover-k3-k6", "K6(cover(a,b)) = K3(a,b)/4, identity in Q[a,b]"),
        ):
            assert by_id[cid].status == "pass"
            assert by_id[cid].details == details

    @pytest.mark.parametrize("name, src, dst, cid", [
        ("cover_k1_to_k2", CurveId.K1, CurveId.K2, "map:cover-k1-k2"),
        ("cover_k3_to_k6", CurveId.K3, CurveId.K6, "map:cover-k3-k6"),
    ])
    def test_covering_fails_for_a_map_right_only_on_the_table(
            self, monkeypatch, name, src, dst, cid):
        bent = off_curve(getattr(maps, name), src)
        assert all(is_on_curve(dst, bent(rec.pt)) for rec in paper_points(src))
        monkeypatch.setattr(cli, name, bent)
        by_id = verify_maps_checks()
        assert by_id[cid].status == "fail"
        assert all(v.status == "pass" for c, v in by_id.items()
                   if c.startswith("map:pell:"))

    def test_square_fails_for_a_map_right_only_on_the_table(self, monkeypatch):
        # K1(al3, be3) vanishes at every K1 table input, not identically
        bent = off_curve(maps.k1_to_k3, CurveId.K1)
        table = [rec.pt for rec in paper_points(CurveId.K1)]
        assert all(
            maps.cover_k3_to_k6(bent(p)) == maps.k2_to_k6(maps.pair_k1_to_k2(p))
            for p in table
        )
        monkeypatch.setattr(cli, "k1_to_k3", bent)
        by_id = verify_maps_checks()
        assert by_id["map:commuting-square"].status == "fail"
        assert by_id["map:euler-resolvent"].status == "pass"

    def test_resolvent_fails_for_a_map_right_only_on_the_table(self, monkeypatch):
        bent = off_curve(maps.cover_k3_to_k6, CurveId.K1)
        monkeypatch.setattr(maps, "cover_k3_to_k6", bent)
        table = [rec.pt for rec in paper_points(CurveId.K1)]
        assert all(maps.euler_resolvent_check(p) for p in table)
        by_id = verify_maps_checks()
        assert by_id["map:euler-resolvent"].status == "fail"
        assert by_id["map:commuting-square"].status == "pass"


def verify_maps_checks():
    report = cli.Report("verify-maps")
    cli.checks_verify_maps(report)
    return {c.id: c for c in report.checks}


def off_curve(f, curve):
    """f with the curve's defining polynomial at the input added to its
    first coordinate: the same map at every point of the curve, a different
    one in Q[a,b]."""
    poly = defining_poly(curve)

    def bent(p):
        u, v = f(p)
        return (u + poly.evaluate(*p), v)
    return bent


class TestModularCommands:
    def test_verify_tower_single_d(self, capsys):
        code, out = run(capsys, "verify-tower", "--d", "19", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert any(c["id"] == "tower:d=19:recover" for c in data["checks"])

    def test_modular_reports_values(self, capsys):
        code, out = run(capsys, "modular", "--d", "163", "--bits", "256",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        by_id = {c["id"]: c for c in data["checks"]}
        recover = by_id["tower:d=163:recover"]["values"]
        assert (recover["a3"], recover["b3"]) == ("-17", "150")
        assert recover["W"].startswith("0.02658649529554736436606766485195")
        assert by_id["tower:d=163:j-cube"]["values"] == {
            "j": "-262537412640768000", "gamma2": "-640320"}

    def test_invalid_d_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["modular", "--d", "7"])
        assert ei.value.code == 2


def failing_checks(capsys, *argv):
    """Run a command that must end in failing checks, not a traceback."""
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    return {c["id"]: c.get("details", "") for c in json.loads(out)["checks"]
            if c["status"] == "fail"}


class TestModularFailures:
    def test_modular_without_pair(self, capsys):
        failed = failing_checks(capsys, "modular", "--d", "35")
        assert "no pair" in failed["tower:d=35:recover"]
        assert "h(-d) != 1" in failed["tower:d=35:recover"]

    def test_verify_tower_without_pair_at_low_precision(self, capsys):
        failed = failing_checks(capsys, "verify-tower", "--d", "67", "--bits", "32")
        assert "precision too low" in failed["tower:d=67:recover"]

    def test_verify_tower_without_table_pair(self, capsys):
        failed = failing_checks(capsys, "verify-tower", "--d", "35")
        assert list(failed) == ["tower:d=35:recover"]
        assert "no pair" in failed["tower:d=35:recover"]

    def test_verify_tower_indistinguishable_from_zero(self, capsys):
        failed = failing_checks(capsys, "verify-tower", "--d", "11", "--bits", "8")
        assert failed["tower:d=11:recover"].startswith("precision too low")

    def test_modular_indistinguishable_from_zero(self, capsys):
        failed = failing_checks(capsys, "modular", "--d", "11", "--bits", "16")
        assert failed["tower:d=11:recover"].startswith("precision too low")

    def test_residual_status_comes_from_the_tower_report(self, capsys, monkeypatch):
        monkeypatch.setattr(modular.TowerReport, "failed", lambda self: ["eq2.2"])
        failed = failing_checks(capsys, "verify-tower", "--d", "11")
        assert failed == {"tower:d=11:eq2.2": "|residual| < 2^-64"}

    def test_j_not_a_cube_fails_the_j_check_once(self, capsys, monkeypatch):
        # verify_tower raises RecoveryError when j is not a cube; the one
        # tower call records it under the j check and forms no residual
        monkeypatch.setattr(modular, "gamma2_of", lambda j: None)
        code, out = run(capsys, "verify-tower", "--d", "11", "--format", "json")
        assert code == 1
        checks = json.loads(out)["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        assert [c["id"] for c in failed] == ["tower:d=11:j-cube"]
        assert "not a perfect cube" in failed[0]["details"]
        assert [c["id"] for c in checks] == ["tower:d=11:recover", "tower:d=11:j-cube"]

    def test_low_precision_j_failure_names_defect_radius_threshold(self, capsys):
        code, out = run(capsys, "verify-tower", "--bits", "8", "--format", "json")
        assert code == 1
        checks = json.loads(out)["checks"]
        ids = [c["id"] for c in checks]
        failed = {c["id"]: c["details"] for c in checks if c["status"] == "fail"}
        for d, defect, radius in ((67, "-17.4", "-0.6"), (163, "-1.2", "20.0")):
            assert ids.count(f"tower:d={d}:j-cube") == 1
            assert failed[f"tower:d={d}:j-cube"] == (
                f"j for d={d} not integral to tolerance "
                f"(defect 2^{defect}, radius 2^{radius}, threshold 2^-2)"
            )
            assert [i for i in ids if i.startswith(f"tower:d={d}:")] == [
                f"tower:d={d}:recover", f"tower:d={d}:j-cube",
            ]

    @pytest.mark.parametrize("d, bits, closest", [
        (35, "48", "best defect about 2^-18"),
        (59, "40", "best defect about 2^-15"),
        (83, "44", "best defect about 2^-18"),
        (35, None, "no |a3| <= 1000000 within 2^-32"),
    ])
    def test_recover_failure_names_the_closest_candidate(self, capsys, d, bits, closest):
        argv = ["verify-tower", "--d", str(d)] + (["--bits", bits] if bits else [])
        failed = failing_checks(capsys, *argv)
        assert failed[f"tower:d={d}:recover"] == (
            f"no pair for d={d}: h(-d) != 1 or precision too low ({closest})"
        )

    def test_modular_reports_each_failure_once(self, capsys):
        failed = failing_checks(capsys, "modular", "--d", "35")
        assert list(failed) == ["tower:d=35:recover"]

    def test_quadratic_table_d_has_no_table_pair(self, capsys):
        # d = 51 labels a quadratic K3 point, not an integer pair
        failed = failing_checks(capsys, "modular", "--d", "51")
        assert list(failed) == ["tower:d=51:recover"]
        assert "no pair" in failed["tower:d=51:recover"]

    def test_no_j_without_table_pair_at_low_precision(self, capsys):
        # j comes only from the tower call, which needs a table pair; at 12
        # bits a numeric j for d = 59 would round a cubic irrational
        code, out = run(capsys, "modular", "--d", "59", "--bits", "12",
                        "--format", "json")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["id"], c["status"]) for c in checks] == [
            ("tower:d=59:recover", "fail")]
        assert "W" in checks[0]["values"]


class TestCorruptTable:
    """A corrupt table entry is a failing check and exit 1, never a
    traceback: the tables are judged only where they are reported."""

    @pytest.fixture
    def corrupt(self, set_table_entry):
        set_table_entry("_K3_RATIONAL_TABLE", 67, (Fraction(7), Fraction(27)))
        set_table_entry("_K1_TABLE", 11, (Fraction(1), Fraction(3)))

    def test_verify_points_fails_the_corrupt_entries(self, capsys, corrupt):
        failed = failing_checks(capsys, "verify-points")
        assert sorted(failed) == ["point:K1:(1,3)", "point:K3:(7,27)"]

    def test_report_gives_verdicts(self, capsys, corrupt):
        failed = failing_checks(capsys, "report", "--height", "40", "--box", "20")
        assert {"point:K3:(7,27)", "point:K1:(1,3)", "map:pell:(7,27)",
                "tower:d=11:eq3.3", "tower:d=67:recover"} <= set(failed)
        assert "singular:K3" not in failed

    @pytest.mark.parametrize("argv, fails", [
        (["verify-maps"], "map:ks_to_k3:(1,4)"),
        (["verify-tower", "--d", "67"], "tower:d=67:recover"),
        (["verify-tower", "--d", "11"], "tower:d=11:eq3.3"),
    ], ids=["verify-maps", "verify-tower-67", "verify-tower-11"])
    def test_each_command_gives_verdicts(self, capsys, corrupt, argv, fails):
        assert fails in failing_checks(capsys, *argv)

    def test_non_integral_table_pair_is_no_pair(self, capsys, set_table_entry):
        # (7, 53/2) is not read as (7, 26): no table pair, no tower
        set_table_entry("_K3_RATIONAL_TABLE", 67, (Fraction(7), Fraction(53, 2)))
        failed = failing_checks(capsys, "verify-tower", "--d", "67")
        assert list(failed) == ["tower:d=67:recover"]
        assert failed["tower:d=67:recover"].startswith(
            "recovered (a3,b3)=(7, 26), table has no integer pair for d=67")

    def test_non_integral_table_pair_is_not_searched_for(self, capsys,
                                                         set_table_entry):
        # the search reads the same integral entries as the tower: (7, 26)
        # is found but is in no table, so the bound check fails
        set_table_entry("_K3_RATIONAL_TABLE", 67, (Fraction(7), Fraction(53, 2)))
        code, out = run(capsys, "search", "--curve", "k3", "--bound", "10",
                        "--format", "json")
        assert code == 1
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        failed = [i for i, c in checks.items() if c["status"] == "fail"]
        assert failed == ["search:K3:bound=10"]
        assert "search_only=1 " in checks[failed[0]]["details"]
        assert "search:K3:point:(7,26)" in checks


def test_unlabelled_k1_entry_fails_the_tower(capsys, monkeypatch):
    # d = 43's K1 entry without its label: no K1 pair, so eq3.2 and eq3.3
    # cannot be checked, and the tower says so instead of leaving them out
    table = [(pt, None if d == 43 else d) for pt, d in curves._K1_TABLE]
    monkeypatch.setattr(curves, "_K1_TABLE", table)
    curves.paper_points.cache_clear()
    try:
        code, out = run(capsys, "report", "--height", "40", "--box", "20",
                        "--format", "json")
    finally:
        curves.paper_points.cache_clear()
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    failed = [i for i, c in checks.items() if c["status"] == "fail"]
    assert failed == ["tower:d=43:j-cube"]
    assert checks[failed[0]]["details"] == (
        "no K1 pair (al3, be3) for d=43: eq3.2 and eq3.3 need it")
    assert not any(i.startswith("tower:d=43:eq") for i in checks)


def test_failed_recovery_carries_w(capsys):
    code, out = run(capsys, "modular", "--d", "35", "--format", "json")
    assert code == 1
    [check] = json.loads(out)["checks"]
    assert check["values"] == {
        "W": "0.3918231212237613366721755390568222037567 (+/- 6.221e-34)"}


def test_modular_is_verify_tower(capsys):
    _, modular_out = run(capsys, "modular", "--d", "11", "--format", "json")
    _, tower_out = run(capsys, "verify-tower", "--d", "11", "--format", "json")
    modular_checks, tower_checks = (json.loads(o)["checks"]
                                    for o in (modular_out, tower_out))
    assert modular_checks == tower_checks


# classical singular moduli
EXPECTED_J = {3: 0, 11: -32768, 19: -884736, 43: -884736000,
              67: -147197952000, 163: -262537412640768000}


def test_report_values_match_tables_and_known_j(capsys):
    _, out = run(capsys, "report", "--height", "30", "--box", "20",
                 "--format", "json")
    by_id = {c["id"]: c.get("values", {}) for c in json.loads(out)["checks"]}
    for d, j in EXPECTED_J.items():
        recover = by_id[f"tower:d={d}:recover"]
        assert (int(recover["a3"]), int(recover["b3"])) == modular.paper_labels(d)[0]
        assert by_id[f"tower:d={d}:j-cube"]["j"] == str(j)
    # every tower residual of the six d, and nothing else, has a margin
    margins = [float(v["margin_bits"]) for v in by_id.values() if "margin_bits" in v]
    assert len(margins) == 34
    # the tightest acceptance is d = 3's eq2.1, 59.05 bits inside 2^-64
    assert min(margins) == 59.05
    assert by_id["tower:d=3:eq2.1"]["margin_bits"] == "59.05"


def count_engine_calls(monkeypatch):
    """Count ModularContext.create, schlafli_w, the j quotient (_j_and_u),
    gamma2_of and j_invariant calls from here on."""
    calls = {"create": 0, "schlafli_w": 0, "_j_and_u": 0, "gamma2_of": 0,
             "j_invariant": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    create = counted("create", modular.ModularContext.create)
    monkeypatch.setattr(modular.ModularContext, "create",
                        classmethod(lambda cls, *args, **kwargs: create(*args, **kwargs)))
    counted_w = counted("schlafli_w", modular.schlafli_w)
    monkeypatch.setattr(modular, "schlafli_w", counted_w)
    monkeypatch.setattr(cli, "schlafli_w", counted_w)
    monkeypatch.setattr(modular, "_j_and_u", counted("_j_and_u", modular._j_and_u))
    monkeypatch.setattr(modular, "gamma2_of", counted("gamma2_of", modular.gamma2_of))
    monkeypatch.setattr(modular, "j_invariant",
                        counted("j_invariant", modular.j_invariant))
    return calls


@pytest.mark.parametrize("argv, n_d, n_tower", [
    (["verify-tower", "--d", "163"], 1, 1),
    (["verify-tower"], 6, 6),
    (["modular", "--d", "163"], 1, 1),
    (["modular", "--d", "35"], 1, 0),
    (["report"], 6, 6),
], ids=["verify-tower-163", "verify-tower-all", "modular-163", "modular-35",
        "report"])
def test_one_w_at_p_and_one_boosted_w_per_d(argv, n_d, n_tower, monkeypatch,
                                            capsys):
    # per d: W at P; per d with a table pair: one verify_tower call, with
    # one boosted W, one j and one gamma2; j_invariant never runs
    calls = count_engine_calls(monkeypatch)
    main(argv)
    capsys.readouterr()
    assert calls == {"create": n_d + n_tower, "schlafli_w": n_d + n_tower,
                     "_j_and_u": n_tower, "gamma2_of": n_tower,
                     "j_invariant": 0}


REMOVED = "unrecognized arguments"


@pytest.mark.parametrize("argv, message", [
    (["verify-tower", "--d", "11", "--bits", "0"], "must be"),
    (["verify-tower", "--bits", "7"], "must be"),
    (["verify-tower", "--bits", "16385"], "must be"),
    (["modular", "--d", "11", "--bits", "100000000"], "must be"),
    (["report", "--bits", "-1"], "must be"),
    (["search", "--curve", "ks", "--bound", "5", "--partitions", "0"], REMOVED),
    (["search", "--curve", "ks", "--bound", "5", "--jobs", "0"], REMOVED),
    (["report", "--jobs", "0"], REMOVED),
    (["report", "--height", "0"], "must be"),
    (["report", "--box", "0"], "must be"),
    (["search", "--curve", "ks", "--bound", "5", "--partitions", "2"], REMOVED),
    (["search", "--curve", "ks", "--bound", "5", "--jobs", "2"], REMOVED),
    (["report", "--jobs", "1"], REMOVED),
    (["modular", "--d", "5762483"], "must be <= 5762473"),
    (["verify-tower", "--d", "10000000000000099", "--bits", "64"], "must be"),
    (["verify-tower", "--d", str(10**400 + 3)], "must be"),
    (["search", "--curve", "ks", "--bound", str(cli.BOUND_MAX + 1)], "must be"),
    (["search", "--curve", "k1", "--bound", str(10**400)], "must be"),
    (["report", "--height", str(cli.BOUND_MAX + 1)], "must be"),
    (["report", "--box", str(cli.BOUND_MAX + 1)], "must be"),
    (["search", "--curve", "ks", "--box", "5"], "required: --bound"),
    (["search", "--curve", "k3", "--height", "10"], "required: --bound"),
    (["search", "--curve", "k3", "--bound", "10", "--height", "10"], REMOVED),
], ids=["bits-0", "bits-below-floor", "bits-above-ceiling", "bits-huge",
        "bits-negative", "partitions-0", "search-jobs-0", "report-jobs-0",
        "report-height-0", "report-box-0", "partitions-2", "search-jobs-2",
        "report-jobs-1", "d-above-max", "d-above-max-with-bits", "d-400-digits",
        "search-bound-above-max", "search-bound-400-digits",
        "report-height-above-max", "report-box-above-max", "search-box",
        "search-height", "search-bound-and-height"])
def test_out_of_range_size_is_usage_error(argv, message, capsys):
    # sizes out of range, the removed --partitions and --jobs options at any
    # value, and search's --height and --box (it takes one --bound) are usage
    # errors: exit 2 and a message, no traceback, before any search runs
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-maps"], ["verify-tower", "--d", "11"], ["modular", "--d", "11"],
    ["report"],
], ids=["verify-maps", "verify-tower", "modular", "report"])
def test_csv_without_point_records_is_usage_error(argv, capsys):
    # csv lists point records, which only verify-points and search produce
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--format", "csv"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'csv'" in err and "Traceback" not in err


def test_d_max_is_the_last_d_whose_precision_fits():
    assert modular.default_precision(cli.D_MAX) <= cli.BITS_MAX
    assert modular.default_precision(cli.D_MAX + 1) > cli.BITS_MAX


def test_d_just_below_max_ends_in_a_verdict(capsys):
    failed = failing_checks(capsys, "modular", "--d", "5762467")
    assert list(failed) == ["tower:d=5762467:recover"]


def test_bits_range_ends_are_accepted():
    ap = build_parser()
    assert ap.parse_args(["verify-tower", "--bits", "8"]).bits == 8
    assert ap.parse_args(["verify-tower", "--bits", "16384"]).bits == 16384


def test_search_size_ends_are_accepted():
    # parsed only: a search at BOUND_MAX takes seconds
    ap = build_parser()
    for bound in (1, cli.BOUND_MAX):
        assert ap.parse_args(["search", "--curve", "ks", "--bound", str(bound)]).bound == bound
        args = ap.parse_args(["report", "--height", str(bound), "--box", str(bound)])
        assert (args.height, args.box) == (bound, bound)


class TestSearchCommand:
    def test_ks_search(self, capsys):
        code, out = run(capsys, "search", "--curve", "ks", "--bound", "25",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        pts = [c for c in data["checks"] if c["id"].startswith("search:Ks:point:")]
        assert len(pts) == 9

    @pytest.mark.parametrize("argv, cid, scanned", [
        (["--curve", "ks", "--bound", "25"], "search:Ks:bound=25", 4 * 200 - 1),
        (["--curve", "k3", "--bound", "30"], "search:K3:bound=30", 61),
    ])
    def test_search_check_reports_work(self, capsys, argv, cid, scanned):
        # scanned: reduced p/q with height <= 25 (Phi(25) = 200), or x in
        # [-30, 30]; candidates: those that reached the exact test
        code, out = run(capsys, "search", *argv, "--format", "json")
        check = next(c for c in json.loads(out)["checks"] if c["id"] == cid)
        assert check["details"].startswith(f"found 9 points, scanned {scanned}, both=9")
        assert check["values"]["scanned"] == str(scanned)
        assert 0 < int(check["values"]["candidates"]) < scanned // 4

    def test_search_csv_rows_are_the_point_checks(self, capsys):
        _, out = run(capsys, "search", "--curve", "k3", "--bound", "50",
                     "--format", "json")
        ids = [c["id"] for c in json.loads(out)["checks"]
               if c["id"].startswith("search:K3:point:")]
        _, out = run(capsys, "search", "--curve", "k3", "--bound", "50",
                     "--format", "csv")
        rows = csv_rows(out)[1:]
        assert [f"search:{c}:point:({x},{y})" for c, x, y, _, _ in rows] == ids
        assert len(ids) == 9

    def test_search_csv(self, capsys):
        code, out = run(capsys, "search", "--curve", "k1", "--bound", "5",
                        "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 7  # header + 6 integral points
        assert all(r[3] == "search" for r in rows[1:])

    def test_search_missing_a_covered_entry_fails(self, capsys, monkeypatch):
        # (7, 26) lies inside |x| <= 50: a search that drops it fails its
        # bound check, although it finds nothing outside the table
        real = cli.search_integral

        def drop_7_26(curve, bound):
            res = real(curve, bound)
            res.found = [r for r in res.found if r.pt != (7, 26)]
            return res

        monkeypatch.setattr(cli, "search_integral", drop_7_26)
        code, out = run(capsys, "search", "--curve", "k3", "--bound", "50",
                        "--format", "json")
        assert code == 1
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        failed = [i for i, c in checks.items() if c["status"] == "fail"]
        assert failed == ["search:K3:bound=50"]
        assert "paper_only=1, search_only=0 " in checks[failed[0]]["details"]

    @pytest.mark.parametrize("argv, counts", [
        (["--curve", "k3", "--bound", "10"], "both=8, paper_only=0, search_only=0"),
        (["--curve", "ks", "--bound", "1"], "both=5, paper_only=0, search_only=0"),
    ], ids=["k3-10", "ks-1"])
    def test_search_counts_are_taken_inside_the_bound(self, capsys, argv,
                                                       counts):
        # (-17, 150) lies outside |x| <= 10, and z = 1/2 and 2 above height
        # 1: no entry out of reach counts as missed
        code, out = run(capsys, "search", *argv, "--format", "json")
        assert code == 0
        [check] = [c for c in json.loads(out)["checks"] if "bound=" in c["id"]]
        assert counts in check["details"]

    def test_text_footer_counts_pass_and_fail(self, capsys):
        # one bound check and six point checks; checks only pass or fail
        code, out = run(capsys, "search", "--curve", "k1", "--bound", "2")
        assert code == 0
        assert out.splitlines()[-1].startswith("  7 pass, 0 fail  (")

    def test_missing_bound_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            main(["search", "--curve", "ks"])
        assert ei.value.code == 2

    def test_zero_height_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            main(["search", "--curve", "ks", "--bound", "0"])
        assert ei.value.code == 2


@pytest.mark.parametrize("mantissa, ok", [
    (255, True), (-255, True), (256, False), (-256, False), (0, True)])
def test_selftest_verdict_is_the_defect_below_2_to_8_units(mantissa, ok,
                                                          monkeypatch):
    # |defect| < 2^-(p - 8) at precision p, with the radius left out
    monkeypatch.setattr(cli, "weber_product_selftest",
                        lambda p: FixedReal(mantissa, p, 1 << 20))
    report = cli.Report("selftest")
    cli.checks_selftest(report)
    assert [c.status for c in report.checks] == ["pass" if ok else "fail"] * 3
    assert ok == all(abs(Fraction(mantissa, 1 << p)) < Fraction(1, 1 << (p - 8))
                     for p in cli.SELFTEST_BITS)


class TestReport:
    def test_full_battery(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "report", "--height", "30", "--box", "20",
                      "--format", "json", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        jsonschema.validate(data, load_schema())
        assert all(c["status"] == "pass" for c in data["checks"])
        ids = {c["id"] for c in data["checks"]}
        assert "singular:K3" in ids
        assert any(i.startswith("selftest:product") for i in ids)
        assert any(i.startswith("tower:d=163") for i in ids)

    def test_deterministic_apart_from_timing(self, capsys):
        _, out1 = run(capsys, "verify-maps", "--format", "json")
        _, out2 = run(capsys, "verify-maps", "--format", "json")
        d1, d2 = json.loads(out1), json.loads(out2)
        for d in (d1, d2):
            d.pop("timestamp")
            d.pop("elapsed_seconds")
        assert d1 == d2


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as ei:
            main(["verify-points", "--format", "xml"])
        assert ei.value.code == 2

    def test_parser_builds(self):
        assert build_parser().prog == "curveatlas"

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        used = []
        parse = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda ap, *a, **k: used.append(ap) or parse(ap, *a, **k))
        for _ in range(2):
            assert main(["verify-points"]) == 0
        assert len(used) == 2 and used[0] is used[1]


def test_cli_import_does_not_load_sympy():
    # sympy and numpy are test-only dependencies; the package runs on the
    # standard library alone, and each import costs start-up time
    src = str(Path(curveatlas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, curveatlas.cli; "
            "print([m for m in ('sympy', 'numpy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
