import json
import os
import subprocess
import sys

import pytest

from polytoric import build_polytope, cli
from polytoric import ehrhart as eh
from polytoric import sheaf as sh
from polytoric.cli import canonical_json, main, parse_point
from conftest import dilate_box

SQ_JSON = '{"vertices": [[0,0],[1,0],[0,1],[1,1]]}'
TRI_JSON = '{"vertices": [[0,0],[1,0],[0,1]]}'
SEG_JSON = '{"vertices": [[0],[1]]}'


@pytest.fixture
def sq_file(tmp_path):
    p = tmp_path / "sq.json"
    p.write_text(SQ_JSON)
    return str(p)


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(TRI_JSON)
    return str(p)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_faces_listing(capsys, sq_file):
    code, out, _ = run_main(capsys, "faces", "--input", sq_file)
    assert code == 0
    assert out.startswith("9 faces")


def test_faces_star_table(capsys, sq_file):
    code, out, _ = run_main(capsys, "faces", "--input", sq_file, "--star", "0,0")
    assert code == 0
    assert "star of vertex (0, 0):" in out
    assert "link of vertex (0, 0):" in out
    assert out.count("vertex") > 5


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(capsys, "faces", "--input", str(bad))
    assert code == 2
    assert "malformed JSON" in err


def test_degenerate_polytope_exits_2(capsys, tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text('{"vertices": [[0,0],[1,0],[2,0]]}')
    code, _, err = run_main(capsys, "faces", "--input", str(flat))
    assert code == 2
    assert "degenerate" in err


def test_zero_dimensional_input_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [[]]}')
    code, out, err = run_main(capsys, "faces", "--input", str(empty))
    assert code == 2 and out == ""
    assert err == "error: points need at least one coordinate\n"


OCTA_JSON = '{"vertices": [[1,0,0],[-1,0,0],[0,1,0],[0,-1,0],[0,0,1],[0,0,-1]]}'


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["faces", "--json"], "--star", "-1,0,0"),
        (["faces", "--json"], "--star", "0,-1,0"),
        (["classify", "--kind", "vis", "--json"], "--x", "-2,0,0"),
        (["classify", "--kind", "frontback", "--json"], "--x", "-1/2,1,3"),
    ],
)
def test_negative_point_coordinates_need_no_equals_sign(capsys, tmp_path, argv, option, value):
    octa = tmp_path / "octa.json"
    octa.write_text(OCTA_JSON)
    argv = argv + ["--input", str(octa)]
    spaced = run_main(capsys, *argv, option, value)
    joined = run_main(capsys, *argv, f"{option}={value}")
    assert spaced[0] == 0 and spaced[2] == ""
    assert spaced == joined


def test_missing_vertex_for_star_exits_2(capsys, sq_file):
    code, _, err = run_main(capsys, "faces", "--input", sq_file, "--star", "5,5")
    assert code == 2


def test_fractional_star_vertex_exits_2(capsys, sq_file):
    # "1/2,0" must not be truncated to the vertex (0,0)
    code, out, err = run_main(capsys, "faces", "--input", sq_file, "--star", "1/2,0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "integer" in err


def test_boolean_coordinate_exits_2(capsys, tmp_path):
    flagged = tmp_path / "bool.json"
    flagged.write_text('{"vertices": [[0,0],[true,0],[0,1]]}')
    code, _, err = run_main(capsys, "faces", "--input", str(flagged))
    assert code == 2
    assert err.count("\n") == 1 and "non-integer coordinate True" in err


@pytest.mark.parametrize("vertices", ["5", "[5, 6]", '"abc"', "[[0, 0], 5]"])
def test_vertices_not_a_list_of_coordinate_lists_exits_2(capsys, tmp_path, vertices):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"vertices": {vertices}}}')
    code, out, err = run_main(capsys, "cohomology", "--input", str(bad), "--twist", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "list of coordinate lists" in err


def test_classify_command(capsys, sq_file):
    code, out, _ = run_main(
        capsys, "classify", "--input", sq_file, "--kind", "vis", "--x", "2,2"
    )
    assert code == 0
    assert "Inv (3 faces):" in out
    assert "Vis (5 faces):" in out


def test_classify_rational_coordinates(capsys, sq_file):
    code, out, _ = run_main(
        capsys, "classify", "--input", sq_file, "--kind", "vis", "--x", "1/2,-3"
    )
    assert code == 0
    assert "Vis (3 faces):" in out


def test_classify_inside_point_exits_2(capsys, sq_file):
    code, _, err = run_main(
        capsys, "classify", "--input", sq_file, "--kind", "vis", "--x", "0,0"
    )
    assert code == 2


@pytest.mark.parametrize("kind", ["vis", "frontback", "lowup"])
@pytest.mark.parametrize("x", ["2,2,2", "1,0,0", "0,0,0", "3"])
def test_classify_point_of_wrong_dimension_exits_2(capsys, sq_file, kind, x):
    # every kind checks the length first, before its own domain test
    code, out, err = run_main(capsys, "classify", "--input", sq_file, "--kind", kind, "--x", x)
    assert code == 2 and out == ""
    assert err == "error: point has wrong dimension\n"


def test_ehrhart_command(capsys, tri_file):
    code, out, _ = run_main(capsys, "ehrhart", "--input", tri_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == ["1/1", "3/2", "1/2"]
    assert report["integral_roots"] == [-2, -1]
    assert report["splitting_index"] == 2
    assert report["reciprocity_ok"] is True


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_ehrhart_nonpositive_kmax_exits_2(capsys, tri_file, kmax):
    code, out, err = run_main(capsys, "ehrhart", "--input", tri_file, "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--kmax" in err


def test_ehrhart_over_work_budget_exits_2(capsys, tri_file):
    # the reciprocity table up to 100000 would count about 10^14 points
    code, out, err = run_main(capsys, "ehrhart", "--input", tri_file, "--kmax", "100000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "100000000 box points" in err


def test_ehrhart_on_tri5_is_refused_before_any_sweep(capsys, tmp_path, monkeypatch):
    # the triangle of legs 10^5: its reciprocity table would face 10^10 box
    # points, and the budget is read before the polynomial is counted
    def no_sweep(*args):
        raise AssertionError("dilate swept despite the budget")

    monkeypatch.setattr(eh, "line_spans", no_sweep)
    tri5 = tmp_path / "tri5.json"
    tri5.write_text('{"vertices": [[0,0],[100000,0],[0,100000]]}')
    code, out, err = run_main(capsys, "ehrhart", "--input", str(tri5))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "box points" in err


def test_verify_cohomology_on_tri5_is_refused_before_any_count(capsys, tmp_path, monkeypatch):
    # the suite reads every box budget of its twist loop before it builds the
    # Ehrhart polynomial or runs the membership certificate
    def no_work(*args):
        raise AssertionError("counted despite the budget")

    monkeypatch.setattr(eh, "count_lattice_points", no_work)
    monkeypatch.setattr(sh, "membership_certificate", no_work)
    tri5 = tmp_path / "tri5.json"
    tri5.write_text('{"vertices": [[0,0],[100000,0],[0,100000]]}')
    code, out, err = run_main(capsys, "verify", "--input", str(tri5), "--suite", "cohomology")
    assert code == 2 and out == ""
    assert err == "error: dilate box has 90000600001 points, more than the 1000000 allowed\n"


@pytest.mark.parametrize("argv", [("ehrhart",), ("verify", "--suite", "all")])
def test_huge_coordinate_exits_2_on_one_line(capsys, tmp_path, argv):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"vertices": [[0, 0], [10**30, 0], [0, 1]]}))
    code, out, err = run_main(capsys, argv[0], "--input", str(wide), *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "allowed" in err


@pytest.mark.parametrize("argv", [("ehrhart", "--json"), ("verify", "--suite", "all", "--json")])
@pytest.mark.parametrize(
    "vertices", [[[0, 0], [3, 0], [0, 2]], [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 1]]]
)
def test_one_run_sweeps_each_dilate_once_and_builds_one_polynomial(
    capsys, tmp_path, monkeypatch, argv, vertices
):
    # the run reads a fresh polytope from its file, so its table starts empty
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"vertices": vertices}))
    poly = build_polytope(vertices)
    n = poly.dim
    dilate = {}
    for k in range(-(n + 3), n + 4):
        for strict in (False, True):
            rows, box = eh._dilate_system(poly, k, strict)
            dilate[tuple(rows), tuple(map(tuple, box))] = (abs(k), strict)
    swept = []
    original_count = eh.count_lattice_points

    def counting(rows, box):
        key = dilate.get((tuple(rows), tuple(map(tuple, box))))
        if key is not None:  # verify's irredundancy sweeps are not dilates
            swept.append(key)
        return original_count(rows, box)

    builds = []

    class CountedPolynomial(eh.EhrhartPolynomial):
        def __post_init__(self):
            builds.append(self.coefficients)
            super().__post_init__()

    monkeypatch.setattr(eh, "count_lattice_points", counting)
    monkeypatch.setattr(eh, "EhrhartPolynomial", CountedPolynomial)
    code, out, _ = run_main(capsys, argv[0], "--input", str(path), *argv[1:])
    assert code == 0, out
    assert len(builds) == 1
    assert len(swept) == len(set(swept))
    # the polynomial's k = 0 .. n and the interiors of 1P .. (n+2)P at least
    assert set(swept) >= {(k, False) for k in range(n + 1)} | {(j, True) for j in range(1, n + 3)}


def test_cohomology_command(capsys, sq_file):
    code, out, _ = run_main(
        capsys,
        "cohomology",
        "--input",
        sq_file,
        "--twist",
        "-2",
        "--ring",
        "Z",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    per_degree = {row["degree"]: row["free_rank"] for row in report["perDegree"]}
    assert per_degree == {0: 0, 1: 0, 2: 1}
    assert report["contributors"] == [{"x": [-1, -1], "degree": 2}]
    assert report["shellCertified"] is True


def test_cohomology_zp_ring(capsys, sq_file):
    code, out, _ = run_main(
        capsys, "cohomology", "--input", sq_file, "--twist", "1", "--ring", "Zp:3", "--json"
    )
    assert code == 0
    assert json.loads(out)["ring"] == "Z/3"


def test_cohomology_over_work_budget_exits_2(capsys, tri_file, monkeypatch):
    # a twist of 100000 asks for a box of about 10^10 points; it must be
    # refused before a single point is enumerated
    def no_enumeration(*args):
        raise AssertionError("box enumerated despite the budget")

    monkeypatch.setattr(sh, "line_spans", no_enumeration)
    monkeypatch.setattr(sh, "_signature", no_enumeration)
    code, out, err = run_main(capsys, "cohomology", "--input", tri_file, "--twist", "100000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "10001000025 points" in err


def test_cohomology_bad_ring(capsys, sq_file):
    code, _, err = run_main(
        capsys, "cohomology", "--input", sq_file, "--twist", "1", "--ring", "Zp:4"
    )
    assert code == 2


# "\u0661\u0663" is 13 in Arabic-Indic digits, which int() would accept
@pytest.mark.parametrize(
    "tag",
    ["Zp:4", "Zp:1_3", "Zp: 3", "Zp:+13", "Zp:013", "Zp:abc", "Zp:", "Zp:\u0661\u0663", "Z/3", "z"],
)
def test_cohomology_ring_tag_is_not_coerced(capsys, tag):
    # checked before the input is read: the file does not exist, and the
    # one-line message names the tag as typed
    code, out, err = run_main(
        capsys, "cohomology", "--input", "missing.json", "--twist", "1", "--ring", tag
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"bad ring tag {tag!r}" in err


def test_cohomology_valid_ring_tags_keep_their_reports(capsys, sq_file):
    for tag, ring in (("Z", "Z"), ("Q", "Q"), ("Zp:2", "Z/2"), ("Zp:13", "Z/13")):
        code, out, _ = run_main(
            capsys, "cohomology", "--input", sq_file, "--twist", "1", "--ring", tag, "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ring"] == ring
        assert [d["free_rank"] for d in report["perDegree"]] == [4, 0, 0]


def test_one_cached_parser_serves_every_call(capsys, sq_file):
    # a parser reused across main calls must not carry state from one call
    # into the next: run the sequence twice and compare every report
    calls = [
        ("faces", "--input", sq_file, "--bogus"),
        ("--help",),
        ("faces", "--input", sq_file, "--star", "0,0", "--json"),
        ("faces", "--input", sq_file, "--json"),
        ("cohomology", "--input", sq_file, "--twist", "-1", "--json"),
        ("cohomology", "--input", sq_file, "--twist", "-1", "--json"),
    ]
    cli.build_parser.cache_clear()
    first = [run_main(capsys, *argv)[:2] for argv in calls]
    again = [run_main(capsys, *argv)[:2] for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in first] == [2, 0, 0, 0, 0, 0]
    assert again == first
    assert "star_of" in json.loads(first[2][1])
    assert "star_of" not in json.loads(first[3][1])
    assert first[5][1] == first[4][1]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import polytoric.cli\n"
        "assert built == [], built\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_verify_suites_pass(capsys, tri_file):
    for suite in ("combinatorics", "ehrhart", "classify", "cohomology"):
        code, out, _ = run_main(capsys, "verify", "--input", tri_file, "--suite", suite)
        assert code == 0, out
        assert "PASS" in out
        assert "FAIL" not in out.replace("PASS:", "")


def test_verify_all_segment(capsys, tmp_path):
    seg = tmp_path / "seg.json"
    seg.write_text(SEG_JSON)
    code, out, _ = run_main(capsys, "verify", "--input", str(seg), "--suite", "all")
    assert code == 0
    assert "PASS" in out


def test_report_roundtrip_byte_identical(capsys, sq_file):
    code, out, _ = run_main(capsys, "verify", "--input", sq_file, "--suite", "ehrhart", "--json")
    assert code == 0
    text = out.strip()
    assert canonical_json(json.loads(text)) == text


def test_reports_identical_across_runs_and_threads(capsys, monkeypatch, sq_file):
    # the thread pool is removed: the variable that opted in to it is ignored,
    # and a second run with it set gives the same report
    argv = ("verify", "--input", sq_file, "--suite", "all", "--seed", "0", "--json")
    monkeypatch.delenv("TORIC_THREADS", raising=False)
    code, plain, _ = run_main(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("TORIC_THREADS", "4")
    assert run_main(capsys, *argv)[:2] == (0, plain)


def test_thread_pool_is_serial_unless_asked_for(monkeypatch):
    # nothing asks for threads any more: every setting of the old variable is serial
    from polytoric import parallel

    for raw in (None, "0", "-2", "many", "3", "4"):
        if raw is None:
            monkeypatch.delenv("TORIC_THREADS", raising=False)
        else:
            monkeypatch.setenv("TORIC_THREADS", raw)
        assert parallel.worker_count() == 1, raw


def test_twist_face_set_not_upward_closed_is_a_fail_line(capsys, sq, sq_file, monkeypatch):
    # a membership formula that drops the top face breaks upward closure;
    # verify must report it as a FAIL, not end in a traceback
    original = sh.twist_members
    monkeypatch.setattr(
        sh, "twist_members", lambda lat, k, x: original(lat, k, x) & ~(1 << lat.top_id)
    )
    with pytest.raises(RuntimeError, match="not upward closed"):
        sh.twist_face_set(sq, 1, (-2, -2))
    code, out, _ = run_main(capsys, "verify", "--input", sq_file, "--suite", "cohomology")
    assert code == 1
    assert "FAIL twist face sets are upward closed" in out
    assert "FAIL equal facet-sign vectors give equal twist face sets" in out
    assert out.rstrip().splitlines()[-1].startswith("FAIL:")


@pytest.mark.parametrize(
    "argv", [("cohomology", "--twist", "1"), ("verify", "--suite", "cohomology")]
)
def test_failed_internal_check_exits_1_on_one_line(capsys, tri_file, monkeypatch, argv):
    # a scan box as tight as kP puts contributors on its shell, so the shell
    # check raises; that is a failed check (exit 1), not bad input or a traceback
    monkeypatch.setattr(sh, "scan_box", lambda poly, k: dilate_box(poly, k, 0))
    code, out, err = run_main(capsys, argv[0], "--input", tri_file, *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: scan shell is not acyclic\n"


def test_parse_point_rationals():
    from fractions import Fraction

    assert parse_point("1/2, -3") == (Fraction(1, 2), Fraction(-3))


def test_big_integers_serialised_as_strings():
    assert json.loads(canonical_json({"v": 2**60})) == {"v": str(2**60)}
    assert json.loads(canonical_json({"v": 3})) == {"v": 3}
