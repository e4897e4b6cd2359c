"""End-to-end command-line runs: every exit code path and report determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from fingeo import linalg
from fingeo.geometry import bits_of
from fingeo.gf import gf, identity_hom
from fingeo.projective import SemilinearMap, build_pg
from fingeo.serialize import dump_json, load_geometry, save_geometry, save_map_pairs


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "fingeo", *args],
        capture_output=True,
        text=True,
    )
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def strip_timing(text):
    data = json.loads(text)
    data.pop("elapsed_s", None)
    return json.dumps(data, sort_keys=True)


def test_make_example_and_counts(tmp_path):
    out = tmp_path / "eq.json"
    proc = run_cli("make-example", "--name", "elliptic-quadric", "--field", "gf(3)", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["points"] == 10
    G = load_geometry(out)
    assert G.n_points == 10


def test_make_example_affine_gf4(tmp_path):
    out = tmp_path / "ag.json"
    proc = run_cli("make-example", "--name", "affine", "--field", "gf(4)", "--dim", "3", "--out", str(out))
    assert proc.returncode == 0
    assert report_of(proc)["points"] == 64


def test_make_example_size_limit_exit_3(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli("make-example", "--name", "elliptic-quadric", "--field", "gf(17)", "--out", str(out))
    assert proc.returncode == 3


def test_abstract_geometry_beyond_desk_scale_exit_3(tmp_path):
    """An abstract geometry file is capped at the point count of the largest
    projective space built (PG_MAX_POINTS): one more point is refused with
    exit 3 before any flat is read, as an embedded file beyond desk scale."""
    from fingeo.projective import PG_MAX_POINTS

    for n, code in ((PG_MAX_POINTS, 1), (PG_MAX_POINTS + 1, 3), (10**9, 3)):
        path = tmp_path / f"abstract{n}.json"
        path.write_text(json.dumps({"points": n, "flats": [] if code == 1 else [[n + 5]]}))
        proc = run_cli("check", "--axioms", "g", "--geometry", str(path))
        assert proc.returncode == code, n
        if code == 3:
            assert proc.stdout == "" and "beyond desk scale" in proc.stderr


def test_make_example_bad_args_exit_2(tmp_path):
    proc = run_cli("make-example", "--name", "not-a-thing", "--field", "gf(3)", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    proc = run_cli("make-example", "--name", "affine", "--field", "whatever", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert list(tmp_path.iterdir()) == []


def test_example_names_are_the_gallery_names():
    """The CLI keeps its own copy of the --name choices, so that the other
    commands never run the gallery."""
    from fingeo import cli, gallery

    assert cli.EXAMPLE_NAMES == gallery.EXAMPLE_NAMES


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["make-example", "quotient", "reconstruct"])
def test_unwritable_out_exit_2(tmp_path, command, where):
    """An --out that cannot be written is malformed input: exit 2 with an
    error line, no traceback, no report and no file."""
    geo, idmap = tmp_path / "pg.json", tmp_path / "id.json"
    P = build_pg(2, 2)
    save_geometry(P, geo)
    save_map_pairs([(v, v) for v in P.vectors], idmap)
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    argv = {
        "make-example": ["make-example", "--name", "projective", "--field", "gf(2)"],
        "quotient": ["quotient", "--geometry", str(geo), "--flat", "0"],
        "reconstruct": ["reconstruct", "--geometry", str(geo), "--map", str(idmap), "--kind", "pg"],
    }[command]
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {out}: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["id.json", "pg.json"]


# each command with one option it does not read; the seventh case leaves
# out make-example's required --out
IGNORED_OPTIONS = [
    ("make-example", "--name", "affine", "--field", "gf(2)", "--out", "x.json", "--seed", "1"),
    ("check", "--axioms", "g", "--geometry", "g.json", "--limit", "5"),
    ("classify", "--geometry", "g.json", "--out", "x.json"),
    ("quotient", "--geometry", "g.json", "--witnesses"),
    ("reconstruct", "--geometry", "g.json", "--map", "m.json", "--kind", "lp", "--seed", "1"),
    ("oracle", "--geometry", "g.json", "--map", "m.json", "--out", "x.json"),
    ("make-example", "--name", "affine", "--field", "gf(2)"),
    ("classify", "--geometry", "g.json", "--limit", "5"),
    ("classify", "--geometry", "g.json", "--seed", "1"),
]


@pytest.mark.parametrize("argv", IGNORED_OPTIONS, ids=[" ".join(a) for a in IGNORED_OPTIONS])
def test_option_a_command_does_not_read_exit_2(tmp_path, argv):
    proc = run_cli(*(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_check_geometry_axioms_pass(tmp_path):
    out = tmp_path / "pg.json"
    run_cli("make-example", "--name", "projective", "--field", "gf(2)", "--dim", "3", "--out", str(out))
    proc = run_cli("check", "--axioms", "g", "--geometry", str(out))
    assert proc.returncode == 0
    assert report_of(proc)["report"]["all_pass"]


def test_check_exchange_failure_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        dump_json({"points": 4, "flats": [[], [0], [1], [2], [3], [0, 1, 2], [0, 1, 2, 3]]})
    )
    proc = run_cli("check", "--axioms", "g", "--geometry", str(bad), "--witnesses")
    assert proc.returncode == 1
    rep = report_of(proc)
    assert rep["report"]["g3"] is False
    assert "between" in rep["report"]["witnesses"]["g3"]


def test_check_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    proc = run_cli("check", "--axioms", "g", "--geometry", str(bad))
    assert proc.returncode == 2


def test_classify_quadric(tmp_path):
    out = tmp_path / "eq.json"
    run_cli("make-example", "--name", "elliptic-quadric", "--field", "gf(3)", "--out", str(out))
    proc = run_cli(
        "classify",
        "--geometry",
        str(out),
        "--ambient",
        "pg(3,3)",
        "--predicate",
        "mobius,ovoid,locally_affino_projective",
    )
    assert proc.returncode == 0
    preds = report_of(proc)["classification"]["predicates"]
    assert preds["mobius"]["verdict"] is True
    assert preds["ovoid"]["verdict"] is True
    assert preds["locally_affino_projective"]["verdict"] is True


def test_classify_ambient_mismatch_exit_2(tmp_path):
    out = tmp_path / "eq.json"
    run_cli("make-example", "--name", "elliptic-quadric", "--field", "gf(3)", "--out", str(out))
    proc = run_cli("classify", "--geometry", str(out), "--ambient", "pg(3,4)")
    assert proc.returncode == 2


def run_cli_on_closed_pipe(*args):
    """Run the CLI with stdout on a pipe whose read end is closed before the
    child starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "fingeo", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "command, code",
    [
        (("quotient", "--flat", "0"), 0),
        (("check", "--axioms", "p", "--witnesses"), 1),
        (("classify", "--witnesses"), 1),
    ],
    ids=["small-report", "negative-verdict", "report-beyond-buffer"],
)
def test_closed_stdout_keeps_exit_code(tmp_path, cone_33, command, code):
    geo = tmp_path / "cone.json"
    save_geometry(cone_33, geo)
    args = (command[0], "--geometry", str(geo), *command[1:])
    open_run = run_cli(*args)
    assert open_run.returncode == code
    if command[0] == "classify":
        assert len(open_run.stdout) > io.DEFAULT_BUFFER_SIZE
    closed_run = run_cli_on_closed_pipe(*args)
    assert closed_run.returncode == code
    assert "Traceback" not in closed_run.stderr
    assert "Exception ignored" not in closed_run.stderr


def test_quotient_command(tmp_path):
    out = tmp_path / "pg.json"
    run_cli("make-example", "--name", "projective", "--field", "gf(2)", "--dim", "3", "--out", str(out))
    proc = run_cli("quotient", "--geometry", str(out), "--flat", "0")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["quotient_points"] == 7
    assert rep["quotient_dim"] == 2


@pytest.mark.parametrize("rows, classes", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1], [2]]),
    # in file order point 0 would be (1, 0, 0), on the line of the first
    # three rows, and the classes [[1, 2], [3]]
    ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [[1], [2], [3]]),
])
def test_embedded_points_are_numbered_in_pg_order(tmp_path, rows, classes):
    """An embedded geometry's points are numbered in PG(n, q) order, not in
    file order: point 0 is (0, 0, 1), the last row."""
    path = tmp_path / "points.json"
    dump_json({"field": "gf(2)", "ambient_dim": 2, "points": rows}, path)
    assert load_geometry(path).vectors[0] == (0, 0, 1)
    proc = run_cli("quotient", "--geometry", str(path), "--flat", "0")
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["classes"] == classes


def test_embedded_repeated_points_are_merged(tmp_path):
    """A row that repeats a point, or a scalar multiple of one, is the same
    point: (2, 0, 0) is (1, 0, 0) over gf(3)."""
    path = tmp_path / "points.json"
    rows = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    dump_json({"field": "gf(3)", "ambient_dim": 2, "points": rows}, path)
    assert load_geometry(path).n_points == 4
    proc = run_cli("check", "--axioms", "g", "--geometry", str(path))
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["report"]["all_pass"]


@pytest.mark.parametrize("kind", ["coordinate", "table"])
def test_quotient_out_writes_the_table_format(tmp_path, capsys, kind):
    """quotient --out writes the quotient's flats as a table geometry, the
    same bytes as the {"points", "flats"} document built by hand."""
    from fingeo import cli
    from fingeo.geometry import TableGeometry, quotient

    G = build_pg(3, 2)
    if kind == "table":
        G = TableGeometry(G.n_points, G.flats())
    geo, out = tmp_path / "g.json", tmp_path / "q.json"
    save_geometry(G, geo)
    assert cli.main(["quotient", "--geometry", str(geo), "--flat", "0,1,2", "--out", str(out)]) == 0
    capsys.readouterr()
    Q, _ = quotient(G, G.closure([0, 1, 2]))
    table = {
        "points": Q.n_points,
        "flats": [list(bits_of(m)) for m in Q.flats()],
    }
    assert out.read_text() == dump_json(table) + "\n"
    assert load_geometry(out).flats() == Q.flats()


def test_check_p_reports_veblen_young_off_the_middle_vertex(tmp_path, capsys):
    """The point quotient of cone(3,2) at 0, saved by quotient --out: the
    line {2, 4} meets both sides through 0 of the triangle 0, 1, 3 and
    misses the side {1, 3}, so P3 fails with the vertex in the middle."""
    from fingeo import cli

    cone, quo = tmp_path / "cone.json", tmp_path / "quotient.json"
    assert cli.main(["make-example", "--name", "cone", "--field", "gf(2)", "--out", str(cone)]) == 0
    assert cli.main(["quotient", "--geometry", str(cone), "--flat", "0", "--out", str(quo)]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--axioms", "p", "--geometry", str(quo), "--witnesses"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["p1"] and report["p2"] and report["p3"] is False
    assert report["witnesses"]["p3"] == {"triangle": [1, 0, 3], "line": [2, 4]}


QUADRICS = ("elliptic-quadric", "hyperbolic-quadric", "cone")


@pytest.mark.parametrize("name", QUADRICS)
def test_quadric_off_dimension_3_exit_3(tmp_path, capsys, name):
    """A quadric lives in PG(3, q): --dim 3 is the default and any other
    dimension is refused with exit 3 and no file."""
    from fingeo import cli

    base = ["make-example", "--name", name, "--field", "gf(3)", "--out"]
    assert cli.main(base + [str(tmp_path / "default.json")]) == 0
    assert cli.main(base + [str(tmp_path / "dim3.json"), "--dim", "3"]) == 0
    assert (tmp_path / "dim3.json").read_bytes() == (tmp_path / "default.json").read_bytes()
    for dim in ("2", "4"):
        capsys.readouterr()
        assert cli.main(base + [str(tmp_path / f"dim{dim}.json"), "--dim", dim]) == 3
        assert "ambient PG(3, q)" in capsys.readouterr().err
        assert not (tmp_path / f"dim{dim}.json").exists()


@pytest.mark.parametrize("flat", ["999", "-1", "0,15"])
@pytest.mark.parametrize("kind", ["coordinate", "table"])
def test_quotient_flat_index_out_of_range_exit_2(tmp_path, kind, flat):
    geo = tmp_path / "g.json"
    if kind == "coordinate":
        save_geometry(build_pg(3, 2), geo)  # points 0..14
    else:
        geo.write_text(dump_json({"points": 3, "flats": [[], [0], [1], [2], [0, 1, 2]]}))
    proc = run_cli("quotient", "--geometry", str(geo), "--flat", flat)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "outside" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "example, field, flat, repeated",
    [
        ("projective", "gf(2)", "0,0", "[0]"),
        ("elliptic-quadric", "gf(3)", "0,1,1", "[1]"),
        ("elliptic-quadric", "gf(3)", "1,0,1,0", "[0, 1]"),
    ],
)
def test_quotient_flat_repeated_index_exit_2(tmp_path, capsys, example, field, flat, repeated):
    """A repeated index is named as such, not reported as a set whose
    closure adds points: a point is a flat, and so is {0, 1}, a secant line
    of the GF(3) ovoid."""
    from fingeo import cli

    geo = str(tmp_path / "g.json")
    assert cli.main(["make-example", "--name", example, "--field", field, "--out", geo, "--dim", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["quotient", "--geometry", geo, "--flat", flat]) == 2
    captured = capsys.readouterr()
    assert f"repeated flat points {repeated}" in captured.err
    assert "not a flat" not in captured.err
    assert captured.out == ""
    distinct = ",".join(sorted(set(flat.split(","))))
    assert cli.main(["quotient", "--geometry", geo, "--flat", distinct]) == 0


def test_reconstruct_round_trip_and_determinism(tmp_path):
    geo = tmp_path / "ag.json"
    run_cli("make-example", "--name", "affine", "--field", "gf(3)", "--dim", "3", "--out", str(geo))
    G = load_geometry(geo)
    K = gf(3)
    gen = SemilinearMap(identity_hom(K), ((1, 0, 2, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1)))
    assert linalg.rank(K, gen.matrix) == 4
    pairs = []
    for v in G.vectors:
        img = linalg.normalize_vec(K, gen.apply_vec(v))
        pairs.append((v, img))
    mapfile = tmp_path / "phi.json"
    save_map_pairs(pairs, mapfile)
    outfile = tmp_path / "result.json"
    proc = run_cli(
        "reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "lp",
        "--out", str(outfile),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(outfile.read_text())
    got = tuple(tuple(r) for r in result["matrix"])
    assert got == gen.canonical().matrix
    assert result["certificate"]["sigma_power"] == 0
    # determinism: identical bytes modulo timing
    proc2 = run_cli(
        "reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "lp",
        "--out", str(outfile),
    )
    assert strip_timing(proc.stdout) == strip_timing(proc2.stdout)


def test_reconstruct_field_clause_exit_1(tmp_path):
    geo = tmp_path / "ag2.json"
    run_cli("make-example", "--name", "affine", "--field", "gf(2)", "--dim", "3", "--out", str(geo))
    G = load_geometry(geo)
    K = gf(2)
    pairs = [(v, v) for v in G.vectors]
    mapfile = tmp_path / "phi.json"
    save_map_pairs(pairs, mapfile)
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "ap")
    assert proc.returncode == 1
    assert report_of(proc)["failure"] == "FieldClauseViolated"


def test_reconstruct_kind_pg(tmp_path):
    geo = tmp_path / "pg.json"
    run_cli("make-example", "--name", "projective", "--field", "gf(2)", "--dim", "3", "--out", str(geo))
    P = build_pg(3, 2)
    K = gf(2)
    gen = SemilinearMap(identity_hom(K), ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    pairs = [(v, linalg.normalize_vec(K, gen.apply_vec(v))) for v in P.vectors]
    mapfile = tmp_path / "phi.json"
    save_map_pairs(pairs, mapfile)
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "pg")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert tuple(map(tuple, rep["reconstruction"]["matrix"])) == gen.canonical().matrix


def test_oracle_command_and_cap(tmp_path):
    geo = tmp_path / "pg.json"
    run_cli("make-example", "--name", "projective", "--field", "gf(2)", "--dim", "3", "--out", str(geo))
    P = build_pg(3, 2)
    pairs = [(v, v) for v in P.vectors]
    mapfile = tmp_path / "phi.json"
    save_map_pairs(pairs, mapfile)
    proc = run_cli("oracle", "--geometry", str(geo), "--map", str(mapfile))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["count"] == 1
    # cap exceeded -> exit 4
    proc = run_cli("oracle", "--geometry", str(geo), "--map", str(mapfile), "--limit", "100")
    assert proc.returncode == 4


def test_classify_report_deterministic(tmp_path):
    out = tmp_path / "eq.json"
    run_cli("make-example", "--name", "elliptic-quadric", "--field", "gf(3)", "--out", str(out))
    a = run_cli("classify", "--geometry", str(out), "--predicate", "mobius,ovoid")
    b = run_cli("classify", "--geometry", str(out), "--predicate", "mobius,ovoid")
    assert strip_timing(a.stdout) == strip_timing(b.stdout)


def _ag32_map(tmp_path):
    geo = tmp_path / "ag2.json"
    run_cli("make-example", "--name", "affine", "--field", "gf(2)", "--dim", "3", "--out", str(geo))
    pairs = [[list(v), list(v)] for v in load_geometry(geo).vectors]
    return geo, pairs


def test_reconstruct_out_of_range_element_exit_2(tmp_path):
    geo, pairs = _ag32_map(tmp_path)
    for side in (0, 1):
        bad = [[list(s), list(d)] for s, d in pairs]
        bad[3][side][0] = 7  # not an element of gf(2)
        mapfile = tmp_path / f"bad{side}.json"
        mapfile.write_text(dump_json({"pairs": bad}))
        for cmd in (("reconstruct", "--kind", "lp"), ("oracle",)):
            proc = run_cli(cmd[0], "--geometry", str(geo), "--map", str(mapfile), *cmd[1:])
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "outside gf(2)" in proc.stderr


def test_map_file_target_field_checked(tmp_path):
    geo, pairs = _ag32_map(tmp_path)
    pairs[0][1] = [4, 0, 0, 1]
    mapfile = tmp_path / "bad.json"
    mapfile.write_text(dump_json({"pairs": pairs, "target": "gf(4)"}))
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "lp")
    assert proc.returncode == 2
    assert "outside gf(4)" in proc.stderr
    mapfile.write_text(dump_json({"pairs": pairs, "target": "gf4"}))
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "lp")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_reconstruct_unmapped_points_exit_2(tmp_path):
    geo, pairs = _ag32_map(tmp_path)
    mapfile = tmp_path / "short.json"
    mapfile.write_text(dump_json({"pairs": pairs[:-2]}))
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "lp")
    assert proc.returncode == 2
    assert "2 points unmapped" in proc.stderr
    assert proc.stdout == ""


def test_reconstruct_kind_pg_on_subgeometry_exit_2(tmp_path):
    geo, pairs = _ag32_map(tmp_path)
    mapfile = tmp_path / "phi.json"
    mapfile.write_text(dump_json({"pairs": pairs}))
    proc = run_cli("reconstruct", "--geometry", str(geo), "--map", str(mapfile), "--kind", "pg")
    assert proc.returncode == 2
    assert "full projective space" in proc.stderr
    assert proc.stdout == ""


def test_oracle_limit_zero_is_used(tmp_path):
    geo = tmp_path / "pg.json"
    save_geometry(build_pg(3, 2), geo)
    mapfile = tmp_path / "phi.json"
    save_map_pairs([(v, v) for v in build_pg(3, 2).vectors], mapfile)
    proc = run_cli("oracle", "--geometry", str(geo), "--map", str(mapfile), "--limit", "0")
    assert proc.returncode == 4


@pytest.mark.parametrize(
    "command, data",
    [
        (("classify",), {"field": "gf(2)", "ambient_dim": 3, "points": []}),
        (("check", "--axioms", "g"), {"points": 0, "flats": [[]]}),
    ],
)
def test_zero_point_geometry_exit_2(tmp_path, command, data):
    geo = tmp_path / "empty.json"
    geo.write_text(dump_json(data))
    proc = run_cli(*command, "--geometry", str(geo))
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert "point" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "data",
    [
        {"points": 3, "flats": 5},
        {"field": "gf(2)", "ambient_dim": 3, "points": 5},
        {"points": 3, "flats": [3]},
        {"field": "gf(2)", "ambient_dim": -1, "points": [[1]]},
        {"field": "gf(2)", "ambient_dim": 1, "points": [[True, 0], [0, 1]]},
        {"field": "gf(2)", "ambient_dim": 2.9, "points": [[1, 0, 0], [0, 1, 0]]},
        {"field": "gf(2)", "ambient_dim": "3", "points": [[1, 0, 0, 0]]},
        {"points": True, "flats": [[0]]},
        {"field": 5, "ambient_dim": 2, "points": [[1, 0, 0]]},
        {"field": None, "ambient_dim": 2, "points": [[1, 0, 0]]},
        {"field": True, "ambient_dim": 2, "points": [[1, 0, 0]]},
        {"field": [], "ambient_dim": 2, "points": [[1, 0, 0]]},
        {"field": {}, "ambient_dim": 2, "points": [[1, 0, 0]]},
        {"pairs": [[[1, 0, 0], [1, 0, 0]]], "target": 4},
    ],
    ids=[
        "flats-not-list",
        "points-not-list",
        "flat-not-list",
        "ambient-dim-range",
        "bool-coordinate",
        "ambient-dim-float",
        "ambient-dim-string",
        "point-count-bool",
        "field-int",
        "field-null",
        "field-bool",
        "field-list",
        "field-object",
        "map-target-int",
    ],
)
def test_malformed_geometry_shape_exit_2(tmp_path, data):
    """A geometry file for check, or a map file for a pg reconstruction on
    PG(2,2); a field designator that is not a string is named as such."""
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(data))
    if "pairs" in data:
        geo = tmp_path / "geo.json"
        geo.write_text(dump_json(EMBEDDED))
        proc = run_cli("reconstruct", "--kind", "pg", "--geometry", str(geo), "--map", str(bad))
    else:
        proc = run_cli("check", "--axioms", "g", "--geometry", str(bad))
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if not isinstance(data.get("field", data.get("target", "")), str):
        assert "bad field designator" in proc.stderr


# -- malformed-input corpus ------------------------------------------------------------

WRONG_VALUES = [None, True, 0, -1, 2.5, "x", [], [1], {}]
PG22 = [list(v) for v in build_pg(2, 2).vectors]
EMBEDDED = {"field": "gf(2)", "ambient_dim": 2, "points": PG22}
TABLE = {"points": 7, "flats": [list(bits_of(m)) for m in build_pg(2, 2).flats()]}
MAP_FILE = {"pairs": [[v, v] for v in PG22], "target": "gf(2)"}
# substitutions that leave a well-formed document, with their verdict code:
# a table without flats closes every set to the whole point set
WELL_FORMED = {("table", "flats", "[]"): 1}


def corpus():
    """(format, key, value, document): each wrong JSON value for each top-level
    key of each format, and for the whole document (key None)."""
    for fmt, base in (("embedded", EMBEDDED), ("table", TABLE), ("map", MAP_FILE)):
        for value in WRONG_VALUES:
            yield fmt, None, value, value
            for key in base:
                yield fmt, key, value, {**base, key: value}


def run_main(tmp_path, fmt, doc):
    """cli.main in-process on the document: the geometry of a check, or the
    map file of a pg reconstruction on PG(2,2)."""
    from fingeo import cli

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if fmt == "map":
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps(EMBEDDED))
        return cli.main(["reconstruct", "--kind", "pg", "--geometry", str(geo), "--map", str(path)])
    return cli.main(["check", "--axioms", "g", "--geometry", str(path)])


def test_malformed_corpus_base_documents_run(tmp_path, capsys):
    for fmt in ("embedded", "table", "map"):
        doc = {"embedded": EMBEDDED, "table": TABLE, "map": MAP_FILE}[fmt]
        assert run_main(tmp_path, fmt, doc) == 0, fmt
        assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "fmt, key, value, doc",
    list(corpus()),
    ids=[f"{f}-{k or 'document'}-{json.dumps(v)}" for f, k, v, _ in corpus()],
)
def test_malformed_corpus_exit_codes(tmp_path, capsys, fmt, key, value, doc):
    want = WELL_FORMED.get((fmt, key, json.dumps(value)), 2)
    assert run_main(tmp_path, fmt, doc) == want
    out, err = capsys.readouterr()
    if want == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert json.loads(out)


# -- malformed argument values ---------------------------------------------------------

# (command, option) -> malformed values: empty, a bare comma, non-numeric,
# out of range and a wrong name.  quotient's --flat keeps the empty flat as
# its default, so "" is a valid value there.  argparse reads oracle's --limit
# as an int, so only a negative cap is left to the command.
ARGUMENT_VALUES = {
    ("quotient", "--flat"): [",", "x", "999", "0,,1"],
    ("classify", "--ambient"): ["", ",", "pg(x,2)", "pg(9,2)", "gf(2)"],
    ("classify", "--predicate"): ["", ",", "7", "mobius,", "lp_axiom"],
    ("reconstruct", "--target"): ["", ",", "gf(x)", "gf(0)", "gf4"],
    ("oracle", "--target"): ["", ",", "gf(x)", "gf(0)", "gf4"],
    ("oracle", "--limit"): ["-1", "-5"],
}


def argument_corpus():
    for (command, option), values in ARGUMENT_VALUES.items():
        for value in values:
            yield command, option, value


@pytest.mark.parametrize(
    "command, option, value",
    list(argument_corpus()),
    ids=[f"{c}{o}={json.dumps(v)}" for c, o, v in argument_corpus()],
)
def test_malformed_argument_values_exit_2(tmp_path, capsys, command, option, value):
    """cli.main in-process on PG(2,2) and its identity map; the command
    runs without the option (quotient with the empty flat)."""
    from fingeo import cli

    geo, mapfile = tmp_path / "geo.json", tmp_path / "map.json"
    geo.write_text(json.dumps(EMBEDDED))
    mapfile.write_text(json.dumps(MAP_FILE))
    argv = [command, "--geometry", str(geo)]
    if command in ("reconstruct", "oracle"):
        argv += ["--map", str(mapfile)]
    if command == "reconstruct":
        argv += ["--kind", "pg"]
    assert cli.main(argv + ([option, ""] if command == "quotient" else [])) in (0, 1)
    capsys.readouterr()
    assert cli.main(argv + [option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err
