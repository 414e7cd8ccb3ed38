"""CLI: subcommands, exit codes, file round-trips, generator determinism."""

import json

import pytest

from monocover.cli import main
from monocover.covers import parse_cover
from monocover.graphs import format_colouring, parse_colouring


def run(*argv):
    return main(list(argv))


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    assert run("gen", "random-uniform", "--n", "10", "--k", "4",
               "--seed", "1", "-o", str(a)) == 0
    assert run("gen", "random-uniform", "--n", "10", "--k", "4",
               "--seed", "1", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_roundtrips_through_parser(tmp_path):
    cases = [
        ("layered-adversarial", "--seed", "5"),
        ("random-uniform", "--n", "9", "--k", "3", "--seed", "2"),
        ("sharpness-x",),
        ("section5-example", "--n", "3", "--seed", "1"),
    ]
    for i, case in enumerate(cases):
        out = tmp_path / f"x{i}.col"
        assert run("gen", *case, "-o", str(out)) == 0
        text = out.read_text()
        assert format_colouring(parse_colouring(text)) == text


def test_gen_section5(tmp_path):
    out = tmp_path / "s5.col"
    assert run("gen", "section5-example", "--n", "2", "--seed", "3",
               "-o", str(out)) == 0
    col = parse_colouring(out.read_text())
    assert col.n == 8 and col.k == 3 and len(col.host.missing) == 3


def test_solve_and_verify_flow(tmp_path):
    col_path = tmp_path / "g.col"
    cov_path = tmp_path / "g.cov"
    trace_path = tmp_path / "g.json"
    run("gen", "random-uniform", "--n", "15", "--k", "4", "--seed", "2",
        "-o", str(col_path))
    code = run("solve", "--k4", str(col_path), "-o", str(cov_path),
               "--trace", str(trace_path))
    assert code == 0
    cover = parse_cover(cov_path.read_text())
    assert len(cover.parts) <= 3
    trace = json.loads(trace_path.read_text())
    assert trace["valid"] is True
    assert trace["branch"] != "ConnectivityFallback"
    assert run("verify", str(col_path), str(cov_path)) == 0


def test_verify_detects_invalid(tmp_path):
    col_path = tmp_path / "g.col"
    cov_path = tmp_path / "bad.cov"
    run("gen", "random-uniform", "--n", "6", "--k", "2", "--seed", "1",
        "-o", str(col_path))
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")
    assert run("verify", str(col_path), str(cov_path)) == 2


def test_solve_lemma_2cols(tmp_path, capsys):
    col_path = tmp_path / "two.col"
    run("gen", "random-uniform", "--n", "6", "--k", "2", "--seed", "4",
        "-o", str(col_path))
    assert run("solve", "--lemma", "2cols", str(col_path)) == 0
    out = capsys.readouterr().out
    assert "colour" in out


def test_layers_table(tmp_path, capsys):
    col_path = tmp_path / "g.col"
    run("gen", "random-uniform", "--n", "8", "--k", "4", "--seed", "9",
        "-o", str(col_path))
    assert run("layers", "build", str(col_path), "--c1", "1", "--c2", "2",
               "--seed", "0,3") == 0
    out = capsys.readouterr().out
    assert out.startswith("D1 D2 size")


def test_grid_commands(tmp_path, capsys):
    pts = tmp_path / "p.pts"
    pts.write_text("3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 0 1\n0 1 1\n")
    assert run("grid", "cover", str(pts)) == 0
    quad = tmp_path / "q.pts"
    quad.write_text("3\n0 0 0\n1 1 0\n1 0 1\n0 1 1\n")
    assert run("grid", "classify", str(quad)) == 0
    assert "Struct2" in capsys.readouterr().out
    assert run("grid", "search", "--l", "2", "--m", "3", "--mode", "path") == 0
    assert run("grid", "search", "--l", "3", "--m", "4", "--mode", "path",
               "--budget", "10") == 3


def test_convert_roundtrip(tmp_path):
    pts = tmp_path / "p.pts"
    pts.write_text("3\n0 0 0\n1 1 1\n2 0 1\n")
    col_path = tmp_path / "c.col"
    back = tmp_path / "b.pts"
    assert run("convert", "points2col", str(pts), str(col_path)) == 0
    assert run("convert", "col2points", str(col_path), str(back)) == 0
    # signatures relabel the coordinates but keep the shape: parse both
    from monocover.grid import parse_points
    assert len(parse_points(back.read_text()).points) == 3


def test_oracle_scan_cli(capsys):
    assert run("oracle", "scan", "--n", "4", "--k", "2", "--bound", "3",
               "--parts", "1") == 0
    out = capsys.readouterr().out
    assert "witnesses             0" in out


def test_oracle_scan_incomplete():
    assert run("oracle", "scan", "--n", "4", "--k", "2", "--bound", "3",
               "--parts", "1", "--limit", "3") == 3


def test_malformed_colouring_is_rejected_in_one_line(tmp_path, capsys):
    col_path = tmp_path / "bad.col"
    col_path.write_text("3 2\n0 1 1\n0 2 x\n1 2 1\n")
    assert run("solve", str(col_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("monocover: error: ") and err.count("\n") == 1
    assert run("verify", str(tmp_path / "absent.col"), str(col_path)) == 4
    assert capsys.readouterr().err.startswith("monocover: error: ")


def test_malformed_cover_is_rejected_in_one_line(tmp_path, capsys):
    col_path = tmp_path / "g.col"
    cov_path = tmp_path / "bad.cov"
    run("gen", "random-uniform", "--n", "6", "--k", "2", "--seed", "1",
        "-o", str(col_path))
    cov_path.write_text("parts=2 bound=1\n1: 0 1\n")
    assert run("verify", str(col_path), str(cov_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("monocover: error: ") and err.count("\n") == 1
