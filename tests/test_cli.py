"""CLI: subcommands, exit codes, file round-trips, generator determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import monocover
from monocover import graphs
from monocover.cli import main
from monocover.covers import parse_cover
from monocover.generators import random_uniform
from monocover.graphs import format_colouring, parse_colouring
from monocover.layers import build_layer_mapping
from test_twocolour import (bipartite_colouring, multipartite_colouring,
                            no_outcome_bipartite, no_spanning_multipartite)


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


def lemma_run(tmp_path, capsys, lemma, colouring):
    """``solve --lemma`` on the colouring: (exit code, stdout, stderr)."""
    path = tmp_path / "lemma.col"
    path.write_text(format_colouring(colouring))
    code = run("solve", "--lemma", lemma, str(path))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_lemma_bipartite_outcomes(tmp_path, capsys):
    mono = bipartite_colouring(3, 3, lambda u, v: 1)
    assert lemma_run(tmp_path, capsys, "2colsbip", mono) == (
        0, "mono-spanning colour 1 diameter 2\n", "")
    aligned = {(0, 2), (1, 3)}
    blocks = bipartite_colouring(2, 2, lambda u, v: 1 if (u, v) in aligned else 2)
    assert lemma_run(tmp_path, capsys, "2colsbip", blocks) == (
        0, "split colour_aa 1\n  A1: 0\n  B1: 1\n  A2: 2\n  B2: 3\n", "")


def test_solve_lemma_multipartite_colour(tmp_path, capsys):
    col = multipartite_colouring([2, 2, 2], lambda u, v: 1)
    assert lemma_run(tmp_path, capsys, "mult2col", col) == (
        0, "colour 1 bound 20 diameter 2\n", "")


@pytest.mark.parametrize("lemma, colouring", [
    ("2colsbip", no_outcome_bipartite), ("mult2col", no_spanning_multipartite)])
def test_solve_lemma_without_outcome_exits_3(tmp_path, capsys, lemma, colouring):
    code, out, err = lemma_run(tmp_path, capsys, lemma, colouring())
    assert code == 3 and out == ""
    assert err.startswith("monocover: no outcome: ") and err.count("\n") == 1


def test_layers_table(tmp_path, capsys):
    col_path = tmp_path / "g.col"
    run("gen", "random-uniform", "--n", "8", "--k", "4", "--seed", "9",
        "-o", str(col_path))
    assert run("layers", "build", str(col_path), "--c1", "1", "--c2", "2",
               "--seed", "0,3") == 0
    out = capsys.readouterr().out
    assert out.startswith("D1 D2 size")
    rows = [tuple(map(int, line.split())) for line in out.splitlines()[1:]]
    assert sum(size for _, _, size in rows) == 8
    lm = build_layer_mapping(parse_colouring(col_path.read_text()), 1, 2,
                             seeds=[0, 3])
    assert [(d1, d2) for d1, d2, _ in rows] == list(lm.points)
    for d1, d2, size in rows:
        assert size == sum(lm.coords[v] == (d1, d2) for v in range(8))
    # seed tokens are read as the file parsers read numbers
    for seeds in ("1_0", "+2", "0,,3"):
        assert run("layers", "build", str(col_path), "--c1", "1", "--c2", "2",
                   "--seed", seeds) == 4
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("monocover: error: ")
        assert out.err.count("\n") == 1


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


def test_gen_from_points_matches_sharpness_x(tmp_path):
    pts = tmp_path / "sharp.pts"
    pts.write_text("3\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 0 1\n0 1 1\n")
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    assert run("gen", "from-points", "--points", str(pts), "-o", str(a)) == 0
    assert run("gen", "sharpness-x", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_grid_cover_and_classify_print_their_parts(tmp_path, capsys):
    pair = tmp_path / "pair.pts"
    pair.write_text("3\n0 0 0\n1 1 1\n")
    assert run("grid", "cover", str(pair)) == 0
    assert "connected: 0,0,0 1,1,1\n" in capsys.readouterr().out
    plane = tmp_path / "plane.pts"
    plane.write_text("3\n" + "".join(f"0 {i} {i}\n" for i in range(5)))
    assert run("grid", "classify", str(plane)) == 0
    assert capsys.readouterr().out == "Coplanar5(axis=0, value=0)\n"


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


@pytest.mark.parametrize("flags", [
    "--n 12 --k 4 --parts 0 --random 1",
    "--n 12 --k 4 --parts 3 --bound -5 --random 1",
    "--n 4 --k 3 --parts 2 --bound -1",
    "--n 4 --k 3 --parts 2 --random -3",
    "--n 4 --k 3 --parts 2 --limit -1",
    "--n 3 --k 0 --bound 3 --parts 1",
    "--n 3 --k -1 --bound 3 --parts 1",
    "--n 4 --k 0 --parts 2 --random 1",
])
def test_oracle_scan_rejects_unusable_input(flags, capsys):
    # Checked before either sampler runs: no instance is scanned.
    assert run("oracle", "scan", *flags.split()) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("monocover: error: ")


@pytest.mark.parametrize("flags, message", [
    (("--bound", "-1"), "bound must be a nonnegative integer or inf"),
    (("--max-parts", "0"), "max_parts must be at least 1"),
], ids=["bound", "max-parts"])
def test_verify_rejects_unusable_flags(tmp_path, capsys, flags, message):
    col_path = tmp_path / "g.col"
    cov_path = tmp_path / "g.cov"
    run("gen", "random-uniform", "--n", "6", "--k", "2", "--seed", "1",
        "-o", str(col_path))
    cov_path.write_text("parts=1 bound=5\n1: 0 1 2 3 4 5\n")
    assert run("verify", str(col_path), str(cov_path), *flags) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"monocover: error: {message}\n"


def test_malformed_colouring_is_rejected_in_one_line(tmp_path, capsys):
    col_path = tmp_path / "bad.col"
    col_path.write_text("3 2\n0 1 1\n0 2 x\n1 2 1\n")
    assert run("solve", str(col_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("monocover: error: ") and err.count("\n") == 1
    assert run("verify", str(tmp_path / "absent.col"), str(col_path)) == 4
    assert capsys.readouterr().err.startswith("monocover: error: ")


def test_fault_in_the_last_chunk_is_quoted(tmp_path, capsys):
    # A colouring file several parser chunks long whose one fault is on
    # its last line: the error names that line.
    col_path, cov_path = tmp_path / "big.col", tmp_path / "big.cov"
    lines = format_colouring(random_uniform(400, 4, 3)).splitlines(keepends=True)
    lines[-1] = "398 399 x\n"
    col_path.write_text("".join(lines))
    assert col_path.stat().st_size > 2 * graphs._CHUNK
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")
    assert run("verify", str(col_path), str(cov_path)) == 4
    assert capsys.readouterr().err == (
        "monocover: error: bad token 'x' in line: '398 399 x'\n")


@pytest.mark.parametrize("at, bad", [(100, b"\xff"), (700_000, b"\xff"),
                                     (2 * graphs._CHUNK - 1, b"\xe2\x82"),
                                     (None, b"\xc3")],
                         ids=["first-block", "later-block", "two-bytes", "cut-short-at-end"])
def test_undecodable_colouring_names_its_file_offset(tmp_path, capsys, at, bad):
    # The file is decoded a block at a time, but the message gives the
    # offset in the whole file, as a decode of all its bytes does.
    data = format_colouring(random_uniform(400, 4, 3)).encode()
    at = len(data) if at is None else at
    data = data[:at] + bad + data[at:]
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    col_path, cov_path = tmp_path / "bad.col", tmp_path / "c.cov"
    col_path.write_bytes(data)
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")
    assert run("verify", str(col_path), str(cov_path)) == 4
    assert capsys.readouterr().err == f"monocover: error: {exc.value}\n"


def test_undecodable_colouring_from_a_pipe(tmp_path, capsys):
    # The parser counts the bytes it has read, so a pipe's fault is named
    # at its offset, as a decode of all the bytes names it.
    fifo, cov_path = tmp_path / "fifo.col", tmp_path / "c.cov"
    os.mkfifo(fifo)
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")
    writer = threading.Thread(target=fifo.write_bytes, args=(b"3 2\n\xff\n",),
                              daemon=True)
    writer.start()
    try:
        assert run("verify", str(fifo), str(cov_path)) == 4
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().err == ("monocover: error: 'utf-8' codec can't "
                                       "decode byte 0xff in position 4: invalid start byte\n")


def test_undecodable_colouring_past_the_first_block_of_a_pipe(tmp_path, capsys):
    # A fault several blocks into a pipe is named at its offset in the
    # stream, which no seek can tell.
    data = format_colouring(random_uniform(400, 4, 3)).encode()
    data = data[:700_000] + b"\xff" + data[700_000:]
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    assert "position 700000" in str(exc.value)
    fifo, cov_path = tmp_path / "fifo.col", tmp_path / "c.cov"
    os.mkfifo(fifo)
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")

    def write():
        # the parser stops at the fault and closes the pipe
        with contextlib.suppress(BrokenPipeError):
            fifo.write_bytes(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert run("verify", str(fifo), str(cov_path)) == 4
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().err == f"monocover: error: {exc.value}\n"


def test_malformed_cover_is_rejected_in_one_line(tmp_path, capsys):
    col_path = tmp_path / "g.col"
    cov_path = tmp_path / "bad.cov"
    run("gen", "random-uniform", "--n", "6", "--k", "2", "--seed", "1",
        "-o", str(col_path))
    cov_path.write_text("parts=2 bound=1\n1: 0 1\n")
    assert run("verify", str(col_path), str(cov_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("monocover: error: ") and err.count("\n") == 1
    cov_path.write_text("parts=1 bound=1\n1: 0 999999999999999999\n")
    assert run("verify", str(col_path), str(cov_path)) == 4
    err = capsys.readouterr().err
    assert err == "monocover: error: part vertex out of range\n"


def test_gen_rejects_unusable_values_in_one_line(capsys):
    cases = [(("from-points",), "gen from-points needs --points FILE"),
             (("random-uniform", "--k", "300"),
              "k = 300 exceeds the 255 colours a byte can hold"),
             (("random-uniform", "--k", "0"), "n and k must be positive"),
             (("random-uniform", "--n", "-3"), "n and k must be positive")]
    for argv, message in cases:
        assert run("gen", *argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"monocover: error: {message}\n"


def test_rejected_gen_leaves_no_file(tmp_path, capsys):
    # The colouring is built before its output file is opened.
    out = tmp_path / "out.col"
    assert run("gen", "random-uniform", "--k", "256", "-o", str(out)) == 4
    assert capsys.readouterr().err == (
        "monocover: error: k = 256 exceeds the 255 colours a byte can hold\n")
    assert not out.exists()


def traced_peak(*argv):
    """The tracemalloc peak of one in-process command, its output dropped."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run(*argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_and_verify_never_hold_the_whole_file(tmp_path):
    # gen writes the file a row at a time and verify parses it a chunk at
    # a time, so neither peak holds the text and its copies.
    col_path, cov_path = tmp_path / "u.col", tmp_path / "u.cov"
    gen = traced_peak("gen", "random-uniform", "--n", "800", "--k", "4",
                      "--seed", "1", "-o", str(col_path))
    size = col_path.stat().st_size
    assert col_path.read_text() == format_colouring(random_uniform(800, 4, 1))
    assert gen <= 1.5 * size, gen / size
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("solve", str(col_path), "-o", str(cov_path)) == 0
    verify = traced_peak("verify", str(col_path), str(cov_path))
    assert verify <= 2.75 * size, verify / size


def test_usage_errors_exit_4_not_2(capsys):
    # 2 means verified-invalid, so a usage error must not exit with it.
    usage_errors = [("verify", "a", "b", "--bound", "x"), ("verify", "a"),
                    ("solve", "a", "--no-such-flag"), ("layers", "build", "a"),
                    ("no-such-command",), ()]
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 4, argv
        assert "error: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run("verify", "--help")
    assert exc.value.code == 0


HELP_WITHOUT_NUMPY = """
import sys
import monocover.cli
try:
    monocover.cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert "numpy" not in sys.modules, "numpy loaded"
from monocover import parse_colouring, verify_cover
from monocover import graphs, covers
assert (parse_colouring, verify_cover) == (graphs.parse_colouring, covers.verify_cover)
"""


def test_help_loads_no_numpy_and_package_names_resolve():
    # The package imports its public names on first use, so the CLI's
    # start-up and --help load no numpy; README's import still works.
    src = os.path.dirname(os.path.dirname(monocover.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", HELP_WITHOUT_NUMPY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: monocover")
    with pytest.raises(AttributeError, match="no attribute 'solve4'"):
        monocover.solve4


def test_trace_json_keeps_a_stage_witness(tmp_path, monkeypatch):
    from monocover import solver
    from monocover.errors import ImpossibleByLemmaError
    from monocover.generators import four_blocks

    def forced(colouring, n1=solver.SMALL_DIAMETER):
        raise ImpossibleByLemmaError("forced", {"replay": [1, 2, 3]})

    monkeypatch.setattr(solver, "reduce_small_diameters", forced)
    col_path, trace_path = tmp_path / "g.col", tmp_path / "g.json"
    col_path.write_text(format_colouring(four_blocks(1)))
    run("solve", str(col_path), "-o", str(tmp_path / "g.cov"),
        "--trace", str(trace_path))
    trace = json.loads(trace_path.read_text())
    stages = {s["name"]: s for s in trace["stages"]}
    assert list(stages)[:2] == ["single colour", "small-diameter reduction"]
    assert stages["single colour"]["outcome"] == "n/a"
    assert stages["small-diameter reduction"] == {
        "name": "small-diameter reduction", "outcome": "anomaly", "bfs_runs": 0,
        "anomalies": [{"message": "small-diameter reduction: forced",
                       "witness": {"replay": [1, 2, 3]}}]}
    assert trace["anomalies"][0] == "small-diameter reduction: forced"
    assert trace["branch"] != solver.BRANCH_SMALL_DIAM


@pytest.mark.parametrize("kind", [
    ("layered-adversarial", "--seed", "0"),  # LayerQuad, a 275-vertex part
    ("layered-adversarial", "--seed", "2"),  # SmallDiam
    ("layered-adversarial", "--seed", "5"),  # SingleColour, diameter 15
    ("random-uniform", "--n", "60", "--k", "4", "--seed", "1"),
])
def test_trace_part_diameters_are_the_verified_ones(tmp_path, capsys, kind):
    # solve writes each part's exact diameter into its --trace JSON; they
    # are the diameters verify prints for the same cover.
    col_path, cov_path = tmp_path / "g.col", tmp_path / "g.cov"
    trace_path = tmp_path / "g.json"
    assert run("gen", *kind, "-o", str(col_path)) == 0
    assert run("solve", "--k4", str(col_path), "-o", str(cov_path),
               "--trace", str(trace_path)) == 0
    capsys.readouterr()
    assert run("verify", str(col_path), str(cov_path)) == 0
    printed = [line.split(" diameter ")[1]
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("part ")]
    parts = json.loads(trace_path.read_text())["parts"]
    assert printed and [p["diameter"] for p in parts] == printed
