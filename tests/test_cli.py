import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rootmult import (
    automorphisms,
    build,
    chamber,
    cli,
    compute_all,
    k_naive_closed,
    naive_compute,
    oracle,
    peterson,
    preset_matrix,
)
from rootmult.metrics import PHASE_PINGPONG, PHASE_SUM, KillingCounter
from rootmult.peterson import NonIntegerMultiplicity
from rootmult.presets import tree_matrix
from helpers import CLI_ENV, HYP3, ROOTMULT, brute_real_roots, symmetrizable_gcms


def run_cli(*args, expect=0):
    proc = subprocess.run([*ROOTMULT, *args], capture_output=True, text=True,
                          env=CLI_ENV)
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


def test_a2_json_three_rows():
    proc = run_cli("--preset", "a2", "--height", "10", "--format", "json", "--quiet")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 3
    assert all(row["mult"] == 1 and row["kind"] == "real" for row in rows)


def test_affine_csv_with_oracle_check():
    proc = run_cli(
        "--preset", "affine-a1", "--height", "4", "--format", "csv", "--oracle-check"
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "coords,height,norm,c,mult,kind"
    assert len(lines) == 1 + 6
    assert "oracle check: all values agree" in proc.stderr


def test_oracle_check_metrics_report_the_oracle_forms(capsys):
    def report(*flags):
        assert cli.main(["--preset", "affine-a1", "--height", "4", "--quiet",
                         "--metrics", *flags]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    checked, plain = report("--oracle-check"), report()
    forms = naive_compute(build(preset_matrix("affine-a1")), 4).counter.count("oracle")
    assert checked["oracle"] == checked["phases"]["oracle"] == forms > 0
    assert plain["oracle"] is None
    assert checked["k_ascent"] == plain["k_ascent"]
    assert checked["ratio"] == plain["ratio"]


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[2,-3],[-3,2]]")
    proc = run_cli("--matrix", str(path), "--height", "5", "--quiet")
    preset = run_cli("--preset", "hyp-2-3", "--height", "5", "--quiet")
    assert proc.stdout == preset.stdout


def test_invalid_gcm_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[2,-1],[0,2]]")
    run_cli("--matrix", str(path), "--height", "3", "--quiet", expect=3)


def test_unreadable_matrix_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    run_cli("--matrix", str(path), "--height", "3", "--quiet", expect=2)
    run_cli("--matrix", str(tmp_path / "missing.json"), "--height", "3",
            "--quiet", expect=2)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"[[2,-1],[-1,2]] \xe9")  # not UTF-8
    proc = run_cli("--matrix", str(latin1), "--height", "3", "--quiet", expect=2)
    assert proc.stderr.startswith("error: cannot read matrix file:")


def test_unwritable_out_exits_2_before_computing(tmp_path, monkeypatch):
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        proc = run_cli("--preset", "a2", "--height", "3", "--out", str(out), expect=2)
        assert f"cannot write {out}:" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []

    def fail(*args):
        raise AssertionError("compute_all ran before --out was opened")

    monkeypatch.setattr(cli, "compute_all", fail)
    assert cli.main(["--preset", "a2", "--height", "3", "--quiet",
                     "--out", str(tmp_path)]) == cli.EXIT_INPUT


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("preset,height", [("a2", 3), ("e10", 30)])
def test_failed_write_exits_2_without_traceback(preset, height):
    # a2@3 (88 bytes) fails only when the output is flushed at the end,
    # e10@30 (16 KB) already while the table is written.  stdout stays buffered, as
    # it is by default, so that data the failed flush left behind would
    # make the flush at interpreter exit fail again (exit 120).
    env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
    args = [*ROOTMULT, "--preset", preset, "--height", str(height)]
    proc = subprocess.run(args + ["--out", "/dev/full"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == cli.EXIT_INPUT == 2
    assert proc.stderr.startswith("cannot write /dev/full: ")
    assert proc.stdout == ""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(args, stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env)
    assert proc.returncode == cli.EXIT_INPUT
    # one line: no traceback, and no second failure at interpreter exit
    assert proc.stderr.startswith("cannot write <stdout>: ")
    assert proc.stderr.count("\n") == 1


# The CSV digests BENCHMARK.json records for its deep-rank2 and wide-e10
# workloads, hyp-2-3@128, the first cap whose keys need 9-bit fields,
# and e10@100 (66,514 rows), whose orbits reach heights wide-e10 does not:
# any drift in the exported table shows here.
@pytest.mark.parametrize("preset,height,digest", [
    ("hyp-2-3", 100, "7bc5c849804507c4f49b4e14a3155ff1b314d3db6e72911d137158c7acb45922"),
    ("hyp-2-3", 128, "5b87011438fd8903199c83a5630736c220b5a31fac4c089093b0698959f18d89"),
    ("e10", 80, "57387f61c649a144b3cad111a1e5f6bd452e9c421ba92b9af0491c790ffeaa73"),
    ("e10", 100, "f23e666333c5075c0f9da1daed088887e1bb82d3114e0e44a0b8f1decabfa7a8"),
])
def test_csv_bytes_are_pinned(preset, height, digest):
    proc = subprocess.run(
        [*ROOTMULT, "--preset", preset, "--height", str(height), "--quiet"],
        capture_output=True, env=CLI_ENV,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# The JSON lines of the same runs: JSON and CSV come from different
# writers, so each is pinned on its own.
@pytest.mark.parametrize("preset,height,digest", [
    ("hyp-2-3", 100, "f5c5c02bd2d2579091f29790d7314349e45a4516cccf22d7ad4209ee5a9624e3"),
    ("e10", 80, "8fe1b782a40d0e5e32fc9dd1bf63bcb27bb2c8b9fb1bc5629a684d22174160d6"),
])
def test_json_bytes_are_pinned(preset, height, digest):
    proc = subprocess.run(
        [*ROOTMULT, "--preset", preset, "--height", str(height), "--format", "json",
         "--quiet"],
        capture_output=True, env=CLI_ENV,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# Three matrices of the class the chamber-mix workload runs (rank 3-4,
# cap 12, read from a matrix file): SWAP4 has diagram automorphisms, so
# its chamber points share sums along orbits; CHAIN4G has chamber points
# of gcd 2 to 6, e.g. (4, 4, 0, 0), where Moebius inversion finds terms;
# NONSYM4 is not symmetric (a_01 = -2, a_10 = -1).
SWAP4 = [[2, -2, -1, 0], [-2, 2, 0, -1], [-1, 0, 2, -2], [0, -1, -2, 2]]
CHAIN4G = [[2, -2, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
NONSYM4 = [[2, -2, 0, -1], [-1, 2, -1, 0], [0, -2, 2, -1], [-1, 0, -1, 2]]


@pytest.mark.parametrize("grid,digest,pingpong,peterson_sum", [
    (SWAP4, "2f86dba16ac0f85e6c4367dc16bceb47fcfdc63228f36f204c5c16e357a6adbb", 2_148, 1_072),
    (CHAIN4G, "e120d5a6fbe50cd23f4d05e412c4f7161938bc704d2b962c60e1631a6687c3c0", 516, 246),
    (NONSYM4, "fda5c2f01ee45700978c199296c5e5423946104922f18ea06812f112067dfc80", 824, 391),
], ids=["swap4", "chain4g", "nonsym4"])
def test_chamber_mix_class_csv_and_forms_are_pinned(tmp_path, grid, digest, pingpong,
                                                     peterson_sum):
    matrix, out = tmp_path / "matrix.json", tmp_path / "table.csv"
    matrix.write_text(json.dumps(grid) + "\n", encoding="utf-8")
    assert cli.main(["--matrix", str(matrix), "--height", "12", "--format", "csv",
                     "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    counter = KillingCounter()
    compute_all(build(grid), 12, counter)
    assert counter.by_phase() == {PHASE_PINGPONG: pingpong, PHASE_SUM: peterson_sum}


def reference_rows(table):
    """One dict per recorded vector in (height, lex) order, from entries
    and RootRecord.c alone: they share no formatting code with the writer."""
    for v, rec in sorted(table.entries.items(), key=lambda item: (sum(item[0]), item[0])):
        c = rec.c
        yield {"coords": list(v), "height": sum(v), "norm": rec.norm,
               "c": f"{c.numerator}/{c.denominator}", "mult": rec.mult, "kind": rec.kind}


def reference_csv(table):
    """The CSV text formatted row by row: the arbiter of the writer."""
    lines = ["coords,height,norm,c,mult,kind\n"]
    for row in reference_rows(table):
        coords = ";".join(str(x) for x in row["coords"])
        lines.append(f"{coords},{row['height']},{row['norm']},{row['c']},"
                     f"{row['mult']},{row['kind']}\n")
    return "".join(lines)


def reference_json(table):
    """The JSON lines of json.dumps with sorted keys, one per row: the
    arbiter of the writer's JSON templates."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in reference_rows(table))


def written(table, fmt="csv"):
    stream = io.StringIO()
    cli.write_table(table, fmt, stream)
    return stream.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=symmetrizable_gcms(max_rank=4), cap=st.integers(1, 14))
def test_csv_writer_matches_row_formatting(grid, cap):
    # one writer formats both: CSV and JSON lines against their references
    table = compute_all(build(grid), cap)
    assert written(table, "csv") == reference_csv(table)
    assert written(table, "json") == reference_json(table)


@pytest.mark.parametrize("preset,height", [
    ("e10", 20),  # simple roots: distinct record objects with equal values
    ("hyp-2-3", 128),  # 9-bit key fields
    ("e11", 30),  # odd rank: the key's high half has 6 fields, its low half 5
])
def test_cli_csv_matches_row_formatting(preset, height, capsys):
    table = compute_all(build(preset_matrix(preset)), height)
    for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
        assert cli.main(["--preset", preset, "--height", str(height),
                         "--format", fmt, "--quiet"]) == 0
        assert capsys.readouterr().out == reference(table)


def test_csv_c_in_lowest_terms():
    # (4,6) = 2 (2,3) has g = 2 and gc = 20, so c = 20/2 prints as 10/1
    table = compute_all(build(HYP3), 10)
    rec = table.get((4, 6))
    assert (rec.g, rec.gc) == (2, 20)
    text = written(table)
    assert "\n4;6,10,-40,10/1,9,imaginary\n" in text
    assert text == reference_csv(table)


def test_csv_export_writes_one_height_per_call():
    # Holding more than one height's text at once would grow with the
    # table; the write calls show how much the writer held.
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    table = compute_all(build(preset_matrix("e10")), 40)
    for fmt, reference, height_of in (
        ("csv", reference_csv, lambda line: line.split(",")[1]),
        ("json", reference_json, lambda line: json.loads(line)["height"]),
    ):
        writes.clear()
        cli.write_table(table, fmt, Recorder())
        if fmt == "csv":
            assert writes.pop(0) == "coords,height,norm,c,mult,kind\n"
        heights = [{height_of(line) for line in text.splitlines()} for text in writes]
        assert all(len(h) == 1 for h in heights)
        assert len(heights) == len({h for hs in heights for h in hs}) == 40
        assert "".join(writes) == reference(table).removeprefix(
            "coords,height,norm,c,mult,kind\n")


def test_not_symmetrizable_exits_3(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text("[[2,-1,-1],[-2,2,-1],[-1,-2,2]]")
    run_cli("--matrix", str(path), "--height", "3", "--quiet", expect=3)


def test_bad_height_exits_2():
    proc = run_cli("--preset", "a2", "--height", "0", "--quiet", expect=2)
    assert proc.stderr.endswith("rootmult: error: argument --height: must be >= 1\n")
    # no upper bound but Python's int parsing: 2**63 computes, and a
    # height past the int digit limit (where Python has one) is refused
    # by argparse
    proc = run_cli("--preset", "a2", "--height", str(2**63), "--quiet")
    assert proc.stdout.splitlines()[1:] == ["0;1,1,2,1/1,1,real", "1;0,1,2,1/1,1,real",
                                            "1;1,2,2,1/1,1,real"]
    limited = hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits() > 0
    proc = run_cli("--preset", "a2", "--height", "9" * 5000, "--quiet",
                   expect=2 if limited else 0)
    if limited:  # the refused value is quoted by its first 10 characters only
        assert proc.stderr.endswith(
            "rootmult: error: argument --height: not an int: '9999999999'...\n")
        assert len(proc.stderr.encode()) < 300


def test_unknown_preset_exits_2():
    run_cli("--preset", "nope", "--height", "3", "--quiet", expect=2)
    with pytest.raises(ValueError, match="need p, q, r >= 2"):
        tree_matrix(1, 3, 7)


@pytest.mark.parametrize("name", ["hyp-2-+3", "hyp-2-03", "hyp-2- 3", "hyp-2-3 ",
                                  "hyp-2-\u0663", "hyp-2-1_0", "hyp-2-0", "hyp-2--3",
                                  "hyp-2-x"])
def test_noncanonical_preset_name_exits_2(name, capsys):
    assert cli.main(["--preset", name, "--height", "3"]) == 2
    assert capsys.readouterr().err == f"error: unknown preset {name!r}\n"
    with pytest.raises(ValueError, match="unknown preset"):
        preset_matrix(name)


def raise_mult(table, keep=lambda beta: True):
    """table with the multiplicity of each recorded vector keep accepts
    raised by one, so that the oracle disagrees there."""
    for level in table.levels.values():
        for key, rec in level.items():
            if keep(table.codec.decode(key)):
                level[key] = rec._replace(mult=rec.mult + 1)
    return table


def test_oracle_disagreement_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compute_all", lambda *args: raise_mult(
        compute_all(*args), lambda beta: beta == (1, 1)))
    assert cli.main(["--preset", "hyp-2-3", "--height", "10", "--oracle-check"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "oracle disagreement on 1 point(s):",
        "  {'coords': (1, 1), 'engine': (Fraction(1, 1), 2), 'oracle': (Fraction(1, 1), 1)}",
    ]


def test_oracle_disagreement_lists_at_most_10_points(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compute_all", lambda *args: raise_mult(compute_all(*args)))
    assert cli.main(["--preset", "hyp-2-3", "--height", "10", "--oracle-check"]) == 4
    head, *details = capsys.readouterr().err.splitlines()
    assert head == f"oracle disagreement on {len(compute_all(build(HYP3), 10))} point(s):"
    assert len(details) == 10 and all(line.startswith("  {'coords': ") for line in details)


def fail_integrality(*args):
    raise NonIntegerMultiplicity("m(1;1) = 1/2 is not a non-negative integer")


@pytest.mark.parametrize("target,message", [
    ("rootmult.cli.compute_all", "internal integrality failure: "),
    ("rootmult.oracle.naive_compute", "internal integrality failure in oracle: "),
])
def test_integrality_failure_exits_5(target, message, monkeypatch, capsys):
    monkeypatch.setattr(target, fail_integrality)
    assert cli.main(["--preset", "hyp-2-3", "--height", "10", "--oracle-check"]) == 5
    assert capsys.readouterr().err == (
        message + "m(1;1) = 1/2 is not a non-negative integer\n")


def test_oracle_integrality_check_fires_on_a_doctored_form(monkeypatch, capsys):
    # A form (alpha_1, alpha_1 + alpha_2) off by one makes the oracle's c at
    # hyp-2-3's (2, 1), where g = 1 and m = c, a fraction; the engine never
    # calls the oracle's killing, so only the oracle's own check can fire.
    original = oracle.killing

    def off_by_one(cm, u, v):
        return original(cm, u, v) + ((u, v) == ((1, 0), (1, 1)))

    monkeypatch.setattr("rootmult.oracle.killing", off_by_one)
    with pytest.raises(NonIntegerMultiplicity,
                       match=re.escape("oracle m((2,1)) = 7/8 is not a non-negative integer")):
        naive_compute(build(HYP3), 6)
    assert cli.main(["--preset", "hyp-2-3", "--height", "6", "--oracle-check"]) == 5
    assert capsys.readouterr().err.startswith("internal integrality failure in oracle: oracle m(")


def test_deeply_nested_matrix_file_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = run_cli("--matrix", str(path), "--height", "3", expect=2)
    assert proc.stderr.startswith("error: cannot read matrix file: ")


def test_oracle_check_refused_beyond_bounds():
    run_cli("--preset", "e10", "--height", "8", "--oracle-check", "--quiet", expect=2)
    run_cli("--preset", "a2", "--height", "16", "--oracle-check", "--quiet", expect=2)
    # --force-oracle overrides the refusal
    run_cli("--preset", "a2", "--height", "16", "--oracle-check", "--force-oracle",
            "--quiet")


def test_hilbert_basis_dump():
    proc = run_cli("--preset", "hyp-2-3", "--height", "4", "--hilbert-basis",
                   "--quiet")
    first = proc.stdout.splitlines()[0]
    assert json.loads(first) == [[1, 1], [2, 3], [3, 2]]


def test_metrics_report_appended():
    proc = run_cli("--preset", "hyp-2-3", "--height", "8", "--metrics", "--quiet")
    last = proc.stdout.splitlines()[-1]
    report = json.loads(last)
    assert report["k_naive_closed"] == 1192  # 4 * (C(11,4) - 32)
    assert report["k_ascent"] >= 1
    assert set(report["phases"]) <= {"pingpong", "peterson-sum"}


def test_out_file_and_stdout_agree(tmp_path):
    out = tmp_path / "table.csv"
    run_cli("--preset", "affine-a1", "--height", "6", "--out", str(out), "--quiet")
    direct = run_cli("--preset", "affine-a1", "--height", "6", "--quiet")
    assert out.read_text() == direct.stdout


def test_metrics_ratio_beyond_the_float_range_is_null(tmp_path):
    # A9 is finite type, so the run is short, but the closed-form naive cost
    # at the largest height has over 300 digits: no float holds kn / ka.
    path = tmp_path / "a9.json"
    path.write_text(json.dumps(
        [[2 if i == j else -(abs(i - j) == 1) for j in range(9)] for i in range(9)]))
    proc = run_cli("--matrix", str(path), "--height", str(2**63 - 1), "--metrics",
                   "--quiet")
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["ratio"] is None
    assert report["k_naive_closed"] == k_naive_closed(9, 2**63 - 1)
    assert report["k_ascent"] == report["phases"]["pingpong"] > 0
    assert len(proc.stdout.splitlines()) == 1 + 45 + 1  # header, 45 roots, report


def test_metrics_print_a_naive_cost_past_the_int_digit_limit(tmp_path, capsys):
    # 2 I of rank 150 has only its simple roots, but its closed-form naive
    # cost at height 2**63 - 1 has 5,076 digits, more than the 4,300 that
    # Python converts to text by default.  The report prints it exactly,
    # main leaves the digit limit as it found it, and the input is still
    # parsed under that limit.
    path = tmp_path / "2i.json"
    path.write_text(json.dumps([[2 * (i == j) for j in range(150)] for i in range(150)]))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert cli.main(["--matrix", str(path), "--height", str(2**63 - 1), "--metrics",
                     "--quiet"]) == 0
    assert limit() == before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 150 + 1  # header, 150 roots, report
    digits = re.search(r'"k_naive_closed": (\d+),', lines[-1]).group(1)
    assert len(digits) == 5076
    got = 0  # read in chunks, each under the digit limit
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        got = got * 10 ** len(chunk) + int(chunk)
    assert got == k_naive_closed(150, 2**63 - 1)
    if before:  # None or 0 where Python sets no limit
        path.write_text("[[2, -" + "1" * 5000 + "], [-1, 2]]")
        assert cli.main(["--matrix", str(path), "--height", "3", "--quiet"]) == cli.EXIT_INPUT
        assert limit() == before
        assert capsys.readouterr().err.startswith("error: cannot read matrix file: ")


def run_bare(code):
    """stdout of code run by python -S with the package's source on the path.
    -S: no site module, whose preloads could hide what rootmult imports."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1]); " + code, src],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    # Neither the oracle nor fractions (with decimal and numbers behind it)
    # is on the path of a run without --oracle-check.
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "numbers",
                "rootmult.oracle"}
    assert run_bare(f"import rootmult.cli; print(sorted({unwanted!r} & set(sys.modules)))"
                    ) == "[]"


@pytest.mark.parametrize("extra", [(), ("--format", "json", "--metrics"), ("--hilbert-basis",)])
def test_a_run_without_oracle_check_loads_no_fractions_or_oracle(extra, tmp_path):
    args = ["--preset", "hyp-2-3", "--height", "30", "--quiet", "--out", str(tmp_path / "t"),
            *extra]
    unwanted = {"fractions", "decimal", "numbers", "rootmult.oracle"}
    assert run_bare(f"import rootmult.cli; code = rootmult.cli.main({args!r}); "
                    f"print(code, sorted({unwanted!r} & set(sys.modules)))") == "0 []"


def test_oracle_names_load_on_first_use():
    out = run_bare(
        "import rootmult; loaded = 'rootmult.oracle' in sys.modules; "
        "missing = [n for n in rootmult.__all__ if getattr(rootmult, n, None) is None]; "
        "from rootmult import *; "
        "print(loaded, missing, naive_compute is rootmult.oracle.naive_compute, "
        "hasattr(rootmult, 'no_such_name'))")
    assert out == "False [] True False"
    proc = run_cli("--preset", "hyp-2-3", "--height", "10", "--oracle-check")
    assert "oracle check: all values agree" in proc.stderr


def test_byte_identical_reruns():
    args = ("--preset", "hyp-2-3", "--height", "14", "--format", "json",
            "--hilbert-basis", "--metrics", "--quiet")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_e11_hilbert_basis_out_of_bounds_exits_1(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("--preset", "e11", "--height", "5", "--hilbert-basis",
                   "--out", str(out), expect=1)
    assert "hilbert basis out of bounds" in proc.stderr
    assert not out.exists()  # the basis fails before the table is opened


def test_e11_computes_to_height_30():
    proc = run_cli("--preset", "e11", "--height", "30", "--quiet")
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    imaginary = [row for row in rows if row[5] == "imaginary"]
    # the affine E8 null root, the only imaginary chamber point up to 30
    assert imaginary == [["6;3;4;2;5;4;3;2;1;0;0", "30", "0", "8/1", "8", "imaginary"]]
    reals = {tuple(map(int, row[0].split(";"))) for row in rows if row[5] == "real"}
    assert len(reals) == len(rows) - 1 == 710
    assert reals == brute_real_roots(build(preset_matrix("e11")), 30)


def test_hilbert_basis_computed_once(monkeypatch, capsys):
    calls = []
    original = chamber.hilbert_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module of the package that holds the function, the engine too
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("rootmult")
                and getattr(module, "hilbert_basis", None) is original):
            monkeypatch.setattr(module, "hilbert_basis", counted)
    assert cli.main(["--preset", "hyp-2-3", "--height", "10", "--hilbert-basis",
                     "--quiet"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[0] == "[[1, 1], [2, 3], [3, 2]]"


def test_closed_stdout_exits_141_without_traceback():
    # e10 to height 60 writes about 160 KB, more than a pipe buffer holds,
    # so the writer is still blocked when the reader goes away.
    proc = subprocess.Popen(
        [*ROOTMULT, "--preset", "e10", "--height", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CLI_ENV,
    )
    assert proc.stdout.readline() == b"coords,height,norm,c,mult,kind\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in stderr


# The names bench/job.py wraps to time a run by layer, its solve time
# included.  Each must be looked up where the bench patches it at every
# call: a refactor that binds one of them locally would leave its span
# empty without any other failure.
BENCH_WRAPPED = (
    ("cli", "compute_all"),
    ("cli", "write_table"),
    ("peterson", "pingpong"),
    ("peterson", "peterson_c"),
    ("peterson", "mobius_mult"),
    ("RootTable", "record"),
)


def count_calls(monkeypatch, names):
    """Wrap each (owner, attribute) of names in a counter of its calls;
    returns the counts, which grow as the wrappers are called."""
    owners = {"cli": cli, "peterson": peterson, "RootTable": peterson.RootTable}
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        owner, attr = owners[name[0]], name[1]
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return calls


def test_names_the_bench_wraps_are_called_through_their_owner(monkeypatch, capsys):
    calls = count_calls(monkeypatch, BENCH_WRAPPED)
    assert cli.main(["--preset", "hyp-2-3", "--height", "12", "--quiet"]) == 0
    assert capsys.readouterr().out.startswith("coords,")
    assert all(calls.values()), calls


def test_the_engine_names_the_bench_wraps_run_once_per_point(monkeypatch):
    # peterson_c once per summed chamber point (one per orbit of the swap),
    # mobius_mult once per chamber point, record and pingpong once per
    # simple root and per chamber point that is a root: every other vector
    # is stored by pingpong's walk itself, which calls record only to
    # raise its error for an image that fails record's checks.
    cm = build(SWAP4)
    points = chamber.chamber_points(cm, 12)
    group = ((0, 1, 2, 3), *automorphisms(cm))  # closed: the Klein four-group
    summed = len({min(tuple(map(p.__getitem__, sigma)) for sigma in group) for p in points})
    calls = count_calls(monkeypatch, BENCH_WRAPPED[2:])
    table = compute_all(cm, 12)
    roots = sum(table.get(p) is not None for p in points)
    assert calls == {("peterson", "pingpong"): 4 + roots,
                     ("peterson", "peterson_c"): summed,
                     ("peterson", "mobius_mult"): len(points),
                     ("RootTable", "record"): 4 + roots}
