"""Untimed correctness checks on the CSV tables the jobs write.

Every table must be well formed.  On top of that each workload has its
own reference:

- deep-rank2: rows of height <= 15 equal the naive oracle's table;
- wide-e10: every root with beta_9 = 1 has multiplicity p_8(1 - (b,b)/2),
  the level-1 weight multiplicities of the affine E8 basic module
  (Feingold-Frenkel, Math. Ann. 263, 1983);
- chamber-mix: every rank-3 table equals the oracle's at the job's cap.

deep-rank2 and wide-e10 also compare the CSV's sha256 with the digest
recorded in BENCHMARK.json.  Each check returns a list of problems; an
empty list means the table passed.
"""

from __future__ import annotations

HEADER = "coords,height,norm,c,mult,kind"
ORACLE_CAP_DEEP = 15
E10_LEVEL_NODE = 9  # end of the long chain of tree_matrix(2, 3, 7)


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows of a rootmult CSV table, and the problems met parsing it."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return [], [f"bad header {lines[0]!r}" if lines else "empty table"]
    rows, problems = [], []
    for n, line in enumerate(lines[1:], start=2):
        try:
            coords, h, norm, c, mult, kind = line.split(",")
            rows.append({
                "coords": tuple(int(x) for x in coords.split(";")),
                "height": int(h),
                "norm": int(norm),
                "c": c,
                "mult": int(mult),
                "kind": kind,
                "line": line,
            })
        except ValueError:
            problems.append(f"line {n} unparsable: {line!r}")
    return rows, problems


def check_rows(rows: list[dict]) -> list[str]:
    """Row invariants that hold for every table."""
    problems = []
    prev = None
    for row in rows:
        coords, line = row["coords"], row["line"]
        key = (row["height"], coords)
        if sum(coords) != row["height"] or min(coords) < 0:
            problems.append(f"bad height or sign: {line}")
        if row["kind"] == "real":
            if row["norm"] <= 0 or row["mult"] != 1 or row["c"] != "1/1":
                problems.append(f"bad real row: {line}")
        elif row["kind"] == "imaginary":
            if row["norm"] > 0 or row["mult"] < 1:
                problems.append(f"bad imaginary row: {line}")
        else:
            problems.append(f"unexpected kind: {line}")
        if prev is not None and key <= prev:
            problems.append(f"not sorted by (height, lex) at: {line}")
        prev = key
        if len(problems) >= 10:
            break
    return problems


def oracle_lines(grid, cap: int) -> list[str]:
    """CSV lines of the naive oracle's table, in the CLI's row format."""
    from rootmult import build, naive_compute

    out = []
    for row in naive_compute(build(grid), cap).export_rows():
        coords = ";".join(str(x) for x in row["coords"])
        out.append(f"{coords},{row['height']},{row['norm']},{row['c']},"
                   f"{row['mult']},{row['kind']}")
    return out


def compare_oracle(rows: list[dict], grid, cap: int) -> list[str]:
    mine = [row["line"] for row in rows if row["height"] <= cap]
    ref = oracle_lines(grid, cap)
    if mine == ref:
        return []
    diff = sorted(set(mine) ^ set(ref))
    return [f"differs from the oracle at cap {cap} ({len(diff)} lines), "
            f"e.g. {diff[:3]}"]


def colored_partitions(colors: int, n_max: int) -> list[int]:
    """Coefficients of prod_{n >= 1} (1 - q^n)^-colors up to q^n_max."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for _ in range(colors):
            for k in range(n, n_max + 1):
                p[k] += p[k - n]
    return p


def check_e10_level1(rows: list[dict]) -> list[str]:
    level1 = [row for row in rows if row["coords"][E10_LEVEL_NODE] == 1]
    if not level1:
        return ["no level-1 roots in the table"]
    ns = [1 - row["norm"] // 2 for row in level1]
    p8 = colored_partitions(8, max(ns))
    bad = [row["line"] for row, n in zip(level1, ns) if row["mult"] != p8[n]]
    return [f"level-1 multiplicity differs from p_8 on {len(bad)} roots, "
            f"e.g. {bad[:3]}"] if bad else []


def check_table(job, text: str, digest: str, expected_digest: str | None) -> list[str]:
    """All checks for one job's table; [] when it passes."""
    rows, problems = parse_csv(text)
    problems += check_rows(rows)
    if problems:
        return problems
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"csv sha256 {digest} != recorded {expected_digest}")
    if job.check == "deep-rank2":
        problems += compare_oracle(rows, job.grid, ORACLE_CAP_DEEP)
    elif job.check == "wide-e10":
        problems += check_e10_level1(rows)
    elif job.check == "chamber-mix" and len(job.grid) == 3:
        problems += compare_oracle(rows, job.grid, job.cap)
    return problems
