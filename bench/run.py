"""rootmult benchmark: runs named workloads through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seconds S] [--out FILE]

Run from the repository root.  Every job is a fresh interpreter running
bench/job.py on generated inputs (a preset name or a matrix file), one job
at a time from this process: a closed loop with one client.  A pass runs
every job of the workload once; the run repeats passes for --seconds and
reports per-pass medians.

Times are scaled to a reference host speed.  The shared host's speed
drifts by up to half over minutes, and a job's CPU time drifts with it, so
raw seconds of two runs of the same code differ by more than a code change
should be allowed to.  Before every pass the run times a fixed pure-Python
loop (benchmark code, not the package) CALIBRATION_SAMPLES times; every
time metric is multiplied by REFERENCE_CALIBRATION_S over the median of
those samples over the whole run.  The raw seconds and the calibration
median are printed beside the result.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones and prints the per-layer metrics of the traced
passes, plus the tracing overhead.  Each job's table is checked (see
checks.py) outside the timed region.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--all runs every workload as --trace 1 does and prints one row per
workload with every end-to-end metric of the untraced passes, its unit,
quartiles and sample count, then the per-layer breakdown; --out also
writes them as JSON.  It exits 1 if a check or a job failed.

Arguments recorded after the script name in BENCHMARK.json's "command"
(the chamber-mix seed and the expected CSV digests) are read first, so
the recorded values are the defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(HERE), str(SRC)]

from checks import check_table  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

JOB_LIMIT_S = 60.0  # a job still running after this is killed and fails
RUN_LIMIT_S = 150.0  # no job of a run may run past this
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_SAMPLES = 5  # calibration loops timed before every pass
# The calibration loop's time on a quiet 2-vCPU Xeon host with Python
# 3.11: time metrics are reported as seconds at that speed.
REFERENCE_CALIBRATION_S = 0.040
# The known defect: the Hilbert-basis completion gives up (CapExceeded)
# and the CLI exits 1 with this message, as e11 does at every height.  Such
# a job is "refused": it lowers ok_rate but is not a failed operation.
REFUSAL_EXIT = 1
REFUSAL_MESSAGE = "hilbert basis out of bounds"

END_TO_END = {
    "wall_s": "s", "solve_s": "s", "setup_s": "s",
    "peak_rss_mib": "MiB", "ok_rate": "share",
}
PER_LAYER = {
    "weyl.pingpong_s": "s", "weyl.pingpong_calls": "count",
    "weyl.orbit_members": "count", "weyl.useful_ratio": "ratio",
    "peterson.record_s": "s", "peterson.records": "count",
    "peterson.c_s": "s", "peterson.points": "count",
    "peterson.root_share": "ratio", "peterson.mobius_s": "s",
    "peterson.driver_self_s": "s",
    "chamber.extreme_rays_s": "s", "chamber.hilbert_basis_s": "s",
    "chamber.generators": "count", "chamber.enumerate_s": "s",
    "chamber.points": "count",
    "forms.pingpong": "count", "forms.peterson_sum": "count",
    "forms.k_ascent": "count", "forms.naive_ratio": "ratio",
    "cli.export_s": "s", "cli.rows": "count", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot measure; no result is printed."""


@dataclass
class JobResult:
    job: object
    traced: bool
    wall_s: float
    rss_mib: float
    exit: int | None  # None: killed at the limit
    setup_s: float = 0.0
    solve_s: float = 0.0
    forms: dict | None = None
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0
    problems: list = field(default_factory=list)
    status: str = "failed"  # ok | refused | failed


class Runner:
    """Runs jobs one at a time and checks their tables."""

    def __init__(self, digests: dict[str, str], deadline: float, work: Path = WORK):
        self.digests = digests
        self.deadline = deadline
        self.work = work
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run_job(self, job, traced: bool, job_id: str) -> JobResult:
        self.work.mkdir(exist_ok=True)
        report_path = self.work / "report.json"
        table = self.work / "table.csv"
        errors = self.work / "stderr.txt"
        for path in (report_path, table):
            path.unlink(missing_ok=True)
        limit = min(JOB_LIMIT_S, max(1.0, self.deadline - perf_counter()))
        argv = [sys.executable, str(HERE / "job.py"), str(report_path), job_id,
                "1" if traced else "0", "--", *job.cli_args, "--out", str(table)]
        with open(errors, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killed = False
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    if not select.select([pidfd], [], [], limit)[0]:
                        os.kill(proc.pid, signal.SIGKILL)
                        killed = True
                finally:
                    os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss also holds this process's RSS at the child's exec, so it
        # is only a fallback for jobs that wrote no report.
        result = JobResult(job=job, traced=traced,
                           wall_s=limit if killed else wall,
                           rss_mib=usage.ru_maxrss / 1024,
                           exit=None if killed else proc.returncode)
        if killed:
            result.solve_s = limit
            result.problems = [f"killed after {limit:.0f} s"]
            return result
        if not report_path.exists():
            result.problems = [f"exit {proc.returncode} without a job report"]
            return result
        data = json.loads(report_path.read_text(encoding="utf-8"))
        if len(data["solve"]) != 1:
            raise BenchmarkError(
                f"{job.name}: compute_all wrapper called {len(data['solve'])} "
                "times, expected once")
        result.rss_mib = data["peak_rss_mib"] or result.rss_mib
        result.setup_s = data["setup_s"]
        result.solve_s = data["solve"][0]["seconds"]
        result.forms = data["solve"][0]["forms"]
        result.spans = data["spans"]
        result.absent = data["absent"]
        stderr = errors.read_text(encoding="utf-8", errors="replace")
        if proc.returncode == 0 and table.exists():
            raw = table.read_bytes()
            result.bytes_out = len(raw)
            result.rows = raw.count(b"\n") - 1
            result.problems = self.check(job, raw)
            result.status = "failed" if result.problems else "ok"
        elif proc.returncode == REFUSAL_EXIT and REFUSAL_MESSAGE in stderr:
            result.status = "refused"
        else:
            result.problems = [f"exit {proc.returncode}: {stderr.strip()[-300:]}"]
        return result

    def check(self, job, raw: bytes) -> list[str]:
        """Check a table once per distinct content; the verdict is cached."""
        digest = sha256(raw).hexdigest()
        key = (job.name, digest)
        if key not in self.verdicts:
            expected = None
            if job.check in ("deep-rank2", "wide-e10"):
                if job.check not in self.digests:
                    raise BenchmarkError(f"no recorded sha256 for {job.check}")
                expected = self.digests[job.check]
            self.verdicts[key] = check_table(
                job, raw.decode("utf-8"), digest, expected)
        return self.verdicts[key]


# ---------------------------------------------------------------- metrics

def scaled(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """metrics with every time (a name ending in _s) multiplied by scale."""
    return {name: value * scale if name.endswith("_s") else value
            for name, value in metrics.items()}


def pass_metrics(results: list[JobResult]) -> dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "solve_s": sum(r.solve_s for r in results),
        "setup_s": sum(r.setup_s for r in results),
        "peak_rss_mib": max(r.rss_mib for r in results),
        "ok_rate": sum(r.status == "ok" for r in results) / len(results),
    }


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(results: list[JobResult]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from rootmult.metrics import k_naive_closed

    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, int] = {}
    roots = pingpong_records = 0
    forms = {"pingpong": 0, "peterson-sum": 0}
    naive = solved = 0
    for r in results:
        spans = r.spans
        for span, own in zip(spans, self_times(spans)):
            name, _, _, parent, note = span
            secs[name] = secs.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            notes[name] = notes.get(name, 0) + (note or 0)
            if name == "peterson.mobius" and note:
                roots += 1
            if (name == "peterson.record" and parent >= 0
                    and spans[parent][0] == "weyl.pingpong"):
                pingpong_records += 1
        if r.forms is not None:
            for phase in forms:
                forms[phase] += r.forms.get(phase, 0)
            if r.status == "ok":
                naive += k_naive_closed(len(r.job.grid), r.job.cap)
                solved += r.forms.get("pingpong", 0) + r.forms.get("peterson-sum", 0)
    k_ascent = forms["pingpong"] + forms["peterson-sum"]
    points = calls.get("peterson.c", 0)
    return {
        "weyl.pingpong_s": secs.get("weyl.pingpong", 0.0),
        "weyl.pingpong_calls": calls.get("weyl.pingpong", 0),
        "weyl.orbit_members": notes.get("weyl.pingpong", 0),
        "weyl.useful_ratio": pingpong_records / forms["pingpong"] if forms["pingpong"] else 0.0,
        "peterson.record_s": secs.get("peterson.record", 0.0),
        "peterson.records": calls.get("peterson.record", 0),
        "peterson.c_s": secs.get("peterson.c", 0.0),
        "peterson.points": points,
        "peterson.root_share": roots / points if points else 0.0,
        "peterson.mobius_s": secs.get("peterson.mobius", 0.0),
        "peterson.driver_self_s": secs.get("peterson.compute_all", 0.0),
        "chamber.extreme_rays_s": secs.get("chamber.extreme_rays", 0.0),
        "chamber.hilbert_basis_s": secs.get("chamber.hilbert_basis", 0.0),
        "chamber.generators": notes.get("chamber.hilbert_basis", 0),
        "chamber.enumerate_s": secs.get("chamber.enumerate", 0.0),
        "chamber.points": notes.get("chamber.enumerate", 0),
        "forms.pingpong": forms["pingpong"],
        "forms.peterson_sum": forms["peterson-sum"],
        "forms.k_ascent": k_ascent,
        "forms.naive_ratio": naive / solved if solved else 0.0,
        "cli.export_s": secs.get("cli.export", 0.0),
        "cli.rows": sum(r.rows for r in results),
        "cli.bytes_out": sum(r.bytes_out for r in results),
    }


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and, with enough samples, the
    highest percentile that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = ordered[min(len(values) - 1, int(len(values) * p / 100))]
            break
    return out


# ---------------------------------------------------------------- context

def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed reference that
    time metrics are scaled by.  Across runs the workloads' times moved
    with it at slopes of 0.55-0.95 (log-log); loops of dict lookups or tuple
    arithmetic tracked them worse."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return perf_counter() - start


def git_sha() -> str | None:
    """HEAD of the repository at ROOT; None in a plain checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------- runs

def prepare() -> None:
    """Fail fast unless the package imports; also leaves its bytecode
    cached, so the first timed job does not pay for compiling it."""
    if not (SRC / "rootmult" / "cli.py").is_file():
        raise BenchmarkError(f"no rootmult package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", "import rootmult.cli"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import rootmult.cli: {proc.stderr.strip()}")


def measure(workload: str, args, traced_run: bool) -> tuple[list[list[JobResult]], list[float]]:
    """One run: passes over the workload's jobs for args.seconds, and the
    calibration times taken before each pass and after the last."""
    start = perf_counter()
    runner = Runner(args.digests, start + RUN_LIMIT_S)
    jobs = jobs_for(workload, args.mix_seed, WORK, args.seed)
    modes = (False, True) if traced_run else (False,)
    passes: list[list[JobResult]] = []
    calibrations: list[float] = []
    longest = 0.0
    while True:
        calibrations += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
        t0 = perf_counter()
        traced = modes[len(passes) % len(modes)]
        passes.append([runner.run_job(job, traced, f"{len(passes)}:{job.name}")
                       for job in jobs])
        longest = max(longest, perf_counter() - t0)
        if (len(passes) >= len(modes)
                and perf_counter() - start + longest > args.seconds):
            break
    calibrations += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    return passes, calibrations


def report(workload: str, passes: list[list[JobResult]], calibrations: list[float],
           traced_run: bool) -> dict:
    """Metrics, counts and notes of one run, times at reference speed."""
    calibration = statistics.median(calibrations)
    scale = REFERENCE_CALIBRATION_S / calibration
    raw = [pass_metrics(p) for p in passes if not p[0].traced]
    plain = [scaled(m, scale) for m in raw]
    results = [r for p in passes for r in p]
    e2e = {name: summarize([m[name] for m in plain]) for name in END_TO_END}
    out = {
        "workload": workload,
        "end_to_end": e2e,
        "raw_s": {name: statistics.median(m[name] for m in raw)
                  for name in END_TO_END if name.endswith("_s")},
        "calibration_s": calibration,
        "attempted": len(results),
        "failed": sum(r.status == "failed" for r in results),
        "refused": sum(r.status == "refused" for r in results),
        "correct": not any(r.problems for r in results if r.exit == 0),
        "problems": sorted({f"{r.job.name}: {p}" for r in results for p in r.problems}),
    }
    if traced_run:
        traced = [p for p in passes if p[0].traced]
        layers = [scaled(layer_metrics(p), scale) for p in traced]
        per_layer = {name: summarize([m[name] for m in layers])
                     for name in PER_LAYER if name != "trace.overhead_s"}
        # Passes alternate untraced, traced: pairing neighbours cancels most
        # of the host's drift between them.
        walls = [sum(r.wall_s for r in p) * scale for p in passes]
        per_layer["trace.overhead_s"] = summarize(
            [t - u for u, t in zip(walls[::2], walls[1::2])])
        out["per_layer"] = per_layer
        out["absent_spans"] = sorted({a for r in results for a in r.absent})
    return out


def metric_block(stats: dict, units: dict) -> dict:
    return {name: {"value": stats[name]["median"], "unit": unit}
            for name, unit in units.items()}


def format_row(rep: dict) -> str:
    """One line: every end-to-end metric with unit, quartiles and count."""
    stats = rep["end_to_end"]
    cells = [f"{rep['workload']:<12}"]
    for name, unit in END_TO_END.items():
        s = stats[name]
        cell = f"{name}={s['median']:.4g} {unit}"
        if "q1" in s:
            cell += f" [{s['q1']:.4g}, {s['q3']:.4g}]"
        pct = next((k for k in s if k.startswith("p")), None)
        if pct:
            cell += f" {pct}={s[pct]:.4g}"
        cells.append(cell + f" n={s['n']}")
    cells.append("raw " + " ".join(f"{name}={value:.4g}" for name, value in rep["raw_s"].items())
                 + f" s, calibration {rep['calibration_s'] * 1e3:.4g} ms")
    fail_rate = (rep["failed"] + rep["refused"]) / rep["attempted"]
    cells.append(f"fail_rate={fail_rate:.4g} share ({rep['failed']} failed, "
                 f"{rep['refused']} refused of {rep['attempted']} jobs)")
    if not rep["correct"]:
        cells.append("CHECKS FAILED")
    return "  ".join(cells)


def recorded_args() -> list[str]:
    """Arguments after the script name in BENCHMARK.json's command."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    command = json.loads(path.read_text(encoding="utf-8"))["command"]
    here = next(i for i, part in enumerate(command) if part.endswith("run.py"))
    return command[here + 1:]


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 1 and print a summary")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the chamber-mix jobs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mix-seed", type=int, default=1,
                        help="seed of the generated chamber-mix matrices")
    parser.add_argument("--sha256", action="append", default=[],
                        metavar="WORKLOAD=HEX", help="expected CSV digest")
    parser.add_argument("--out", help="with --all: write the results here")
    args = parser.parse_args(recorded_args() + argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    args.digests = dict(item.split("=", 1) for item in args.sha256)
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workloads = WORKLOADS if args.all else (args.workload,)
    traced_run = args.all or bool(args.trace)
    try:
        prepare()
        ctx = context()
        ctx["calibration_start_s"] = calibrate()
        reports = [report(w, *measure(w, args, traced_run), traced_run) for w in workloads]
        ctx["calibration_end_s"] = calibrate()
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for rep in reports:
        for problem in rep["problems"]:
            print(f"{rep['workload']}: {problem}", file=sys.stderr)
        if rep.get("absent_spans"):
            print(f"{rep['workload']}: absent spans {rep['absent_spans']}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    if args.all:
        print_all(reports)
        if args.out:
            Path(args.out).write_text(
                json.dumps({"context": ctx, "runs": reports}, indent=1) + "\n",
                encoding="utf-8")
        return 0 if all(r["correct"] and not r["failed"] for r in reports) else 1
    rep = reports[0]
    print(format_row(rep))
    metrics = (metric_block(rep["per_layer"], PER_LAYER) if args.trace
               else metric_block(rep["end_to_end"], END_TO_END))
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def print_all(reports: list[dict]) -> None:
    print("end-to-end, untraced passes, seconds at reference speed: median [q1, q3] n=passes")
    for rep in reports:
        print(format_row(rep))
    for rep in reports:
        layers = rep["per_layer"]
        print(f"{rep['workload']} per layer, traced passes (median):")
        for name, unit in PER_LAYER.items():
            value = layers[name]["median"]
            print(f"  {name:<24} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
        # Self times partition the traced compute_all span, so their sum is
        # the traced solve time; it should match the untraced solve_s to
        # within the tracing overhead.
        spans_s = sum(layers[n]["median"] for n in PER_LAYER
                      if n.endswith("_s") and n.split(".")[0] in ("weyl", "peterson", "chamber"))
        print(f"  layer self times {spans_s:.4g} s vs untraced solve_s "
              f"{rep['end_to_end']['solve_s']['median']:.4g} s, "
              f"trace.overhead_s {layers['trace.overhead_s']['median']:.4g} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
