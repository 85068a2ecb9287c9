"""Run one benchmark job in a fresh interpreter.

    python3 job.py REPORT JOB_ID TRACE -- ROOTMULT-ARGS...

Times `import rootmult.cli`, binds a timing wrapper to
`rootmult.cli.compute_all`, runs `rootmult.cli.main(ROOTMULT-ARGS)` and
exits with its code.  With TRACE = 1 it also binds span wrappers to the
names compute_all and the CLI look up, one per layer boundary.  Spans
stay in memory; REPORT is written as JSON when the job ends, also when
the CLI raises.  The package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute, span name, annotation of the return value).  A name
# a later version no longer has is reported as absent, not as an error.
TRACED = (
    ("rootmult.peterson", "pingpong", "weyl.pingpong", len),
    ("rootmult.peterson", "hilbert_basis", "chamber.hilbert_basis", len),
    ("rootmult.chamber", "extreme_rays", "chamber.extreme_rays", len),
    ("rootmult.peterson", "enumerate_chamber", "chamber.enumerate", len),
    ("rootmult.peterson", "peterson_c", "peterson.c", None),
    ("rootmult.peterson", "mobius_mult", "peterson.mobius", int),
    ("rootmult.peterson.RootTable", "record", "peterson.record", None),
    ("rootmult.cli", "write_table", "cli.export", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index, annotation]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    try:
                        span[4] = annotate(result)
                    except (TypeError, ValueError):
                        pass  # a changed return type only loses the count
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper


def resolve(path: str):
    """The object a dotted path under the imported package names, or None."""
    first, *rest = path.split(".")
    obj = sys.modules[first]
    for part in rest:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def peak_rss_mib() -> float | None:
    """This process's own peak RSS.  getrusage would not do: its maxrss
    keeps the spawning parent's RSS, folded in when this process exec'd."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _find_counter(args, kwargs):
    return next((a for a in (*args, *kwargs.values()) if hasattr(a, "by_phase")), None)


def main(argv: list[str]) -> int:
    report_path, job_id, traced = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]

    t0 = perf_counter()
    import rootmult.cli as cli
    setup_s = perf_counter() - t0

    tracer = Tracer()
    report = {"job": job_id, "setup_s": setup_s, "solve": [], "absent": []}

    def solve(*args, **kwargs):
        counter = _find_counter(args, kwargs)
        start = perf_counter()
        try:
            return compute_all(*args, **kwargs)
        finally:
            end = perf_counter()
            report["solve"].append({
                "seconds": end - start,
                "forms": counter.by_phase() if counter is not None else None,
            })

    compute_all = cli.compute_all
    if traced:
        compute_all = tracer.wrap("peterson.compute_all", compute_all)
        for path, attr, name, annotate in TRACED:
            owner = resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                report["absent"].append(name)
            else:
                setattr(owner, attr, tracer.wrap(name, fn, annotate))
    cli.compute_all = solve

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        report["exit"] = code
        report["peak_rss_mib"] = peak_rss_mib()
        report["spans"] = tracer.spans
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
