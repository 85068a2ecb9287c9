"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import job  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path)
from checks import colored_partitions  # noqa: E402
from workloads import Job, write_mix  # noqa: E402


def _runner(tmp_path):
    return run.Runner({}, perf_counter() + 60, tmp_path / "work")


def test_same_seed_gives_identical_matrix_files(tmp_path):
    first = write_mix(7, tmp_path / "a")
    second = write_mix(7, tmp_path / "b")
    other = write_mix(8, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def test_e11_is_a_failed_job_not_a_benchmark_crash(tmp_path):
    job = Job("e11@30", ("--preset", "e11"), ((2,),) * 11, 30)
    result = _runner(tmp_path).run_job(job, traced=False, job_id="e11")
    assert (result.exit, result.status) == (1, "refused")
    assert result.solve_s > 0 and result.forms["pingpong"] > 0
    assert run.pass_metrics([result])["ok_rate"] == 0.0


def test_compute_all_wrapper_never_called_is_a_benchmark_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[2,-1],[0,2]]")  # not a GCM: the CLI exits 3 before solving
    job = Job("bad@3", ("--matrix", str(bad)), ((2, -1), (0, 2)), 3)
    with pytest.raises(run.BenchmarkError, match="called 0 times"):
        _runner(tmp_path).run_job(job, traced=False, job_id="bad")


def test_p8_starts_1_8_44_192_726():
    assert colored_partitions(8, 4) == [1, 8, 44, 192, 726]


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_a_removed_layer_name_is_absent_not_an_error():
    import rootmult.cli  # noqa: F401

    assert job.resolve("rootmult.peterson.RootTable") is not None
    assert job.resolve("rootmult.peterson.no_such_layer") is None
    assert job.resolve("rootmult.no_such_module.pingpong") is None


def test_scaling_to_reference_speed_touches_only_times():
    metrics = {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mib": 20.0, "ok_rate": 1.0}
    assert run.scaled(metrics, 0.5) == {"wall_s": 1.0, "setup_s": 0.25,
                                        "peak_rss_mib": 20.0, "ok_rate": 1.0}
