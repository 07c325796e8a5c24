"""The benchmark's own tests: schema, smoke runs, and its checks.

    python3 -m pytest -q perfbench/tests

The smoke runs boot real services and run a real sweep (~2 minutes in
all on a 2-core host).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, traced: bool, seconds: float = 2.0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_equal_the_runner_schema():
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        common.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        common.PER_LAYER
    )
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_reports_every_metric_with_no_errors(workload):
    done = _run(workload, traced=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    assert "error_ratio" in done.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer():
    done = _run("serve-mixed", traced=True, seconds=4.0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["serve.runner_ms.cold"] > metrics["serve.runner_ms.warm"] > 0
    assert metrics["frontend.kernel_ms.inline"] > 0
    assert (common.WORK / "spans-serve-mixed.jsonl").exists()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep", traced=False, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- the checks count a corrupted answer as failed ------------------------------


def _corrupt(answer: bytes) -> bytes:
    return answer.replace(b'"btb_misses":', b'"btb_misses":1', 1)


def test_corrupted_sweep_answer_is_counted():
    committed = json.loads(sweep.DIGESTS.read_text())["digests"]
    app = next(iter(committed))
    digests = {app: dict(committed[app])}
    report = {
        "runs": [{"app": app, "design": name} for name in digests[app]],
        "digests": digests,
    }
    assert sweep.check_digests([report], committed) == set()
    digests[app]["shotgun"] = hashlib.sha256(b"corrupted").hexdigest()
    bad = list(digests[app]).index("shotgun")
    assert sweep.check_digests([report], committed) == {bad}


def test_sweep_times_scale_to_the_nominal_host_speed():
    nominal = sweep.PROBE_NOMINAL_S
    report = {"runs": [
        {"seconds": 2.0, "probes": [nominal, nominal]},
        {"seconds": 2.0, "probes": [2 * nominal, 2 * nominal]},
        {"seconds": 0.01, "probes": []},
    ]}
    assert sweep.at_nominal_speed(report) == [2.0, 1.0, 0.01]


def test_corrupted_serve_answers_are_counted(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    from repro.experiments import harness
    from repro.experiments.designs import design_registry
    from repro.serve.protocol import stats_payload

    pair = ("server_oltp_00", "baseline")
    answer = stats_payload(
        harness.run_one(pair[0], design_registry()[pair[1]], scale=serve.SCALE)
    )
    assert _corrupt(answer) != answer

    # Warm answers: byte-compared with the pre-warm answer.
    records = [serve.warm_record(pair) for _ in range(3)]
    for record in records:
        record.status, record.answer = 200, answer
    records[1].answer = _corrupt(answer)
    assert serve.check_answers(records, {pair: answer}, set()) == {1}

    # Pre-warm answers: checked against the golden digests.
    prewarm = serve.warm_record(pair)
    prewarm.status, prewarm.answer = 200, answer
    assert serve.golden_failures([prewarm]) == set()
    prewarm.answer = _corrupt(answer)
    assert serve.golden_failures([prewarm]) == {pair}

    # Inline answers: re-simulated in the benchmark process.
    inline = [serve.cold_record(7, index, "pdede-default") for index in range(2)]
    from repro.frontend.simulator import FrontendSimulator
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import WorkloadSpec

    for record in inline:
        btb, kwargs = design_registry()["pdede-default"].build()
        record.status = 200
        record.answer = stats_payload(FrontendSimulator(btb, **kwargs).run(
            generate_trace(WorkloadSpec(**record.spec)), warmup_fraction=0.3
        ))
    inline[0].answer = _corrupt(inline[0].answer)
    failed, timings = serve.resimulate(inline, random.Random(0))
    assert failed == {0}
    assert len(timings["kernel"]) == 2


def test_mixed_schedule_is_seeded_and_balanced():
    pairs = [("a", "d1"), ("b", "d2")]
    designs = ["d1", "d2", "d3"]
    first = serve.mixed_schedule(3, 6.0, pairs, designs)
    again = serve.mixed_schedule(3, 6.0, pairs, designs)
    assert [r.body for r in first] == [r.body for r in again]
    cold = [r for r in first if r.kind == "cold"]
    assert len(first) == 120 and len(cold) == 24
    assert all(len([r for r in first[i:i + 5] if r.kind == "cold"]) == 1
               for i in range(0, 120, 5))
    assert sorted(r.key[1] for r in cold) == sorted(designs * 8)
    assert len({r.spec["seed"] for r in cold}) == len(cold)
