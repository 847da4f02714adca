"""Smoke test of the benchmark itself, on a few instances per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_library()

TINY = {"dd_wgd_mis": 4, "dd_wgd_dcj": 4, "reduce_sat": 3}
PER_LAYER = {**{m: "s" for m in run.PER_LAYER_TIMES}, **run.PER_LAYER_OTHER}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = run.run_workload(name, run.DEFAULT_SEED, 0, trace,
                              count=TINY[name], golden=run.load_golden())
    assert result["correct"], result["errors"]
    assert result["attempted"] >= TINY[name] and result["failed"] == 0
    expected = PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    run.report(result, run.environment(), trace)
    printed = capsys.readouterr().out.splitlines()
    for metric, unit in expected.items():
        assert any(line.startswith("%s %s " % (name, metric)) and line.endswith(" " + unit)
                   for line in printed), metric
    assert "%s failed_frac 0 ratio" % name in "\n".join(printed)


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", ["dd_wgd_mis", "dd_wgd_dcj"])
def test_corrupted_golden_value_counts_as_failed(name):
    golden = copy.deepcopy(run.load_golden())
    values = golden["workloads"][name]["dd"]
    values[1] = str(Fraction(values[1]) + 1)
    result = run.run_workload(name, run.DEFAULT_SEED, 0, 0, count=2, golden=golden)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert all("slot 1:" in err for err in result["errors"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dd_wgd_dcj",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
