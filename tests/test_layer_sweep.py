"""Smoke test of ``tools/layer_sweep.py``: the smallest structural row,
no oracle rows, in a child process, so the kernel wrappers it installs
stay out of this one."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {"from_entries", "theorem_check", "partition_report_first",
          "partition_report_second", "export_dot",
          "kernels.hopcroft_karp", "kernels.tarjan_scc", "kernels.search"}
KERNELS = {name for name in LAYERS if name.startswith("kernels.")}


def test_sweep_at_one_thousand_states(tmp_path):
    out = tmp_path / "sweep.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "layer_sweep.py"),
                    "--sizes", "1000", "--oracle-sizes", "--out", str(out)],
                   check=True, timeout=300)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"git", "dirty", "nproc", "python", "numpy", "repeats",
                        "structural", "oracle"}
    assert doc["repeats"] == 5 and doc["oracle"] == []
    [row] = doc["structural"]
    assert set(row) == {"n", "p", "a_entries", "h_entries", "from_entries_memory", "layers"}
    assert row["n"] == 1000 and row["p"] == 50
    memory = row["from_entries_memory"]
    assert set(memory) == {"held_bytes", "peak_bytes"}
    assert 0 < memory["held_bytes"] <= memory["peak_bytes"]
    assert set(row["layers"]) == LAYERS
    for name, value in row["layers"].items():
        assert set(value) == ({"seconds", "probe_units", "calls"} if name in KERNELS
                              else {"seconds", "probe_units"})
        for spread in (value["seconds"], value["probe_units"]):
            assert set(spread) == {"median", "min", "max"}
            assert 0 <= spread["min"] <= spread["median"] <= spread["max"]
    assert all(row["layers"][name]["calls"] > 0 for name in KERNELS)
