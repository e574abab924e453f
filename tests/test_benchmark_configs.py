"""Every benchmark workload's smoke config must run through the CLI.

``perfbench/workloads.py`` names the CLI keys and values the benchmark
passes, so a CLI change that rejects or misreads one of them fails here
rather than on every benchmark input.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from randskew.cli import main

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", list(_workloads().values()),
                         ids=lambda w: w.name)
def test_smoke_config_runs_and_passes_its_check(tmp_path, workload):
    cfg = workload.config_for(smoke=True)
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "out.csv"
    assert main([workload.command, "--config", str(path), "--seed", "1",
                 "--out", str(out)]) == 0
    problems, _ = workload.check(out, cfg)
    assert problems == []
