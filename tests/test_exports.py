import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zipfest
from zipfest.law import make_zipf_law
from zipfest.montecarlo import ExperimentConfig
from zipfest.occupancy import OccupancyCounts

MODULES = ["zipfest"] + [f"zipfest.{m.name}" for m in pkgutil.iter_modules(zipfest.__path__)]

# the benchmark's modules, which import the package on every run
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("script", ["replay.py", "workloads.py"])
def test_every_name_the_benchmark_imports_resolves(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zipfest":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "zipfest"]
    assert imported
    missing = []
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            try:  # a submodule, as in ``from zipfest import ingest``
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_the_traced_replay_reads_resolve():
    # perfbench/replay.py reads these beyond its imports
    cfg = ExperimentConfig(theta=0.5, n=1000, m=100)
    assert (cfg.k_max, cfg.i0) == (8, 0)
    assert make_zipf_law(0.5, i0=0, tail_epsilon=1e-9).cutoff > 0
    snap = OccupancyCounts(counts={1: 2, 2: 1, 3: 1}, total=4).snapshot(k_max=3)
    assert snap.r_k == (2, 1, 0)
