"""Import layering: each process loads only the modules it runs.

Package ``__init__``s resolve their exports on first use
(``repro._lazy``), so the runtime's commands never import the SNE
model, and the backend and runner registries load their built-ins
themselves instead of relying on what a process imported first
(docs/ARCHITECTURE.md, "Import layering").  Each check that depends on
import order runs in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime import Broker, dse_point_job

#: Modules of the paper model that no runtime command may load to
#: answer an analytic job.
MODEL_MODULES = (
    "repro.hw.sne",
    "repro.hw.mapper",
    "repro.snn",
    "repro.events.datasets",
    "repro.analysis",
    "repro.baselines",
)

PACKAGES = ("repro", "repro.analysis", "repro.baselines", "repro.energy",
            "repro.events", "repro.hw", "repro.runtime", "repro.snn")

#: Appended to a child's code: print which model modules it loaded.
REPORT_MODEL_MODULES = (
    "\nimport json, sys\n"
    f"print(json.dumps([m for m in {MODEL_MODULES!r} if m in sys.modules]),"
    " file=sys.stderr)\n"
)


def run_fresh(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_model_modules(proc: subprocess.CompletedProcess) -> list[str]:
    return json.loads(proc.stderr.splitlines()[-1])


class TestRuntimeLoadsNoModel:
    def test_cli_import_and_a_dse_point_job(self):
        proc = run_fresh(
            "import repro.runtime.cli\n"
            "from repro.runtime.jobs import dse_point_job, execute_job\n"
            "print(execute_job(dse_point_job(4))['n_slices'])\n"
            + REPORT_MODEL_MODULES
        )
        assert proc.stdout.strip() == "4"
        assert loaded_model_modules(proc) == []

    def test_serve_answers_a_dse_point_request(self, tmp_path):
        request = {"id": 1, "kind": "dse_point", "params": {"n_slices": 2}}
        proc = run_fresh(
            "from repro.runtime.cli import main\n"
            f"assert main(['serve', '--stdio', '--cache-dir', {str(tmp_path)!r}]) == 0\n"
            + REPORT_MODEL_MODULES,
            stdin=json.dumps(request) + "\n",
        )
        answer = json.loads(proc.stdout.splitlines()[0])
        assert answer["ok"] and answer["value"]["n_slices"] == 2
        assert loaded_model_modules(proc) == []

    def test_worker_runs_a_dse_point_chunk(self, tmp_path):
        spool = tmp_path / "spool"
        broker = Broker(spool)
        broker.submit([dse_point_job(3)], chunk_size=1)
        proc = run_fresh(
            "from repro.runtime.cli import main\n"
            f"assert main(['worker', '--spool', {str(spool)!r}, '--drain',"
            f" '--cache-dir', {str(tmp_path / 'cache')!r}]) == 0\n"
            + REPORT_MODEL_MODULES
        )
        (result,) = broker.collect(timeout=30)
        assert result.ok and result.value["n_slices"] == 3
        assert loaded_model_modules(proc) == []


class TestRegistriesLoadTheirBuiltins:
    def test_listing_backends_includes_cluster(self):
        proc = run_fresh(
            "from repro.runtime.backends import available_backends\n"
            "print(','.join(available_backends()))\n"
        )
        assert {"serial", "thread", "process", "cluster"} <= set(
            proc.stdout.strip().split(","))

    def test_making_the_cluster_backend_needs_no_prior_import(self):
        proc = run_fresh(
            "from repro.runtime.backends import make_backend\n"
            "print(make_backend('cluster', workers=1).name)\n"
        )
        assert proc.stdout.strip() == "cluster"

    def test_a_chaos_probe_runs_without_importing_chaos(self):
        proc = run_fresh(
            "import sys\n"
            "from repro.runtime.jobs import JobSpec, canonical_json, execute_job\n"
            "assert 'repro.runtime.chaos' not in sys.modules\n"
            "spec = JobSpec(kind='chaos_probe', key=canonical_json("
            "{'seed': 0, 'round': 1, 'x': 5, 'sleep_s': 0.0}))\n"
            "print(execute_job(spec)['squared'])\n"
        )
        assert proc.stdout.strip() == "25"


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
            assert name in listed, f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_each_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name, source in module._EXPORTS.items():
            submodule, _, attr = source.partition(":")
            defining = importlib.import_module(f"{package}.{submodule}")
            assert getattr(module, name) is getattr(defining, attr or name)

    def test_submodules_stay_reachable_as_attributes(self):
        proc = run_fresh(
            "import sys\n"
            "import repro.runtime\n"
            "assert 'repro.runtime.tracequery' not in sys.modules\n"
            "print(repro.runtime.tracequery.build_traces.__module__)\n"
            "try:\n"
            "    repro.runtime.no_such_name\n"
            "except AttributeError:\n"
            "    print('AttributeError')\n"
        )
        assert proc.stdout.split() == ["repro.runtime.tracequery", "AttributeError"]

    def test_fuzz_names_the_function_after_its_module_is_imported(self):
        proc = run_fresh(
            "import sys\n"
            "import repro.hw.fuzz\n"
            "from repro.hw import fuzz\n"
            "import repro.hw\n"
            "assert callable(fuzz) and fuzz is repro.hw.fuzz\n"
            "assert fuzz is sys.modules['repro.hw.fuzz'].fuzz\n"
            "print(fuzz.__name__)\n"
        )
        assert proc.stdout.strip() == "fuzz"
