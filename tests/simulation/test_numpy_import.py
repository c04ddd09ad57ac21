"""The import contract of the optional numpy backend.

NumPy is imported on first numpy use (``repro.simulation.numpy_backend.
load_numpy``), never by importing a module.  Each test here starts a fresh
interpreter, because the test process itself has numpy loaded by the
numpy-marked tests:

* importing every layer and running a python-backend flow and a serial
  campaign leaves ``numpy`` out of ``sys.modules``;
* with numpy unimportable, ``HAVE_NUMPY`` is false, the python flow runs and
  selecting the numpy backend fails with the ``repro[fast]`` hint;
* a numpy-backend flow in a fresh process signs the python run's report
  bytes, and so does a 2-worker campaign under ``fork`` and ``forkserver``;
  under ``fork`` the parent holds numpy before the pool starts, so no worker
  imports it again.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

SRC = Path(__file__).resolve().parents[2] / "src"

#: Builds ``circuit`` and ``config(sim_backend)`` in the child process; the
#: test process builds the same pair through :func:`small_case`.
PRELUDE = """
import hashlib, json, sys
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core

CORE = SyntheticCoreConfig(**json.loads(sys.argv[1]))
CONFIG = json.loads(sys.argv[2])
circuit = generate_synthetic_core(CORE).circuit

def config(sim_backend):
    return LogicBistConfig(**CONFIG, sim_backend=sim_backend)

def digest(data):
    return hashlib.sha256(data).hexdigest()
"""

CORE = dict(
    name="import_core",
    clock_domains=("clk1", "clk2"),
    num_inputs=8,
    num_outputs=5,
    register_width=6,
    pipeline_stages=1,
    adder_slices=1,
    adder_width=4,
    comparator_widths=(6,),
    decode_cone_width=5,
    cross_domain_links=1,
    seed=31,
)
CONFIG = dict(
    total_scan_chains=3,
    tpi_method="fault_sim",
    observation_point_budget=3,
    tpi_profile_patterns=32,
    random_patterns=96,
    signature_patterns=12,
    campaign_topup=True,
)

#: Refuses every numpy import the way a missing package does.
BLOCK_NUMPY = """
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("No module named 'numpy'")
        return None

sys.meta_path.insert(0, _NoNumpy())
"""


def run_child(script: str) -> dict:
    """Run ``PRELUDE + script`` in a fresh interpreter; its last stdout line
    is a JSON object."""
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(CORE), json.dumps(CONFIG)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def small_case():
    """The child's circuit and python-backend config, built here."""
    circuit = generate_synthetic_core(SyntheticCoreConfig(**CORE)).circuit
    return circuit, LogicBistConfig(**CONFIG)


@pytest.fixture(scope="module")
def python_digest() -> str:
    circuit, config = small_case()
    data = LogicBistFlow(config).run(circuit).report_bytes()
    return hashlib.sha256(data).hexdigest()


def test_python_paths_never_import_numpy(python_digest):
    got = run_child(PRELUDE + """
import repro.campaign, repro.service, repro.simulation.numpy_backend
from repro.campaign import CampaignRunner, CampaignScenario

loaded = ["numpy" in sys.modules]
flow = digest(LogicBistFlow(config("python")).run(circuit).report_bytes())
loaded.append("numpy" in sys.modules)
scenario = CampaignScenario("import_core", circuit, config("python"))
job = digest(CampaignRunner().run([scenario]).scenarios["import_core"].report_bytes())
loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "flow": flow, "job": job}))
""")
    assert got["loaded"] == [False, False, False]
    assert got["flow"] == python_digest
    assert got["job"] == python_digest


def test_without_numpy_the_python_flow_runs(python_digest):
    got = run_child(BLOCK_NUMPY + PRELUDE + """
from repro.faults import FaultSimulator
from repro.simulation import HAVE_NUMPY, SimBackendError

flow = digest(LogicBistFlow(config("python")).run(circuit).report_bytes())
try:
    FaultSimulator(circuit, backend="numpy")
    error = None
except SimBackendError as caught:
    error = str(caught)
print(json.dumps({"have": HAVE_NUMPY, "flow": flow, "error": error}))
""")
    assert got["have"] is False
    assert got["flow"] == python_digest
    assert got["error"] is not None and "repro[fast]" in got["error"]


@pytest.mark.numpy
def test_fresh_numpy_flow_signs_the_python_bytes(python_digest):
    got = run_child(PRELUDE + """
before = "numpy" in sys.modules
flow = digest(LogicBistFlow(config("numpy")).run(circuit).report_bytes())
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "flow": flow}))
""")
    assert got == {"before": False, "after": True, "flow": python_digest}


@pytest.mark.numpy
@pytest.mark.multiprocess
@pytest.mark.parametrize("method", ("fork", "forkserver"))
def test_pooled_numpy_job_signs_the_serial_oracle_bytes(method):
    circuit, config = small_case()
    oracle = CampaignRunner().run([CampaignScenario("import_core", circuit, config)])
    got = run_child(PRELUDE + f"""
import multiprocessing
from repro.campaign import CampaignRunner, CampaignScenario
from repro.campaign import scheduler

at_pool_start = []
start_pool = scheduler._ResilientPool.__init__

def recording_start(self, *args, **kwargs):
    at_pool_start.append("numpy" in sys.modules)
    start_pool(self, *args, **kwargs)

scheduler._ResilientPool.__init__ = recording_start
runner = CampaignRunner(
    num_workers=2, fault_shards=2, mp_context=multiprocessing.get_context({method!r})
)
result = runner.run([CampaignScenario("import_core", circuit, config("numpy"))])
print(json.dumps({{
    "job": digest(result.report_bytes()),
    "at_pool_start": at_pool_start,
    "children": len(multiprocessing.active_children()),
}}))
""")
    assert got["job"] == hashlib.sha256(oracle.report_bytes()).hexdigest()
    assert got["at_pool_start"] == [True]
    assert got["children"] == 0
