"""The import-layering lint: the repo stays one-directional, and the
checker itself catches upward edges, resolves relative imports, and
exempts both root modules and function-local (lazy) imports."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_layering.py"

spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
check_layering = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_layering", check_layering)
spec.loader.exec_module(check_layering)


def write(root: Path, relative: str, content: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    for package in ("", "obs", "guard", "sim", "core", "exec", "faults",
                    "vswitch", "nf", "workloads", "analysis", "runner"):
        write(src, f"repro/{package}/__init__.py" if package
              else "repro/__init__.py")
    return src


def test_repo_is_clean():
    violations = check_layering.check_tree(REPO_ROOT / "src")
    assert violations == [], violations


def test_flags_absolute_upward_import(tree):
    write(tree, "repro/obs/report.py",
          "from repro.analysis.reporting import format_table\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 1
    module, lineno, target, reason = violations[0]
    assert module == "repro.obs.report"
    assert target == "repro.analysis.reporting"
    assert "'obs'" in reason and "'analysis'" in reason


def test_flags_relative_upward_import(tree):
    write(tree, "repro/sim/engine.py",
          "from ..core.isa import HaloIsa\n")
    violations = check_layering.check_tree(tree)
    assert [v[2] for v in violations] == ["repro.core.isa"]


def test_resolves_from_dot_import_names(tree):
    # ``from .. import analysis`` inside repro/sim names the upper package.
    write(tree, "repro/sim/engine.py", "from .. import analysis\n")
    violations = check_layering.check_tree(tree)
    assert [v[2] for v in violations] == ["repro.analysis"]


def test_downward_and_same_layer_imports_allowed(tree):
    write(tree, "repro/exec/backend.py",
          "from ..sim.trace import capture\n"
          "from ..core.isa import HaloIsa\n"
          "from .cores import run_cores\n")
    write(tree, "repro/exec/cores.py")
    assert check_layering.check_tree(tree) == []


def test_function_local_import_is_sanctioned(tree):
    write(tree, "repro/core/halo_system.py",
          "def backend(kind):\n"
          "    from ..exec.backend import make_backend\n"
          "    return make_backend\n")
    assert check_layering.check_tree(tree) == []


def test_root_modules_exempt(tree):
    write(tree, "repro/__main__.py",
          "from .analysis import experiments\n"
          "from .obs import Observability\n")
    assert check_layering.check_tree(tree) == []


def test_package_init_resolves_against_itself(tree):
    # repro/exec/__init__.py doing ``from .backend import X`` targets
    # repro.exec.backend (same layer) — not repro.backend.
    write(tree, "repro/exec/__init__.py",
          "from .backend import make_backend\n")
    write(tree, "repro/exec/backend.py")
    assert check_layering.check_tree(tree) == []


def test_restricted_layer_rejects_disallowed_importer(tree):
    # vswitch sits above faults in rank, but the dataplane must stay
    # fault-agnostic: only analysis/runner may depend on repro.faults.
    write(tree, "repro/vswitch/switch.py",
          "from ..faults.plan import FaultPlan\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 1
    module, _lineno, target, reason = violations[0]
    assert module == "repro.vswitch.switch"
    assert target == "repro.faults.plan"
    assert "may only be imported by" in reason


def test_restricted_layer_allows_sanctioned_importers(tree):
    write(tree, "repro/analysis/experiments.py",
          "from ..faults.plan import FaultPlan\n")
    write(tree, "repro/runner/scheduler.py",
          "from ..faults import FaultInjector\n")
    write(tree, "repro/faults/injector.py",
          "from .plan import FaultPlan\n"        # same layer
          "from ..sim.engine import Engine\n"    # downward
          "from ..exec.backend import make_backend\n")
    write(tree, "repro/faults/plan.py")
    assert check_layering.check_tree(tree) == []


def test_guard_layer_restricted_to_harness_importers(tree):
    # Modelled hardware (core, exec, ...) must never import the safety
    # net: guards are attached from sim/runner/analysis only.
    write(tree, "repro/core/halo_system.py",
          "from ..guard.presets import attach_standard_guard\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 1
    module, _lineno, target, reason = violations[0]
    assert module == "repro.core.halo_system"
    assert target == "repro.guard.presets"
    assert "may only be imported by" in reason


def test_guard_layer_allows_harness_importers(tree):
    write(tree, "repro/sim/engine.py",
          "from ..guard.watchdog import Watchdog\n")
    write(tree, "repro/runner/scheduler.py",
          "from ..guard import EngineGuard\n")
    write(tree, "repro/analysis/experiments.py",
          "from ..guard.presets import attach_standard_guard\n")
    write(tree, "repro/guard/watchdog.py",
          "from .errors import DeadlockError\n"   # same layer
          "from ..obs.metrics import Counter\n")  # downward
    write(tree, "repro/guard/errors.py")
    write(tree, "repro/guard/presets.py")
    assert check_layering.check_tree(tree) == []


def test_workloads_layer_restricted_to_harness_importers(tree):
    # The dataplane must never know which traffic scenario drives it:
    # vswitch/nf sit below workloads, sim even lower — none may import it.
    write(tree, "repro/vswitch/switch.py",
          "from ..workloads.churn import ChurnEngine\n")
    write(tree, "repro/nf/firewall.py",
          "from ..workloads import ChurnSpec\n")
    write(tree, "repro/sim/engine.py",
          "from ..workloads.phases import PhaseWindow\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 3
    assert {v[0] for v in violations} == {"repro.vswitch.switch",
                                          "repro.nf.firewall",
                                          "repro.sim.engine"}
    # vswitch/nf are below workloads in rank: upward violations; and the
    # restriction never grants an exemption to anyone below.
    assert all("must not import" in v[3] for v in violations)


def test_workloads_layer_allows_sanctioned_importers(tree):
    write(tree, "repro/analysis/experiments.py",
          "from ..workloads import ChurnEngine, ChurnSpec\n")
    write(tree, "repro/runner/scheduler.py",
          "from ..workloads.churn import ChurnEngine\n")
    write(tree, "repro/workloads/churn.py",
          "from .lifecycle import PoissonArrivals\n"      # same layer
          "from ..classifier.flow import make_flow\n")    # downward
    write(tree, "repro/workloads/lifecycle.py")
    write(tree, "repro/classifier/__init__.py")
    write(tree, "repro/classifier/flow.py")
    assert check_layering.check_tree(tree) == []


def test_restricted_layer_still_flags_upward_imports(tree):
    # The restriction must not shadow the plain rank rule: a module below
    # faults importing it is an upward violation, reported as such.
    write(tree, "repro/sim/engine.py",
          "from ..faults.plan import FaultPlan\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 1
    assert "must not import" in violations[0][3]


def test_cluster_is_top_layer_and_analysis_may_reach_it(tree):
    # The sanctioned upward edge: experiments sweep cluster configs.
    write(tree, "repro/cluster/__init__.py",
          "from .balancer import RssBalancer\n")
    write(tree, "repro/cluster/balancer.py",
          "from ..sim.interconnect import mix64\n"    # downward
          "from ..obs.metrics import Histogram\n")    # downward
    write(tree, "repro/analysis/experiments.py",
          "from ..cluster import run_cluster\n")      # allowed upward
    assert check_layering.check_tree(tree) == []


def test_model_layers_must_not_import_cluster(tree):
    # Only analysis holds the upward exemption; sim/core/exec/runner
    # importing the cluster is still an upward violation.
    write(tree, "repro/cluster/__init__.py")
    write(tree, "repro/runner/scheduler.py",
          "from ..cluster import run_cluster\n")
    write(tree, "repro/exec/cores.py",
          "from ..cluster.balancer import RssBalancer\n")
    violations = check_layering.check_tree(tree)
    assert len(violations) == 2
    assert all("must not import" in v[3] for v in violations)
    assert {v[0] for v in violations} == {"repro.runner.scheduler",
                                          "repro.exec.cores"}


def test_cli_exit_codes(tree, capsys):
    assert check_layering.main(["--src", str(tree)]) == 0
    write(tree, "repro/obs/report.py", "import repro.analysis\n")
    assert check_layering.main(["--src", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "layering check FAILED" in out
