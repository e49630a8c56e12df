"""The benchmark's hold on afo: the names it traces and the pools it runs.

`bench/tracing.py` finds each traced function by module and name and swaps
it wherever afo binds it, and `bench/workloads.py` drives the package
through `afo.cli`, `afo.semantics` and `afo.pipeline`.  A renamed function
stops the traced run, and a call path that bypasses a traced name leaves
its layer timing and counting nothing without any failure.  These checks
run small pools under the tracer and change nothing under `bench/`.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing
import workloads

SEED = 5


def test_every_traced_name_is_a_function_of_its_module():
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"afo.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"afo.{module}.{name}"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    pools = {
        "docs": workloads.docs(SEED, 6, tmp_path_factory.mktemp("docs")),
        "extensions": workloads.extensions(SEED, 4),
        "groupscan": workloads.groupscan(SEED, 3),
    }
    tracer = tracing.Tracer()
    wrong = []
    with tracer.installed():
        for workload, pool in pools.items():
            for instance in pool:
                problem = instance.check(instance.run())
                if problem is not None:
                    wrong.append(f"{workload} {instance.label}: {problem}")
    return tracer.summary(0, len(tracer.spans)), wrong


def test_small_pools_pass_their_checks_under_the_tracer(traced):
    _, wrong = traced
    assert wrong == []


# The derivation runs the group scan on the SCC masks of the framework's
# index (`pipeline._scan`), so it calls neither of these names and the
# layers and the `pipeline.groups_kept` counter read off them stay at 0
# until the tracer follows the private scan (ROADMAP item 1a).
BYPASSED = ("af.strongly_connected_components", "pipeline.maximal_conservative_subsets")


def test_the_traced_layers_record_calls(traced):
    summary, _ = traced
    for name in (
        "cli.main",
        "cli.parse_afo",
        "semantics.cf2",
        "abstraction.best_abstraction_of",
        "pipeline.derive_abstract_frameworks",
        "pipeline.sharpen",
    ):
        assert summary["calls"][name] > 0, name
    for name in BYPASSED:
        assert summary["calls"][name] == 0, name


def test_the_group_counters_move(traced):
    summary, _ = traced
    # each kept group's best abstraction is built once, by the scan
    assert summary["calls"]["abstraction.best_abstraction_of"] > 0
    assert summary["counts"]["pipeline.groups_kept"] == 0
    assert summary["counts"]["pipeline.frameworks_derived"] > 0
