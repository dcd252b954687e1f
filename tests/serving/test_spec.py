"""ServingSpec: the one schema behind every engine-construction surface.

Covers the PR's API-redesign contract: CLI argument parsing, the Python
construction path, the versioned wire round-trip and the spec-only
``ApplicationAPI`` surface all agree on what a serving setup *is*.
"""

import argparse

import pytest

from repro.api.schemas import SchemaError
from repro.apps import build_scenario
from repro.core import ReproError
from repro.core.exceptions import RequestError
from repro.serving import (
    FaultPlan,
    FaultSpec,
    ServingEngine,
    ServingSpec,
)


def _parse(argv, *, trace=True, cluster_args=False, replay=True):
    parser = argparse.ArgumentParser()
    if trace:
        ServingSpec.add_trace_arguments(parser)
    if cluster_args:
        ServingSpec.add_cluster_arguments(parser)
    ServingSpec.add_serving_arguments(parser)
    if replay:
        parser.add_argument("--engine", default="vectorized")
    return parser.parse_args(argv)


class TestFromArgs:
    def test_defaults_match_field_defaults(self):
        spec = ServingSpec.from_args(_parse([]))
        assert spec == ServingSpec()

    def test_full_argument_surface_round_trips(self):
        spec = ServingSpec.from_args(_parse([
            "--workload", "heavy-traffic", "--duration-ms", "250",
            "--random", "12", "--mean-interarrival-us", "80",
            "--seed", "9", "--max-batch", "8",
            "--max-wait-us", "200", "--deadline-us", "900",
            "--cycle-engine", "stepwise", "--clock-mhz", "100",
            "--n-best", "5", "--learn", "--learning-rate", "0.25",
            "--novelty-threshold", "0.8", "--learn-capacity", "4",
        ]))
        assert spec.workloads == ("heavy-traffic",)
        assert spec.duration_ms == 250.0
        assert spec.random == 12
        assert spec.mean_interarrival_us == 80.0
        assert spec.seed == 9
        assert spec.max_batch == 8
        assert spec.max_wait_us == 200.0
        assert spec.deadline_us == 900.0
        assert spec.cycle_engine == "stepwise"
        assert spec.clock_mhz == 100.0
        assert spec.n_best == 5
        assert spec.learn and spec.learning_rate == 0.25
        assert spec.novelty_threshold == 0.8 and spec.learn_capacity == 4

    def test_removed_shards_flag_is_not_parsed(self, capsys):
        # Case-base sharding is gone: its flag must fail loudly rather than
        # silently serve through one engine.
        with pytest.raises(SystemExit):
            _parse(["--shards", "4"])
        assert "--shards" in capsys.readouterr().err

    def test_engine_naive_maps_onto_the_backend_axis(self):
        assert ServingSpec.from_args(_parse(["--engine", "naive"])).backend == "naive"
        # 'compare' is CLI-side orchestration; the spec stays vectorized.
        assert ServingSpec.from_args(_parse(["--engine", "compare"])).backend == "vectorized"

    def test_cluster_arguments(self):
        args = _parse(["--devices", "3", "--software-workers", "2",
                       "--reconfig-us", "120"], cluster_args=True)
        spec = ServingSpec.from_args(args, cluster=True)
        assert spec.cluster
        assert (spec.devices, spec.software_workers, spec.reconfig_us) == (3, 2, 120.0)

    def test_validation_errors_surface_as_repro_errors(self):
        with pytest.raises(ReproError, match="n_best"):
            ServingSpec.from_args(_parse(["--n-best", "0"]))
        with pytest.raises(ReproError, match="at least one device"):
            ServingSpec.from_args(
                _parse(["--devices", "0", "--software-workers", "0"],
                       cluster_args=True),
                cluster=True,
            )
        with pytest.raises(ReproError, match="backend"):
            ServingSpec(backend="quantum")
        with pytest.raises(ReproError, match="cycle engine"):
            ServingSpec(cycle_engine="warp")


class TestConstruction:
    def test_build_engine_single_node(self):
        engine = ServingSpec(random=4, prefilter="bounds", n_best=2).build_engine()
        assert isinstance(engine, ServingEngine)
        assert engine.config.prefilter == "bounds"
        assert engine.config.n_best == 2
        assert engine.retriever.case_base is engine.case_base
        assert engine.retriever.prefilter == "bounds"

    def test_build_engine_cluster(self):
        engine = ServingSpec(random=4, cluster=True, devices=2,
                             software_workers=1).build_engine()
        assert isinstance(engine, ServingEngine) and engine.admission.cluster
        assert len(engine.fleet) == 3

    def test_resolve_inputs_rejects_case_base_with_workload_trace(self, tmp_path):
        spec = ServingSpec(case_base=str(tmp_path / "cb.json"))
        with pytest.raises(ReproError, match="--case-base"):
            spec.resolve_inputs()

    def test_resolve_inputs_builds_a_replayable_trace(self):
        spec = ServingSpec(random=6, seed=3)
        case_base, trace = spec.resolve_inputs()
        assert len(trace) == 6
        report = spec.build_engine(case_base).serve(trace)
        assert report.metrics["requests"] == 6

    def test_fault_plan_accepts_payload_mappings(self):
        spec = ServingSpec(fault_plan={"seed": 3, "faults": [
            {"kind": "worker_crash", "target": "hw0", "at_us": 100.0,
             "duration_us": 50.0},
        ]})
        assert isinstance(spec.fault_plan, FaultPlan)
        assert spec.fault_plan.seed == 3
        assert spec.fault_plan.faults[0].kind == "worker_crash"

    def test_fault_plan_rejects_non_plans(self):
        with pytest.raises(ReproError, match="fault_plan"):
            ServingSpec(fault_plan="chaos")


class TestWire:
    def test_wire_round_trip_is_identity(self):
        spec = ServingSpec(workloads=("heavy-traffic",), cluster=True,
                           devices=3, deadline_us=750.0, learn=True)
        assert ServingSpec.from_wire(spec.to_wire()) == spec
        assert ServingSpec.from_json(spec.to_json()) == spec

    def test_wire_document_is_versioned(self):
        document = ServingSpec().to_wire()
        assert document["kind"] == "serving-spec"
        assert document["schema_version"] >= 1

    def test_fault_plan_rides_the_wire(self):
        plan = FaultPlan(seed=11, faults=(
            FaultSpec(kind="worker_hang", target="hw1", at_us=200.0,
                      duration_us=400.0),
            FaultSpec(kind="conn_drop", every=5),
        ))
        spec = ServingSpec(cluster=True, fault_plan=plan)
        restored = ServingSpec.from_wire(spec.to_wire())
        assert restored == spec
        assert restored.fault_plan == plan
        # The axis stays optional: absent plans round-trip as None.
        assert ServingSpec.from_wire(ServingSpec().to_wire()).fault_plan is None

    def test_inline_execution_keys_of_old_specs_still_load(self):
        spec = ServingSpec(prefilter="bounds", max_batch=8)
        document = spec.to_wire()
        assert "execution" not in document and "workers" not in document
        document.update(execution="inline", workers=0)
        assert ServingSpec.from_wire(document) == spec

    @pytest.mark.parametrize("retired", [
        {"execution": "process", "workers": 2},
        {"execution": "process"},
        {"workers": 3},
        {"execution": "inline", "workers": 1},
    ])
    def test_process_tier_specs_fail_loudly(self, retired):
        document = ServingSpec(max_batch=8).to_wire()
        document.update(retired)
        with pytest.raises(SchemaError, match="removed process execution tier"):
            ServingSpec.from_wire(document)

    def test_single_shard_key_of_old_specs_still_loads(self):
        spec = ServingSpec(max_batch=8)
        document = spec.to_wire()
        assert "shards" not in document
        document["shards"] = 1
        assert ServingSpec.from_wire(document) == spec

    @pytest.mark.parametrize("shards", [4, 2, 0])
    def test_multi_shard_specs_fail_loudly(self, shards):
        document = ServingSpec().to_wire()
        document["shards"] = shards
        with pytest.raises(SchemaError, match="case-base sharding .*'shards'"):
            ServingSpec.from_wire(document)


class TestApplicationApiShims:
    def test_spec_first_construction(self):
        scenario = build_scenario()
        spec = ServingSpec(max_batch=8, n_best=2)
        engine = scenario.application_api.serving_engine(spec)
        assert isinstance(engine, ServingEngine)
        assert engine.case_base is scenario.manager.case_base
        assert engine.config.max_batch == 8

    def test_spec_first_cluster_construction(self):
        scenario = build_scenario()
        spec = ServingSpec(cluster=True, devices=2, software_workers=1, n_best=2)
        engine = scenario.application_api.cluster_engine(spec)
        assert isinstance(engine, ServingEngine) and engine.admission.cluster
        assert len(engine.fleet) == 3
        assert engine.fleet.repository is scenario.manager.repository

    def test_missing_spec_is_rejected(self):
        scenario = build_scenario()
        with pytest.raises(RequestError, match="requires a ServingSpec"):
            scenario.application_api.serving_engine()
        with pytest.raises(RequestError, match="requires a ServingSpec"):
            scenario.application_api.cluster_engine()

    def test_legacy_kwargs_are_gone(self):
        """The PR 6 keyword-override shim was removed outright in PR 7."""
        scenario = build_scenario()
        with pytest.raises(TypeError):
            scenario.application_api.serving_engine(max_batch=2, n_best=2)
        assert not hasattr(ServingSpec, "from_engine_kwargs")

    def test_non_spec_arguments_are_rejected(self):
        scenario = build_scenario()
        with pytest.raises(RequestError, match="ServingSpec"):
            scenario.application_api.serving_engine({"max_batch": 2})
