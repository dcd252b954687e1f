"""Property-based test: ServingSpec wire round-trips are identity, always.

For any valid spec, ``from_wire(to_wire(spec)) == spec`` and the JSON text
path round-trips bit-exactly (floats survive via repr round-trip, tuples are
restored from JSON lists).  Uses hypothesis when available and degrades to a
seeded parametrized sweep otherwise, following the other property suites.
"""

import random

import pytest

from repro.serving import ServingSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


WORKLOAD_NAMES = ["audio", "video", "heavy-traffic", "fleet-failover"]


def _spec_kwargs(rng: random.Random) -> dict:
    return {
        "workloads": tuple(
            rng.sample(WORKLOAD_NAMES, rng.randint(0, len(WORKLOAD_NAMES)))
        ),
        "duration_ms": rng.uniform(1.0, 5000.0),
        "requests": rng.choice([None, "requests.json"]),
        "random": rng.randint(0, 64),
        "mean_interarrival_us": rng.uniform(1.0, 5000.0),
        "seed": rng.randint(0, 2**31),
        "cluster": rng.random() < 0.5,
        "devices": rng.randint(1, 6),
        "software_workers": rng.randint(0, 3),
        "reconfig_us": rng.choice([None, rng.uniform(0.0, 1e6)]),
        "backend": rng.choice(["vectorized", "naive"]),
        "max_batch": rng.randint(1, 128),
        "max_wait_us": rng.uniform(1.0, 1e6),
        "deadline_us": rng.choice([None, rng.uniform(1.0, 1e6)]),
        "cycle_engine": rng.choice(["auto", "stepwise", "vectorized"]),
        "clock_mhz": rng.uniform(1.0, 500.0),
        "n_best": rng.randint(1, 8),
        "learn": rng.random() < 0.5,
        "learning_rate": rng.uniform(0.0, 1.0),
        "novelty_threshold": rng.uniform(0.0, 1.0),
        "learn_capacity": rng.randint(1, 64),
    }


def _assert_round_trip(spec: ServingSpec) -> None:
    assert ServingSpec.from_wire(spec.to_wire()) == spec
    assert ServingSpec.from_json(spec.to_json()) == spec
    assert ServingSpec.from_json(spec.to_json(indent=None)) == spec


if HAVE_HYPOTHESIS:

    @given(
        workloads=st.lists(st.sampled_from(WORKLOAD_NAMES), max_size=4).map(tuple),
        duration_ms=st.floats(1.0, 5000.0, allow_nan=False),
        random_count=st.integers(0, 64),
        mean_interarrival_us=st.floats(1.0, 5000.0, allow_nan=False),
        seed=st.integers(0, 2**31),
        cluster=st.booleans(),
        devices=st.integers(1, 6),
        software_workers=st.integers(0, 3),
        backend=st.sampled_from(["vectorized", "naive"]),
        max_batch=st.integers(1, 128),
        max_wait_us=st.floats(1.0, 1e6, allow_nan=False),
        deadline_us=st.none() | st.floats(1.0, 1e6, allow_nan=False),
        cycle_engine=st.sampled_from(["auto", "stepwise", "vectorized"]),
        clock_mhz=st.floats(1.0, 500.0, allow_nan=False),
        n_best=st.integers(1, 8),
        learn=st.booleans(),
        learning_rate=st.floats(0.0, 1.0, allow_nan=False),
        novelty_threshold=st.floats(0.0, 1.0, allow_nan=False),
        learn_capacity=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_is_identity(
        workloads, duration_ms, random_count, mean_interarrival_us, seed,
        cluster, devices, software_workers, backend, max_batch,
        max_wait_us, deadline_us, cycle_engine, clock_mhz, n_best, learn,
        learning_rate, novelty_threshold, learn_capacity,
    ):
        _assert_round_trip(ServingSpec(
            workloads=workloads,
            duration_ms=duration_ms,
            random=random_count,
            mean_interarrival_us=mean_interarrival_us,
            seed=seed,
            cluster=cluster,
            devices=devices,
            software_workers=software_workers,
            backend=backend,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            deadline_us=deadline_us,
            cycle_engine=cycle_engine,
            clock_mhz=clock_mhz,
            n_best=n_best,
            learn=learn,
            learning_rate=learning_rate,
            novelty_threshold=novelty_threshold,
            learn_capacity=learn_capacity,
        ))

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(40))
    def test_wire_round_trip_is_identity(seed):
        rng = random.Random(seed)
        _assert_round_trip(ServingSpec(**_spec_kwargs(rng)))


@pytest.mark.parametrize("seed", range(10))
def test_seeded_sweep_round_trips(seed):
    """A hypothesis-independent sweep covering the file-path axes too."""
    rng = random.Random(1000 + seed)
    _assert_round_trip(ServingSpec(**_spec_kwargs(rng)))
