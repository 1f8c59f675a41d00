"""Tests of the benchmark's own pieces: seeded inputs and the front audit.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from audit import audit_front, front_digest  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402


def _fingerprints(workload, inputs):
    from repro import generate_instance
    from repro.parallel.shm import instance_fingerprint

    return [
        instance_fingerprint(generate_instance(workload.instance_class, workload.n_customers, seed=s))
        for s in inputs.instance_seeds
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_always_gives_the_same_inputs(name):
    workload = WORKLOADS[name]
    first = make_inputs(workload, 7, 20)
    again = make_inputs(workload, 7, 20)
    assert first == again
    assert _fingerprints(workload, first) == _fingerprints(workload, again)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(name):
    workload = WORKLOADS[name]
    first = make_inputs(workload, 7, 20)
    other = make_inputs(workload, 8, 20)
    assert first.instance_seeds != other.instance_seeds
    assert first.search_seeds != other.search_seeds
    assert first.arrivals != other.arrivals or workload.kind != "serve"
    assert set(_fingerprints(workload, first)).isdisjoint(_fingerprints(workload, other))


def test_template_sets_do_not_depend_on_run_length():
    workload = WORKLOADS["serve-open-r1-100"]
    short, long = make_inputs(workload, 3, 10), make_inputs(workload, 3, 30)
    assert short.instance_seeds == long.instance_seeds
    assert short.search_seeds == long.search_seeds


def test_open_loop_schedule_is_a_sorted_stream_over_the_window():
    workload = WORKLOADS["serve-open-r1-100"]
    arrivals = make_inputs(workload, 3, 20).arrivals
    assert len(arrivals) == round(workload.rate * 20)
    assert list(arrivals) == sorted(arrivals)
    assert 0.0 <= arrivals[0] and arrivals[-1] < 20.0


def test_every_other_served_job_carries_its_own_instance():
    workload = WORKLOADS["serve-open-r1-100"]
    inputs = make_inputs(workload, 3, 20)
    picks = [inputs.template_instance(workload, t) for t in range(workload.templates)]
    assert picks[0::2] == [0] * (workload.templates // 2)
    assert set(picks[1::2]) == set(range(1, 1 + workload.own_instances))


@pytest.fixture(scope="module")
def solved():
    from repro import TSMOParams, generate_instance, run_sequential_tsmo

    instance = generate_instance("R1", 25, seed=5)
    params = TSMOParams(max_evaluations=600, neighborhood_size=20)
    return instance, params, run_sequential_tsmo(instance, params, seed=2)


def test_audit_passes_a_real_front(solved):
    instance, params, result = solved
    assert audit_front(result, instance, params.archive_capacity) == []


def test_audit_catches_a_stored_objective_that_is_off_by_one_ulp(solved):
    import math

    instance, params, result = solved
    entry = result.archive[0]
    bad = entry.objectives._replace(distance=math.nextafter(entry.objectives.distance, math.inf))
    tampered = SimpleNamespace(archive=[SimpleNamespace(item=entry.item, objectives=bad)])
    assert any("evaluate()" in p for p in audit_front(tampered, instance, params.archive_capacity))
    assert front_digest(tampered) != front_digest(SimpleNamespace(archive=[entry]))


def test_audit_catches_dominated_entries_and_overfull_archives(solved):
    instance, _, result = solved
    entry = result.archive[0]
    twice = SimpleNamespace(archive=[entry, entry])
    assert audit_front(twice, instance, capacity=1) == ["archive holds 2 > capacity 1"]
    worse = SimpleNamespace(
        item=entry.item,
        objectives=entry.objectives._replace(distance=entry.objectives.distance + 1.0),
    )
    problems = audit_front(SimpleNamespace(archive=[entry, worse]), instance, capacity=2)
    assert "entry 0 dominates entry 1" in problems
