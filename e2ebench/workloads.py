"""Workload runners: the closed loops and the open-loop service stream.

A runner sets up (several times, so set-up time is a median), runs its
timed window through public entry points only -- ``run_sequential_tsmo``,
``run_multiprocessing_tsmo``, ``SolveScheduler.submit`` / ``Job.wait``
-- and then, outside the window, audits every front it got back.

With tracing on, the closed loops run each template twice in a row,
once traced and once not, so the tracing overhead is measured on
identical work; the open loop traces its second half of jobs.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from audit import (
    audit_front,
    front_digest,
    leftover_segments,
    leftover_workers,
    peak_rss_mb,
    rss_probe,
    shm_segments,
)
from inputs import TENANTS, Inputs, Workload
from layers import Recorder, install

__all__ = ["Outcome", "percentile", "run_workload"]

#: set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3

_SRC = Path(__file__).resolve().parent.parent / "src"

#: the unattributed share of a traced closed-loop solve may not exceed
#: this (ROADMAP's rule: phases reconcile with wall time within 5%).
RECONCILE_SHARE = 0.05


@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    latencies: list[float] = field(default_factory=list)
    evaluations: int = 0
    window_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _import_s() -> float:
    """Seconds a fresh interpreter takes to start and import the program.

    Each set-up repetition pays it, so the import is inside the median
    that ``setup_s`` reports.
    """
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=env, check=True)
    return time.perf_counter() - started


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _sum_counts(rows: list[dict]) -> dict:
    total: dict = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def _check_digests(digests: dict, out: Outcome) -> None:
    for key, seen in digests.items():
        if len(set(seen)) > 1:
            out.problems.append(f"template {key}: repeated solves gave {len(set(seen))} different fronts")


def _check_pools(reports: list[dict], out: Outcome) -> None:
    for report in reports:
        bad = report["crashes"] + report["retries"] + report["master_fallback_tasks"]
        if bad:
            out.failed += bad
            out.problems.append(
                f"pool: {report['crashes']} crashes, {report['retries']} retries, "
                f"{report['master_fallback_tasks']} master fallbacks"
            )


def _check_hygiene(out: Outcome, segments_before: set[str]) -> None:
    workers = leftover_workers()
    segments = leftover_segments(segments_before)
    if workers or segments:
        out.failed += workers + segments
        out.problems.append(f"left behind {workers} worker processes and {segments} shm segments")


def _cache_ratio(stats) -> float:
    stats = [s for s in stats if s is not None]
    hits = sum(s.hits for s in stats)
    return _ratio(hits, hits + sum(s.misses for s in stats))


def _pool_metrics(rec: Recorder, reports: list[dict]) -> dict:
    p50s = [r["latency"]["p50"] for r in reports if r["latency"]["p50"] is not None]
    return {
        "pool.boot_s": _median(rec.boots),
        "pool.gather_s_per_iter": statistics.fmean(rec.gathers) if rec.gathers else 0.0,
        "pool.task_latency_p50_s": _median(p50s),
        "pool.retries": sum(r["retries"] for r in reports),
        "pool.crashes": sum(r["crashes"] for r in reports),
    }


def _wire_metrics(rows: list[dict]) -> dict:
    total = _sum_counts(rows)
    delta, full = total.get("delta_tasks", 0), total.get("full_tasks", 0)
    return {
        "wire.batch_bytes_per_task": _ratio(total.get("wire_batch_bytes", 0), total.get("tasks_completed", 0)),
        "wire.delta_task_ratio": _ratio(delta, delta + full),
    }


def _wire_counts(report: dict) -> dict:
    transport = report["transport"]
    return {
        "wire_batch_bytes": transport["wire_batch_bytes"],
        "delta_tasks": transport["delta_tasks"],
        "full_tasks": transport["full_tasks"],
        "tasks_completed": report["tasks_completed"],
    }


def _engine_metrics(rec: Recorder, layers: dict, iterations: int, exact: dict) -> dict:
    """Engine, dominance-filter and archive metrics.

    ``layers`` are traced span aggregates over ``iterations`` traced
    iterations; ``exact`` are side counts over a fixed set of solves or
    jobs, identical in every run of one seed.
    """
    get = lambda name: layers.get(name, (0, 0.0, 0.0))  # noqa: E731
    construction = get("construction")
    neighborhood = get("neighborhood")
    mask_calls = exact.get("mo.nondom_mask.calls", 0)
    adds = exact.get("mo.archive.try_add.calls", 0)
    exact_iterations = exact.get("iterations", 0)
    return {
        "construction.s_per_solve": _ratio(construction[1], construction[0]),
        "neighborhood.s_per_iter": _ratio(neighborhood[1], iterations),
        "neighborhood.us_per_neighbor": 1e6 * _ratio(neighborhood[1], rec.counts["neighborhood.neighbors"]),
        "tabu.select_self_s_per_iter": _ratio(get("tabu.select")[2], iterations),
        "mo.nondom_mask.s_per_iter": _ratio(get("mo.nondom_mask")[1], iterations),
        "mo.nondom_mask.calls_per_iter": _ratio(mask_calls, exact_iterations),
        "mo.nondom_mask.points_per_call": _ratio(exact.get("mo.nondom_mask.points", 0), mask_calls),
        "mo.archive.try_add_s_per_iter": _ratio(get("mo.archive.try_add")[1], iterations),
        "mo.archive.try_add_calls_per_iter": _ratio(adds, exact_iterations),
        "mo.archive.accept_ratio": _ratio(exact.get("mo.archive.accepts", 0), adds),
    }


# -- closed loops ------------------------------------------------------------
def _closed(workload: Workload, inputs: Inputs, seconds: float, trace: bool) -> Outcome:
    from repro import TSMOParams, generate_instance, run_multiprocessing_tsmo, run_sequential_tsmo

    out = Outcome()
    for _ in range(SETUP_REPS):
        imported = _import_s()
        started = time.perf_counter()
        instances = [
            generate_instance(workload.instance_class, workload.n_customers, seed=s)
            for s in inputs.instance_seeds
        ]
        out.setup_s.append(imported + time.perf_counter() - started)
    params = TSMOParams(max_evaluations=workload.evaluations, neighborhood_size=workload.neighborhood)

    def solve(instance, seed):
        if workload.kind == "seq":
            return run_sequential_tsmo(instance, params, seed=seed)
        return run_multiprocessing_tsmo(instance, params, n_workers=workload.workers, seed=seed)

    rec = Recorder()
    k = workload.templates
    solved = []  # (template, traced, iterations, cache stats, pool report)
    digests: dict[int, list[str]] = {}
    latencies = {False: [], True: []}
    counts_by_template: dict[int, list[dict]] = {}

    def check(template: int, result) -> None:
        # Audited at once and dropped, so the run holds one result at a
        # time and peak RSS stays the program's own.
        for problem in audit_front(result, instances[template], params.archive_capacity):
            out.problems.append(f"template {template}: {problem}")
        digests.setdefault(template, []).append(front_digest(result))

    def run_one(i: int) -> float:
        # Traced runs solve each template twice in a row: traced, then not.
        template = (i // 2) % k if trace else i % k
        traced = trace and i % 2 == 0
        out.attempted += 1
        before = rec.snapshot()
        rec.active = traced
        started = time.perf_counter()
        try:
            with rec.span("solve"):
                result = solve(instances[template], inputs.search_seeds[template])
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
            out.failed += 1
            out.problems.append(f"solve of template {template} raised {exc!r}")
            return time.perf_counter() - started
        finally:
            rec.active = False
        elapsed = time.perf_counter() - started
        latencies[traced].append(elapsed)
        out.evaluations += result.evaluations
        pool = result.extra.get("pool")
        solved.append((template, traced, result.iterations, result.cache_stats, pool))
        if traced:
            counts = {key: value - before.get(key, 0) for key, value in rec.snapshot().items()}
            counts["iterations"] = result.iterations
            if pool is not None:
                counts.update(_wire_counts(pool))
            counts_by_template.setdefault(template, []).append(counts)
        check(template, result)
        return elapsed

    segments_before = shm_segments()
    with rss_probe() as peak, (install(rec) if trace else contextlib.nullcontext()):
        # Whole cycles only, so every template weighs the same in every
        # run: after the first cycle, the run takes as many cycles as
        # come closest to the requested length.  The window is the time
        # spent in solve calls; the checks between them are not in it.
        cycle = 2 * k if trace else k
        i, target = 0, cycle
        while i < target:
            out.window_s += run_one(i)
            i += 1
            if i == cycle:
                target = cycle * max(1, round(seconds / out.window_s))
        if all(len(d) < 2 for d in digests.values()):
            # One cycle solves each template once: repeat one to check
            # that a repeated (instance, seed) gives the identical front.
            try:
                check(0, solve(instances[0], inputs.search_seeds[0]))
            except Exception as exc:  # noqa: BLE001 - counted like any failed solve
                out.failed += 1
                out.problems.append(f"repeat solve of template 0 raised {exc!r}")
        out.rss_mb = peak_rss_mb(peak)
    out.latencies = latencies[False]
    _check_digests(digests, out)
    _check_pools([pool for *_, pool in solved if pool is not None], out)
    _check_hygiene(out, segments_before)
    out.detail["solves_per_template"] = [len(digests.get(t, ())) for t in range(k)]
    if trace:
        out.layers = _closed_layers(rec, solved, counts_by_template, latencies, out, k)
    return out


def _closed_layers(rec, solved, counts_by_template, latencies, out: Outcome, k: int) -> dict:
    traced = [row for row in solved if row[1]]
    # Exact counts come from the first traced solve of every template:
    # the same solves in every run of one seed.  Later traced solves of
    # a template must repeat them exactly.
    if len(counts_by_template) < k:
        out.problems.append(f"traced window reached {len(counts_by_template)} of {k} templates")
    firsts = [rows[0] for rows in counts_by_template.values()]
    repeats = 0
    for template, rows in counts_by_template.items():
        for row in rows[1:]:
            repeats += 1
            if row != rows[0]:
                out.problems.append(f"template {template}: traced counts did not repeat")
    out.detail["count_repeats_checked"] = repeats
    layers = {name: tuple(v) for name, v in rec.layers.items()}
    solve = layers.get("solve", (0, 0.0, 0.0))
    unattributed = _ratio(solve[2], solve[1])
    if unattributed > RECONCILE_SHARE:
        out.problems.append(f"layer spans cover only {1 - unattributed:.1%} of traced solve time")
    metrics = _engine_metrics(rec, layers, sum(row[2] for row in traced), _sum_counts(firsts))
    metrics.update(_pool_metrics(rec, [row[4] for row in traced if row[4] is not None]))
    metrics.update(_wire_metrics(firsts))
    metrics["stats_cache.hit_ratio"] = _cache_ratio(row[3] for row in traced)
    metrics["trace.unattributed_share"] = unattributed
    metrics["trace.overhead_ratio"] = _ratio(_median(latencies[True]), _median(latencies[False]))
    return metrics


# -- open loop ---------------------------------------------------------------
async def _serve(workload: Workload, inputs: Inputs, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from repro import JobSpec, SolveScheduler, TSMOParams, generate_instance
    from repro.errors import AdmissionError
    from repro.serve.ledger import LEDGER_FILENAME, JobLedger

    out = Outcome()
    rec = Recorder()
    params = TSMOParams(max_evaluations=workload.evaluations, neighborhood_size=workload.neighborhood)
    k = workload.templates

    def spec(job_id: str, i: int) -> JobSpec:
        template = i % k
        own = inputs.template_instance(workload, template)
        return JobSpec(
            job_id=job_id,
            tenant=TENANTS[(i // 2) % len(TENANTS)],
            seed=inputs.search_seeds[template],
            params=params,
            instance=instances[own] if own else None,
        )

    served = []  # (template, result)
    reports = []
    ledgers = []
    segments_before = shm_segments()
    with rss_probe() as peak, (install(rec) if trace else contextlib.nullcontext()):
        rec.active = trace  # set-up pools are traced for pool.boot_s
        scheduler = None
        for rep in range(SETUP_REPS):
            if scheduler is not None:
                await scheduler.close()
                reports.append(scheduler.report()["pool"])
            imported = _import_s()
            started = time.perf_counter()
            instances = [
                generate_instance(workload.instance_class, workload.n_customers, seed=s)
                for s in inputs.instance_seeds
            ]
            directory = workdir / f"serve-{rep}"
            ledgers.append(JobLedger(directory / LEDGER_FILENAME))
            scheduler = SolveScheduler(
                instances[0],
                n_workers=workload.workers,
                checkpoint_dir=directory,
                checkpoint_every=workload.checkpoint_every,
            )
            scheduler.start()
            warmup = scheduler.submit(spec(f"warmup-{rep}", 0))
            served.append((0, await warmup.wait()))
            out.setup_s.append(imported + time.perf_counter() - started)
        rec.active = False
        traced_state = None

        async def finish(i: int, job, due: float):
            try:
                result = await job.wait()
            except Exception as exc:  # noqa: BLE001 - failed or cancelled jobs are counted
                out.failed += 1
                out.problems.append(f"job {job.job_id} ended {job.state}: {exc!r}")
                return None
            return i, job, result, time.monotonic() - due

        n_jobs = len(inputs.arrivals)
        half = n_jobs // 2 if trace else n_jobs
        late = []
        waits = []
        try:
            window_start = time.monotonic()
            for i, offset in enumerate(inputs.arrivals):
                due = window_start + offset
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                if i == half:
                    traced_state = (
                        {n: tuple(v) for n, v in rec.layers.items()},
                        rec.snapshot(),
                        time.perf_counter(),
                    )
                    rec.active = True
                late.append(time.monotonic() - due)
                out.attempted += 1
                try:
                    job = scheduler.submit(spec(f"job-{i:05d}", i))
                except AdmissionError as exc:
                    out.failed += 1
                    out.problems.append(f"job {i} rejected: {exc}")
                    continue
                waits.append(asyncio.create_task(finish(i, job, due)))
            finished = [f for f in await asyncio.gather(*waits) if f is not None]
            out.window_s = time.monotonic() - window_start
            traced_end = time.perf_counter()
            rec.active = False
            service = scheduler.report()
        finally:
            await scheduler.close()
        reports.append(scheduler.report()["pool"])
        # After the close, so the workers that served the window are in it.
        out.rss_mb = peak_rss_mb(peak)
    # Evaluations per second on this loop are the offered load unless
    # the service falls behind; the drain after the last arrival shows it.
    out.detail["drain_s"] = out.window_s - inputs.arrivals[-1]

    # Checks, outside the window.
    for ledger in ledgers:
        audit = ledger.audit()
        if not audit["conserved"]:
            out.failed += 1
            out.problems.append(f"ledger {ledger.path.parent.name} not conserved: {audit}")
    if service["rejected"] or service["failed"] or service["cancelled"]:
        out.problems.append(f"scheduler report: {service}")
    _check_pools(reports, out)
    _check_hygiene(out, segments_before)
    jobs = []
    for i, job, result, latency in finished:
        out.latencies.append(latency)
        out.evaluations += result.evaluations
        served.append((i % k, result))
        jobs.append((i, job, latency))
    # Every lockstep job must equal the sequential search on its own
    # instance and seed; one oracle solve per template covers them all.
    from repro import run_sequential_tsmo

    oracle = {}
    for template, result in served:
        instance = instances[inputs.template_instance(workload, template)]
        if template not in oracle:
            expected = run_sequential_tsmo(instance, params, seed=inputs.search_seeds[template])
            oracle[template] = front_digest(expected)
        if front_digest(result) != oracle[template]:
            out.problems.append(f"template {template}: served front differs from run_sequential_tsmo")
        for problem in audit_front(result, instance, params.archive_capacity):
            out.problems.append(f"template {template}: {problem}")
    out.detail["jobs_per_template_checked"] = len(served) / max(1, len(oracle))
    if trace:
        out.layers = _serve_layers(rec, jobs, half, late, traced_state, traced_end, reports, served, out, k)
    return out


def _serve_layers(rec, jobs, half, late, traced_state, traced_end, reports, served, out, k) -> dict:
    traced_jobs = [(i, job) for i, job, _ in jobs if i >= half]
    n = max(1, len(traced_jobs))

    def per_job(layer: str) -> list[tuple[int, float]]:
        return [tuple(rec.per_job.get((layer, job.job_id), (0, 0.0))) for _, job in traced_jobs]

    # Ledger records and checkpoint commits per job are fixed by the
    # job's template, so they repeat exactly in every run of one seed;
    # jobs of one template must agree within the run too.
    by_template: dict[int, set] = {}
    for (i, _), ledger, commit in zip(traced_jobs, per_job("ledger.record"), per_job("persistence.commit")):
        by_template.setdefault(i % k, set()).add((ledger[0], commit[0]))
    for template, seen in by_template.items():
        if len(seen) > 1:
            out.problems.append(f"template {template}: ledger/checkpoint counts differ between jobs: {seen}")
    start_layers, start_counts, traced_start = traced_state
    layers = {}
    for name, (calls, total, self_time) in rec.layers.items():
        c0, t0, s0 = start_layers.get(name, (0, 0.0, 0.0))
        layers[name] = (calls - c0, total - t0, self_time - s0)
    iterations = layers.get("tabu.select", (0, 0.0, 0.0))[0]
    exact = {key: value - start_counts.get(key, 0) for key, value in rec.snapshot().items()}
    exact["iterations"] = iterations
    metrics = _engine_metrics(rec, layers, iterations, exact)
    metrics.update(_pool_metrics(rec, reports[-1:]))
    metrics.update(_wire_metrics([_wire_counts(reports[-1])]))
    metrics["stats_cache.hit_ratio"] = _cache_ratio(r.cache_stats for _, r in served)
    metrics.update(
        {
            "persistence.checkpoint_s_per_job": sum(t for _, t in per_job("persistence.commit")) / n,
            "persistence.checkpoints_per_job": sum(c for c, _ in per_job("persistence.commit")) / n,
            "ledger.record_s_per_job": sum(t for _, t in per_job("ledger.record")) / n,
            "ledger.records_per_job": sum(c for c, _ in per_job("ledger.record")) / n,
            "serve.submit_s_p50": _median(t for _, t in per_job("serve.submit")),
            "serve.queue_wait_p50_s": _median(job.started_at - job.submitted_at for _, job, _ in jobs),
            "serve.run_p50_s": _median(job.finished_at - job.started_at for _, job, _ in jobs),
            "loadgen.late_p50_s": _median(late),
            "loadgen.late_max_s": max(late),
        }
    )
    # The event loop's thread: every layer but the pool poll, which
    # runs in a helper thread while the loop waits.
    main_thread = sum(s for name, (_, _, s) in layers.items() if name != "pool.poll")
    metrics["trace.unattributed_share"] = 1.0 - _ratio(main_thread, traced_end - traced_start)
    untraced = [latency for i, _, latency in jobs if i < half]
    traced = [latency for i, _, latency in jobs if i >= half]
    metrics["trace.overhead_ratio"] = _ratio(_median(traced), _median(untraced))
    return metrics


def run_workload(workload: Workload, inputs: Inputs, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """One run of ``workload``; the checks' findings are in the outcome."""
    if workload.kind == "serve":
        return asyncio.run(_serve(workload, inputs, seconds, trace, workdir))
    return _closed(workload, inputs, seconds, trace)
