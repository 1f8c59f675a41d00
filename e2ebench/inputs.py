"""The four benchmark workloads and the seeded inputs they run on.

Every input a run feeds the program -- instances, search seeds and,
for the open loop, arrival times -- is a pure function of the workload
name, the ``--seed`` argument and the run length.  The program only
ever receives these generated values.

Each run cycles a fixed set of *templates* (one instance plus one
search seed each) derived from the workload seed, so two runs of one
seed measure exactly the same jobs, and the job mix of a run does not
depend on how many jobs fit into its window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["TENANTS", "WORKLOADS", "Inputs", "Workload", "make_inputs"]

#: the open loop's two tenants, alternating in pairs of jobs.
TENANTS = ("acme", "globex")


@dataclass(frozen=True)
class Workload:
    """One workload: what it drives, on which inputs, at which size."""

    name: str
    #: ``seq`` (run_sequential_tsmo), ``mp`` (run_multiprocessing_tsmo)
    #: or ``serve`` (SolveScheduler, open loop).
    kind: str
    instance_class: str
    n_customers: int
    neighborhood: int
    #: evaluation budget of one solve or served job.
    evaluations: int
    #: distinct (instance, search seed) pairs one run cycles through.
    templates: int
    #: worker processes (mp and serve).
    workers: int = 0
    #: open loop only: offered jobs per second.
    rate: float = 0.0
    #: open loop only: evaluations between job checkpoints.
    checkpoint_every: int = 0
    #: open loop only: distinct per-job instances besides the default.
    own_instances: int = 0
    #: the percentile ``job_latency_tail_s`` reports, fixed per workload
    #: so it never depends on how many jobs a run fits.  The open loop's
    #: p90 has 12 samples beyond it; a closed loop fits too few
    #: solves for a tail, so there it is the median.
    tail_percentile: int = 50


WORKLOADS = {
    w.name: w
    for w in (
        Workload("seq-r1-200-s200", "seq", "R1", 200, 200, 8000, 8),
        Workload("seq-c2-400-s50", "seq", "C2", 400, 50, 10000, 10),
        Workload("mp-sync-r1-200-s200", "mp", "R1", 200, 200, 3000, 6, workers=2),
        Workload(
            "serve-open-r1-100",
            "serve",
            "R1",
            100,
            50,
            200,
            16,
            workers=2,
            rate=6.0,
            checkpoint_every=100,
            own_instances=4,
            tail_percentile=90,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program."""

    #: generator seed of each instance the run uses.  Closed loops: one
    #: per template.  Open loop: the scheduler's default instance first,
    #: then the per-job instances.
    instance_seeds: tuple[int, ...]
    #: search seed of each template.
    search_seeds: tuple[int, ...]
    #: open loop only: due time of each job, seconds after the window opens.
    arrivals: tuple[float, ...] = ()

    def template_instance(self, workload: Workload, template: int) -> int:
        """Index into ``instance_seeds`` of one template's instance."""
        if workload.kind != "serve":
            return template
        if template % 2 == 0:
            return 0  # every other job solves the scheduler default
        return 1 + (template // 2) % workload.own_instances


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The inputs of one run of ``workload`` with workload seed ``seed``."""
    rnd = random.Random(f"{workload.name}/{seed}")
    n_instances = (
        1 + workload.own_instances if workload.kind == "serve" else workload.templates
    )
    instance_seeds = tuple(rnd.randrange(2**31) for _ in range(n_instances))
    search_seeds = tuple(rnd.randrange(2**31) for _ in range(workload.templates))
    arrivals: tuple[float, ...] = ()
    if workload.kind == "serve":
        # A Poisson stream conditioned on its job count: the arrival
        # times are sorted uniform draws over the window, so every run
        # of a given length offers the same number of jobs.
        n_jobs = max(1, round(workload.rate * seconds))
        arrivals = tuple(sorted(rnd.uniform(0.0, seconds) for _ in range(n_jobs)))
    return Inputs(instance_seeds, search_seeds, arrivals)
