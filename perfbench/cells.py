"""Seeded inputs of the two in-process workloads, and their pinned digests.

Every study or frontier the benchmark runs comes from a fixed pool.
The availability pool is a seeded draw of paper cells from the paper
grid (workloads x Table-3 configurations x techniques), each with a few
study seeds; the fleet pool is a few frontier seeds per named fleet.
Both are made once with :data:`POOL_SEED`, and ``pins.json`` holds the
canonical digest of every pool operation's result, so every run at every
``--seed`` checks its outputs byte for byte.

A run works on one *working set*: every availability cell (or every
fleet slot of :data:`FLEET_RUN`) once, with its seed picked by
``--seed``.  So runs at different seeds ask the same questions of
different Monte-Carlo samples and do nearly the same amount of work.
The run repeats the working set in *passes*, each in its own seeded
order; in a pass every operation of the :data:`REPEATED` class is run
again right away with identical arguments, as class ``repeat``.

Regenerate the pins (only when the pool changes) with
``python3 perfbench/pin.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Seed of the pool draw; changing it invalidates ``pins.json``.
POOL_SEED = 20140301

WORKLOADS = ("specjbb", "websearch", "memcached", "speccpu")
CONFIGURATIONS = (
    "MaxPerf", "MinCost", "NoDG", "NoUPS", "DG-SmallPUPS",
    "SmallDG-SmallPUPS", "SmallPUPS", "LargeEUPS", "SmallP-LargeEUPS",
)
TECHNIQUES = (
    "throttling", "sleep", "sleep-l", "hibernate", "hibernate-l",
    "proactive-hibernate", "migration", "proactive-migration",
    "throttle+sleep-l", "throttle+hibernate", "migration+sleep-l",
)
FLEETS = ("us-triad", "coastal-pair", "regional-quad", "cloud-hybrid")
FLEET_YEARS = 40
BLOCK_YEARS = 50

#: Availability classes: class -> (study years, paper cells in the class).
AVAILABILITY_CLASSES = {
    "light": (100, 10),
    "study": (500, 6),
    "scale": (5000, 1),
}
#: Study seeds pinned per availability cell.
SEEDS_PER_CELL = 4
#: Frontier seeds pinned per fleet.
FLEET_SEEDS_PER_FLEET = 6
#: The frontiers of a fleet working set, as (fleet, class).  Each
#: latency class holds one fleet; ``scale`` frontiers count toward
#: ``years_per_s`` only.
FLEET_RUN = (
    ("coastal-pair", "light"),
    ("coastal-pair", "light"),
    ("us-triad", "study"),
    ("us-triad", "study"),
    ("cloud-hybrid", "scale"),
    ("regional-quad", "scale"),
)
#: Per workload, the class whose operations are re-run as ``repeat``.
REPEATED = {"availability-study": "study", "fleet-frontier": "light"}


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: a study or a frontier."""

    kind: str  # "availability" or "fleet"
    klass: str  # "light", "study", "repeat" or "scale" (no latency class)
    key: str  # pool identity, the key into pins.json
    args: Tuple[Any, ...]

    @property
    def site_years(self) -> int:
        if self.kind == "availability":
            return self.args[3]
        fleet, _seed = self.args
        return len(CONFIGURATIONS) * 2 * FLEET_YEARS * fleet_sites(fleet)


@functools.lru_cache(maxsize=None)
def fleet_sites(fleet: str) -> int:
    """Sites of a named fleet, from its spec."""
    from repro.fleet.spec import get_fleet

    return len(get_fleet(fleet).sites)


def paper_cell(rng: random.Random) -> Tuple[str, str, str]:
    """A seeded (workload, configuration, technique) from the paper grid."""
    return (rng.choice(WORKLOADS), rng.choice(CONFIGURATIONS),
            rng.choice(TECHNIQUES))


def availability_op(klass: str, workload: str, configuration: str,
                    technique: str, years: int, seed: int) -> Op:
    key = f"availability/{workload}/{configuration}/{technique}/{years}/{seed}"
    return Op("availability", klass, key,
              (workload, configuration, technique, years, seed))


def fleet_op(klass: str, fleet: str, seed: int) -> Op:
    return Op("fleet", klass, f"fleet/{fleet}/{seed}", (fleet, seed))


def availability_pool() -> Dict[str, List[List[Op]]]:
    """The pinned studies: per class, per paper cell, one per seed."""
    grid = list(itertools.product(WORKLOADS, CONFIGURATIONS, TECHNIQUES))
    pool: Dict[str, List[List[Op]]] = {}
    for offset, (klass, (years, count)) in enumerate(
        sorted(AVAILABILITY_CLASSES.items())
    ):
        rng = random.Random(POOL_SEED + offset)
        pool[klass] = [
            [availability_op(klass, *cell, years, rng.randrange(1, 2**31))
             for _ in range(SEEDS_PER_CELL)]
            for cell in rng.sample(grid, count)
        ]
    return pool


def fleet_pool() -> Dict[str, List[Op]]:
    """The pinned frontiers, by fleet."""
    rng = random.Random(POOL_SEED)
    return {
        fleet: [
            fleet_op("study", fleet, rng.randrange(1, 2**31))
            for _ in range(FLEET_SEEDS_PER_FLEET)
        ]
        for fleet in FLEETS
    }


def pool_ops() -> List[Op]:
    """Every pinned operation."""
    ops = [op for cells in availability_pool().values()
           for seeds in cells for op in seeds]
    return ops + [op for seeds in fleet_pool().values() for op in seeds]


def working_set(workload: str, seed: int) -> List[Op]:
    """The operations of a run at ``seed``, each once."""
    rng = random.Random(seed)
    if workload == "availability-study":
        return [rng.choice(seeds) for cells in availability_pool().values()
                for seeds in cells]
    pool = fleet_pool()
    picks = {fleet: rng.sample(seeds, sum(1 for f, _ in FLEET_RUN if f == fleet))
             for fleet, seeds in pool.items()}
    return [dataclasses.replace(picks[fleet].pop(), klass=klass)
            for fleet, klass in FLEET_RUN]


def run_pass(workload: str, seed: int, index: int) -> List[Op]:
    """Pass ``index`` of a run: the working set in a seeded order, each
    operation of the repeated class followed by its re-run."""
    ops = working_set(workload, seed)
    random.Random(f"{seed}/{index}").shuffle(ops)
    out: List[Op] = []
    for op in ops:
        out.append(op)
        if op.klass == REPEATED[workload]:
            out.append(dataclasses.replace(op, klass="repeat"))
    return out


def run_op(op: Op) -> Any:
    """Execute one operation through the public entry point; returns the
    result object (an ``AvailabilityReport`` or the frontier payload)."""
    if op.kind == "availability":
        from repro.analysis.availability import AvailabilityAnalyzer
        from repro.core.configurations import get_configuration
        from repro.techniques.registry import get_technique
        from repro.workloads.registry import get_workload

        workload, configuration, technique, years, seed = op.args
        analyzer = AvailabilityAnalyzer(get_workload(workload), seed=seed)
        return analyzer.analyze(
            get_configuration(configuration),
            get_technique(technique),
            years=years,
            jobs=1,
            engine="batch",
        )
    from repro.fleet.frontier import fleet_frontier

    fleet, seed = op.args
    return fleet_frontier(fleet, list(CONFIGURATIONS), years=FLEET_YEARS,
                          seed=seed, jobs=1)


def digest(result: Any) -> str:
    """SHA-256 of the result's canonical JSON (key-sorted, every float
    at full precision)."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def block_calls(op: Op) -> int:
    """Year-block jobs one batch study submits."""
    return math.ceil(op.args[3] / BLOCK_YEARS) if op.kind == "availability" else 0


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
