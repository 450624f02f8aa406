"""Engine workloads: timed replays of the fluid simulator.

``fig1c_replay`` is the quick-profile Figure 1(c) replay (the unit of
work of every Fig-1 sweep task); ``k32_storm`` is a k=32 fabric with
many short flows under a storm of 16 switch failures and repairs.  Both
use the default allocator and global optimal rerouting.

The coflow trace is always the pinned one of the workload's study
config.  The seed relabels it: it permutes pods, racks within a pod and
hosts within a rack, a symmetry of the fat tree, and (``k32_storm``)
draws the failed switches.  Distinct traces of the same config differ
up to threefold in cost, which no run-to-run bound can absorb; a
relabelled trace keeps the same flows, sizes and arrival times and
changes only which equal-cost paths ECMP hashes them onto.  At the
workload's pinned seed the relabelling is the identity, so that seed
replays exactly the scenario of ``BENCH_engine.json``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import random
import time
from dataclasses import dataclass

from spans import Tracer, percentile

from repro.experiments.config import StudyConfig
from repro.routing import GlobalOptimalRerouteRouter
from repro.simulation import FluidSimulation
from repro.simulation.flow import CoflowSpec, FlowSpec
from repro.topology import FatTree
from repro.topology.base import NodeKind


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    config: StudyConfig
    pinned_seed: int


FIG1C = EngineWorkload(
    "fig1c_replay",
    StudyConfig(k=6, hosts_per_edge=30, num_coflows=90, duration=12.0, seed=13),
    pinned_seed=13,
)
K32 = EngineWorkload(
    "k32_storm",
    StudyConfig(
        k=32,
        hosts_per_edge=2,
        num_coflows=120,
        duration=4.0,
        seed=17,
        long_flow_low=2e6,
        long_flow_high=2e8,
    ),
    pinned_seed=17,
)
WORKLOADS = {w.name: w for w in (FIG1C, K32)}

#: k32_storm: switch i fails at STORM_START + i * STORM_SPACING and is
#: restored STORM_OUTAGE seconds later.
STORM_SWITCHES = 16
STORM_START = 0.25
STORM_SPACING = 3.0 / 16
STORM_OUTAGE = 0.5

#: Set-ups timed, and discarded, before each replay; their median with
#: the replays' own set-ups is ``setup_s``.  Spreading them over the run
#: keeps one slow stretch of the host from setting it.
EXTRA_SETUPS = 2


def relabel(tree: FatTree, seed: int, pinned: bool) -> tuple[list[int], dict[str, str]]:
    """``(pod permutation, host renaming)`` for ``seed``; identity if pinned."""
    rng = random.Random(f"relabel:{seed}")
    pods = list(range(tree.k))
    racks = {p: list(range(tree.half)) for p in pods}
    hosts = {
        (p, e): list(range(tree.hosts_per_edge)) for p in pods for e in racks[p]
    }
    if not pinned:
        rng.shuffle(pods)
        for order in (*racks.values(), *hosts.values()):
            rng.shuffle(order)
    names = {
        f"H.{p}.{e}.{h}": f"H.{pods[p]}.{racks[p][e]}.{hosts[(p, e)][h]}"
        for p in range(tree.k)
        for e in range(tree.half)
        for h in range(tree.hosts_per_edge)
    }
    return pods, names


def build_trace(
    workload: EngineWorkload, tree: FatTree, seed: int
) -> tuple[list[CoflowSpec], list[int]]:
    """The relabelled pinned trace and the pod permutation it used."""
    pods, names = relabel(tree, seed, seed == workload.pinned_seed)
    specs = [
        CoflowSpec(
            c.coflow_id,
            c.arrival,
            tuple(
                FlowSpec(f.flow_id, f.coflow_id, names[f.src], names[f.dst],
                         f.size_bytes)
                for f in c.flows
            ),
        )
        for c in workload.config.build_specs(tree)
    ]
    return specs, pods


def schedule_failures(
    workload: EngineWorkload,
    sim: FluidSimulation,
    tree: FatTree,
    seed: int,
    pods: list[int],
) -> None:
    if workload is FIG1C:
        # The Fig-1c victim A.0.1, moved with pod 0 by the relabelling.
        sim.fail_node_at(0.0, f"A.{pods[0]}.1")
        return
    candidates = sorted(
        name
        for name, node in tree.nodes.items()
        if node.kind in (NodeKind.AGGREGATION, NodeKind.CORE)
    )
    victims = random.Random(f"storm:{seed}").sample(candidates, STORM_SWITCHES)
    for i, victim in enumerate(victims):
        at = STORM_START + i * STORM_SPACING
        sim.fail_node_at(at, victim)
        sim.restore_node_at(at + STORM_OUTAGE, victim)


def trace_digest(specs: list[CoflowSpec]) -> str:
    h = hashlib.sha256()
    for c in specs:
        h.update(repr((c.coflow_id, c.arrival)).encode())
        for f in c.flows:
            h.update(repr((f.flow_id, f.src, f.dst, f.size_bytes)).encode())
    return h.hexdigest()


def records_digest(result) -> str:
    h = hashlib.sha256()
    for fid in sorted(result.flows):
        r = result.flows[fid]
        h.update(repr((fid, r.start, r.finish, r.reroutes, r.initial_hops)).encode())
    return h.hexdigest()


@dataclass
class Replay:
    setup_s: float
    run_s: float
    flows: int
    completed: int
    trace_digest: str
    records_digest: str
    reallocations: int
    events: int


#: Module-level layer entry points wrapped in a traced replay, as
#: (module, class or None, attribute, span).  One that a later version
#: of the program no longer has is skipped and its span reads zero.
LAYER_FUNCTIONS = (
    ("repro.simulation.engine", None, "allocate_dense", "simulation.alloc"),
    ("repro.simulation.columnar", None, "waterfill", "simulation.alloc"),
    ("repro.simulation.conflict", "ConflictGraph", "place", "simulation.conflict"),
    ("repro.simulation.conflict", "ConflictGraph", "remove", "simulation.conflict"),
    (
        "repro.simulation.conflict", "ConflictGraph", "affected_components",
        "simulation.conflict",
    ),
    ("repro.routing.ecmp", None, "enumerate_edge_paths", "routing.enumerate"),
    ("repro.routing.paths", None, "enumerate_edge_paths", "routing.enumerate"),
)


def _owner(module: str, cls: str | None) -> object | None:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls is not None else owner


def _install(tracer: Tracer, sim: FluidSimulation, tree: FatTree) -> None:
    """Wrap the layers one replay calls into."""
    counts = {
        "simulation.alloc": lambda args, result, _s: tracer.count(
            "alloc_rows", len(args[0])
        ),
        "routing.enumerate": lambda args, result, _s: tracer.count(
            "paths_enumerated", len(result)
        ),
    }

    def chosen(args, result, _s):
        if result is not None:
            tracer.count("paths_chosen")

    tracer.patch(sim, "run", "simulation.run")
    for module, cls, attr, span in LAYER_FUNCTIONS:
        owner = _owner(module, cls)
        if owner is not None and hasattr(owner, attr):
            tracer.patch(owner, attr, span, after=counts.get(span))
    tracer.patch(sim.router, "initial_path", "routing.initial_path", after=chosen)
    tracer.patch(sim.router, "repath", "routing.repath", after=chosen)
    tracer.patch(sim.router, "on_topology_change", "routing.invalidate")
    for method in ("fail_node", "restore_node"):
        tracer.patch(tree, method, "topology.mutate")


def set_up(
    workload: EngineWorkload, seed: int
) -> tuple[FluidSimulation, FatTree, list[CoflowSpec], tuple[float, ...]]:
    """Tree, trace, router and engine, with the four instants between them.

    The engine mutates the tree and the routing memo is keyed on it, so
    no replay may reuse another's topology, router or engine.
    """
    clock = time.perf_counter
    t0 = clock()
    tree = workload.config.build_tree(FatTree)
    t1 = clock()
    specs, pods = build_trace(workload, tree, seed)
    t2 = clock()
    sim = FluidSimulation(
        tree, GlobalOptimalRerouteRouter(tree), specs,
        horizon=workload.config.horizon,
    )
    schedule_failures(workload, sim, tree, seed, pods)
    return sim, tree, specs, (t0, t1, t2, clock())


def replay(
    workload: EngineWorkload, seed: int, tracer: Tracer | None = None
) -> Replay:
    """Set up afresh and run one replay."""
    gc.collect()
    sim, tree, specs, (t0, t1, t2, t3) = set_up(workload, seed)
    if tracer is not None:
        tracer.add_span("topology.build", t0, t1)
        tracer.add_span("workload.trace", t1, t2)
        tracer.add_span("simulation.init", t2, t3)
        _install(tracer, sim, tree)
    try:
        t4 = time.perf_counter()
        result = sim.run()
        t5 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.unpatch()
    return Replay(
        setup_s=t3 - t0,
        run_s=t5 - t4,
        flows=len(result.flows),
        completed=sum(r.completed for r in result.flows.values()),
        trace_digest=trace_digest(specs),
        records_digest=records_digest(result),
        reallocations=result.reallocations,
        events=result.events_processed,
    )


def check(
    workload: EngineWorkload, seed: int, r: Replay, expected: dict
) -> list[str]:
    """Problems with one replay (empty when correct)."""
    problems = []
    if r.flows != expected["flows"] or r.completed != expected["flows"]:
        problems.append(
            f"{r.completed}/{r.flows} flows completed, expected {expected['flows']}"
        )
    if seed == workload.pinned_seed:
        for key in ("trace_digest", "records_digest"):
            if getattr(r, key) != expected[key]:
                problems.append(f"{key} {getattr(r, key)} != pinned {expected[key]}")
    return problems


def run(
    name: str, seed: int, seconds: float, tracer: Tracer | None, expected: dict
) -> tuple[list[str], dict[str, float], dict[str, float], int, int, dict]:
    """Replay until ``seconds`` are spent.

    Returns ``(problems, end_to_end, per_layer, attempted, failed,
    accounting)``.
    A traced run alternates traced and untraced replays, the latter
    giving the untraced ``run_s`` that ``trace.overhead_frac`` compares
    against.
    """
    workload = WORKLOADS[name]
    untraced: list[Replay] = []
    traced: list[Replay] = []
    problems: list[str] = []
    failed = raised = 0
    setups = []
    start = time.perf_counter()
    while True:
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            t0, *_rest, t3 = set_up(workload, seed)[3]
            setups.append(t3 - t0)
        index = len(untraced) + len(traced)
        use_tracer = tracer if index % 2 == 0 else None
        try:
            r = replay(workload, seed, use_tracer)
        except Exception as exc:  # a replay that raises is a failed operation
            problems.append(f"replay {index} raised {exc!r}")
            raised = 1
            break
        (traced if use_tracer is not None else untraced).append(r)
        found = check(workload, seed, r, expected)
        problems += [f"replay {index}: {p}" for p in found]
        failed += bool(found)
        done = untraced + traced
        elapsed = time.perf_counter() - start
        # Stop before a replay that would overrun the budget, once the
        # run holds three untraced replays (one of each in a traced run).
        typical = elapsed / len(done)
        enough = len(untraced) >= 3 or (tracer is not None and untraced and traced)
        if enough and elapsed + typical > seconds:
            break
    done = untraced + traced
    if len({r.records_digest for r in done}) > 1:
        problems.append("replays of one input disagree on the flow records")
        failed = len(done)
    attempted = len(done) + raised
    failed += raised
    e2e: dict[str, float] = {}
    layers: dict[str, float] = {}
    if untraced:
        e2e = {
            "setup_s": percentile(setups + [r.setup_s for r in done], 0.5),
            "latency_p50_ms": percentile([r.run_s * 1e3 for r in untraced], 0.5),
        }
    if tracer is not None and traced and untraced:
        layers = layer_metrics(tracer, traced, untraced)
    accounting = {
        "replays": len(untraced),
        "traced_replays": len(traced),
        "flows_per_replay": expected["flows"],
        "flows_per_s": percentile([r.flows / r.run_s for r in untraced], 0.5),
    }
    return problems, e2e, layers, attempted, failed, accounting


def layer_metrics(
    tracer: Tracer, traced: list[Replay], untraced: list[Replay]
) -> dict[str, float]:
    """Per-replay means of the traced replays' layer spans and counts."""
    n = len(traced)
    table = tracer.table()

    def total(span: str) -> float:
        return table.get(span, {}).get("total_s", 0.0) / n

    def calls(span: str) -> float:
        return table.get(span, {}).get("calls", 0) / n

    counters = tracer.counters
    reallocations = sum(r.reallocations for r in traced) / n
    run_s = total("simulation.run")
    untraced_run = percentile([r.run_s for r in untraced], 0.5)
    chosen = counters.get("paths_chosen", 0)
    return {
        "flows_per_s": percentile([r.flows / r.run_s for r in untraced], 0.5),
        "simulation.alloc_s": total("simulation.alloc"),
        "simulation.alloc_calls": calls("simulation.alloc"),
        "simulation.alloc_rows": counters.get("alloc_rows", 0) / n,
        "simulation.rows_per_realloc": (
            counters.get("alloc_rows", 0) / n / reallocations if reallocations else 0.0
        ),
        "simulation.conflict_s": total("simulation.conflict"),
        "routing.initial_path_calls": calls("routing.initial_path"),
        "routing.initial_path_s": total("routing.initial_path"),
        "routing.repath_calls": calls("routing.repath"),
        "routing.repath_s": total("routing.repath"),
        "routing.invalidate_s": total("routing.invalidate"),
        "routing.paths_enumerated": counters.get("paths_enumerated", 0) / n,
        "routing.paths_per_choice": (
            counters.get("paths_enumerated", 0) / chosen if chosen else 0.0
        ),
        "topology.mutations": calls("topology.mutate"),
        "topology.mutate_s": total("topology.mutate"),
        "simulation.run_s": run_s,
        "simulation.self_s": table.get("simulation.run", {}).get("self_s", 0.0) / n,
        "simulation.reallocations": reallocations,
        "simulation.events": sum(r.events for r in traced) / n,
        "workload.trace_s": total("workload.trace"),
        "topology.build_s": total("topology.build"),
        "simulation.init_s": total("simulation.init"),
        "trace.overhead_frac": run_s / untraced_run - 1.0 if untraced_run else 0.0,
    }
