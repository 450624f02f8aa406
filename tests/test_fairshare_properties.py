"""Property-based tests of the max-min allocator's defining invariants.

The invariants run against the public :func:`max_min_rates` wrapper,
which now sits on the dense array core (:func:`allocate_dense`), so
feasibility / Pareto / fairness cover both layers.  The second half of
the file pins down the array core's own contracts: wrapper/core
bit-identity, component separability (the property that lets the
batched kernel solve the full problem and still match per-component
solves), and workspace reuse.  The final section holds the vectorized
columnar kernel (:mod:`repro.simulation.columnar`) to the same bar:
scalar/batched bit-identity, the flow table's incremental incidence
under random patch sequences, water-fill saturation invariants, and
columnar workspace purity.  The last test seeds known kernel bugs into
a copy of the shipped columnar source and requires each to be caught.
"""

import types
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.simulation import allocate_dense, columnar, max_min_rates
from repro.simulation.columnar import (
    ColumnarWorkspace,
    FlowTable,
    pack_paths,
    waterfill,
)
from repro.simulation.fairshare import AllocatorWorkspace, FairShareError


@st.composite
def allocation_problems(draw):
    """Random (flow_segments, capacities) instances."""
    num_segments = draw(st.integers(min_value=1, max_value=12))
    segments = [f"S{i}" for i in range(num_segments)]
    capacities = {
        s: draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        for s in segments
    }
    num_flows = draw(st.integers(min_value=1, max_value=20))
    flow_segments = {}
    for f in range(num_flows):
        path_len = draw(st.integers(min_value=1, max_value=min(6, num_segments)))
        path = draw(
            st.lists(
                st.sampled_from(segments),
                min_size=path_len,
                max_size=path_len,
                unique=True,
            )
        )
        flow_segments[f] = path
    return flow_segments, capacities


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_feasibility(problem):
    """No segment ever carries more than its capacity."""
    flow_segments, capacities = problem
    rates = max_min_rates(flow_segments, capacities)
    usage = {s: 0.0 for s in capacities}
    for f, path in flow_segments.items():
        for s in path:
            usage[s] += rates[f]
    for s, used in usage.items():
        assert used <= capacities[s] * (1 + 1e-9) + 1e-9


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_every_flow_has_a_saturated_bottleneck(problem):
    """Pareto efficiency: each flow crosses at least one saturated segment
    (otherwise its rate could be raised for free)."""
    flow_segments, capacities = problem
    rates = max_min_rates(flow_segments, capacities)
    usage = {s: 0.0 for s in capacities}
    for f, path in flow_segments.items():
        for s in path:
            usage[s] += rates[f]
    for f, path in flow_segments.items():
        saturated = any(
            usage[s] >= capacities[s] * (1 - 1e-6) - 1e-6 for s in path
        )
        assert saturated, f"flow {f} has slack on its whole path"


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_max_min_fairness_condition(problem):
    """On every saturated segment each flow is either at the segment's
    max rate among its flows, or bottlenecked elsewhere at a lower rate —
    i.e. you cannot raise any flow without hurting a smaller one."""
    flow_segments, capacities = problem
    rates = max_min_rates(flow_segments, capacities)
    usage = {s: 0.0 for s in capacities}
    seg_flows: dict[str, list] = {s: [] for s in capacities}
    for f, path in flow_segments.items():
        for s in path:
            usage[s] += rates[f]
            seg_flows[s].append(f)
    for f, path in flow_segments.items():
        # the flow's binding bottleneck: a saturated segment where it has
        # the max rate among that segment's flows
        binding = False
        for s in path:
            if usage[s] >= capacities[s] * (1 - 1e-6) - 1e-6:
                top = max(rates[g] for g in seg_flows[s])
                if rates[f] >= top * (1 - 1e-9):
                    binding = True
                    break
        assert binding, f"flow {f} ({rates[f]}) has no binding bottleneck"


@given(allocation_problems())
@settings(max_examples=100, deadline=None)
def test_all_rates_nonnegative_and_assigned(problem):
    flow_segments, capacities = problem
    rates = max_min_rates(flow_segments, capacities)
    assert set(rates) == set(flow_segments)
    assert all(r >= 0.0 for r in rates.values())


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_single_link_exact_split(n, cap):
    flows = {i: ["L"] for i in range(n)}
    rates = max_min_rates(flows, {"L": cap})
    for r in rates.values():
        assert abs(r - cap / n) <= 1e-9 * max(1.0, cap)


# ----------------------------------------------------------------------
# array-core contracts: interning, separability, workspace reuse
# ----------------------------------------------------------------------


def intern(flow_segments, capacities):
    """Hand-rolled interning mirroring what the engine does statically."""
    seg_ids = {s: i for i, s in enumerate(capacities)}
    caps = [float(capacities[s]) for s in capacities]
    pairs = [
        (f, tuple(seg_ids[s] for s in path)) for f, path in flow_segments.items()
    ]
    return pairs, caps


def components_of(flow_segments):
    """Connected components of the flow↔segment conflict graph, each
    sorted into problem order (reference implementation for the tests)."""
    seg_flows = {}
    for f, path in flow_segments.items():
        for s in path:
            seg_flows.setdefault(s, []).append(f)
    seen = set()
    comps = []
    for f in flow_segments:
        if f in seen:
            continue
        seen.add(f)
        comp, stack = [f], [f]
        while stack:
            g = stack.pop()
            for s in flow_segments[g]:
                for h in seg_flows[s]:
                    if h not in seen:
                        seen.add(h)
                        comp.append(h)
                        stack.append(h)
        comps.append(sorted(comp))
    return comps


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_dense_core_matches_wrapper_bitwise(problem):
    """allocate_dense on hand-interned inputs == max_min_rates, exactly."""
    flow_segments, capacities = problem
    pairs, caps = intern(flow_segments, capacities)
    dense = allocate_dense(pairs, caps)
    wrapped = max_min_rates(flow_segments, capacities)
    assert dense == wrapped  # float == float: bitwise, not approximate


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_component_separability_is_bitwise_exact(problem):
    """Solving each conflict component alone reproduces the full solve
    bit-for-bit — the property the batched kernel's full-table solve
    rests on."""
    flow_segments, capacities = problem
    pairs, caps = intern(flow_segments, capacities)
    merged = allocate_dense(pairs, caps)
    by_flow = dict(pairs)
    pieced = {}
    for comp in components_of(flow_segments):
        comp_pairs = [(f, by_flow[f]) for f in comp]
        pieced.update(allocate_dense(comp_pairs, caps))
    assert pieced == merged


@given(allocation_problems(), allocation_problems())
@settings(max_examples=100, deadline=None)
def test_workspace_reuse_is_clean(problem_a, problem_b):
    """Back-to-back solves through one shared workspace match fresh
    solves — i.e. the workspace is truly reset between calls."""
    pairs_a, caps_a = intern(*problem_a)
    pairs_b, caps_b = intern(*problem_b)
    ws = AllocatorWorkspace(max(len(caps_a), len(caps_b)))
    assert allocate_dense(pairs_a, caps_a, ws) == allocate_dense(pairs_a, caps_a)
    assert allocate_dense(pairs_b, caps_b, ws) == allocate_dense(pairs_b, caps_b)
    assert allocate_dense(pairs_a, caps_a, ws) == allocate_dense(pairs_a, caps_a)


@given(allocation_problems())
@settings(max_examples=50, deadline=None)
def test_workspace_survives_input_errors(problem):
    """A rejected instance must not poison the shared workspace."""
    pairs, caps = intern(*problem)
    ws = AllocatorWorkspace(len(caps))
    bad = [*pairs, ("broken", ())]  # empty path: rejected after partial fill
    with pytest.raises(FairShareError):
        allocate_dense(bad, caps, ws)
    assert allocate_dense(pairs, caps, ws) == allocate_dense(pairs, caps)


# ----------------------------------------------------------------------
# columnar kernel contracts: bit-identity, table incidence, saturation
# ----------------------------------------------------------------------


def columnar_setup(problem):
    """Interned pairs → (pairs, caps array, padded matrix)."""
    pairs, caps = intern(*problem)
    caps_arr = np.asarray(caps, dtype=np.float64)
    matrix = pack_paths([path for _, path in pairs], len(caps))
    return pairs, caps_arr, matrix


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_waterfill_matches_scalar_core_bitwise(problem):
    """The batched kernel reproduces allocate_dense to the last bit —
    the identity the vectorized engine backend is built on."""
    pairs, caps_arr, matrix = columnar_setup(problem)
    scalar = allocate_dense(pairs, list(caps_arr))
    batched = waterfill(matrix, caps_arr)
    for row, (key, _) in enumerate(pairs):
        assert batched[row] == scalar[key]  # float ==: bitwise


@given(allocation_problems())
@settings(max_examples=200, deadline=None)
def test_waterfill_saturation_invariants(problem):
    """Feasibility and Pareto efficiency, checked on the kernel's own
    output: no segment over capacity, and every flow crosses at least
    one saturated segment (else its rate could be raised for free)."""
    pairs, caps_arr, matrix = columnar_setup(problem)
    rates = waterfill(matrix, caps_arr)
    num_segments = caps_arr.shape[0]
    width = matrix.shape[1]
    usage = np.bincount(
        matrix.ravel(),
        weights=np.repeat(rates, width),
        minlength=num_segments + 1,
    )[:num_segments]
    assert np.all(usage <= caps_arr * (1 + 1e-9) + 1e-9)
    saturated = usage >= caps_arr * (1 - 1e-6) - 1e-6
    padded = np.concatenate([saturated, [False]])  # sentinel never saturates
    assert np.all(padded[matrix].any(axis=1)), "a flow has slack on its path"


@st.composite
def table_operations(draw):
    """A segment universe plus a random ``append``/``discard``/``rebuild``
    sequence over fresh and resident flows (paths up to width 8, so
    appends also exercise matrix widening past the default width)."""
    num_segments = draw(st.integers(min_value=1, max_value=12))
    paths = st.lists(
        st.integers(min_value=0, max_value=num_segments - 1),
        min_size=1,
        max_size=min(8, num_segments),
        unique=True,
    ).map(tuple)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), paths),
                st.tuples(
                    st.just("discard"),
                    st.lists(st.integers(min_value=0, max_value=40), max_size=4),
                ),
                st.tuples(st.just("rebuild"), st.lists(paths, max_size=8)),
            ),
            max_size=30,
        )
    )
    return num_segments, ops


@given(table_operations())
@settings(max_examples=200, deadline=None)
def test_flow_table_incidence_matches_bincount(case):
    """After any sequence of appends, discards and rebuilds, the
    incidence the table maintains incrementally equals a fresh
    ``np.bincount`` over its segment matrix (sentinel slot included),
    and the table's rows are exactly the live flows' paths in order."""
    num_segments, ops = case
    table = FlowTable(num_segments)
    live = {}  # flow id -> path, in row order
    next_fid = 0
    for op, arg in ops:
        if op == "append":
            table.append(next_fid, arg)
            live[next_fid] = arg
            next_fid += 1
        elif op == "discard":
            table.discard(arg)
            for fid in arg:
                live.pop(fid, None)
        else:
            entries = []
            for path in arg:
                entries.append((next_fid, path, 0.0))
                next_fid += 1
            table.rebuild(entries)
            live = {fid: path for fid, path, _ in entries}
        expected = np.bincount(
            table.seg_matrix.ravel(), minlength=num_segments + 1
        )
        assert np.array_equal(table.incidence, expected)
        assert len(table) == len(live)
        assert table.flow_ids[: len(table)].tolist() == list(live)
        for row, path in enumerate(live.values()):
            matrix_row = table.seg_matrix[row]
            assert tuple(matrix_row[matrix_row != num_segments]) == path


@given(allocation_problems(), allocation_problems())
@settings(max_examples=100, deadline=None)
def test_columnar_workspace_reuse_is_pure(problem_a, problem_b):
    """Back-to-back waterfills through one shared workspace match fresh
    solves bit-for-bit — the workspace carries no state between calls.
    Both problems are interned into one capacity space (the workspace
    is sized to the segment universe, exactly as in the engine)."""
    flows_a, caps_a = problem_a
    flows_b, caps_b = problem_b
    shared = {**caps_b, **caps_a}
    pairs_a, caps = intern(flows_a, shared)
    pairs_b, _ = intern(flows_b, shared)
    caps_arr = np.asarray(caps, dtype=np.float64)
    matrix_a = pack_paths([path for _, path in pairs_a], len(caps))
    matrix_b = pack_paths([path for _, path in pairs_b], len(caps))
    ws = ColumnarWorkspace(len(caps))
    first = waterfill(matrix_a, caps_arr, ws)
    assert np.array_equal(first, waterfill(matrix_a, caps_arr))
    second = waterfill(matrix_b, caps_arr, ws)
    assert np.array_equal(second, waterfill(matrix_b, caps_arr))
    assert np.array_equal(waterfill(matrix_a, caps_arr, ws), first)


# ----------------------------------------------------------------------
# seeded kernel bugs: each must raise or drift from the scalar oracle
# ----------------------------------------------------------------------

#: ``(anchor, replacement)`` edits of the shipped ``columnar.py``: a
#: float32 share (dtype narrowing), a level compared without its
#: broadcast axis (shape mismatch), and an un-copied column view that
#: the in-place row minimum writes through (aliasing).
KERNEL_MUTATIONS = {
    "float32-share": (
        "        np.divide(remaining, counts, out=share)",
        "        share32 = np.empty(share.shape[0], dtype=np.float32)\n"
        "        np.divide(remaining, counts, out=share32)\n"
        "        share[:] = share32",
    ),
    "level-broadcast": (
        "        tight = shares == level[:, None]",
        "        tight = shares == level",
    ),
    "column-alias": (
        "    out = matrix[:, 0].copy()",
        "    out = matrix[:, 0]",
    ),
}


@pytest.mark.parametrize("mutation", sorted(KERNEL_MUTATIONS))
def test_seeded_kernel_bugs_are_caught(mutation):
    """A mutated water-fill either raises or differs bitwise from
    allocate_dense on one fixed problem.  Four rows against width two
    keep the broken broadcast from lining up by accident, capacities
    off the float32 grid expose narrowing, and flow 0's first segment
    is not its bottleneck, so an aliased column-0 write marks it tight."""
    old, new = KERNEL_MUTATIONS[mutation]
    source = Path(columnar.__file__).read_text(encoding="utf-8")
    assert old in source, f"mutation anchor for {mutation} drifted"
    mutated = types.ModuleType(f"columnar_{mutation}")
    code = compile(source.replace(old, new), mutated.__name__, "exec")
    exec(code, mutated.__dict__)

    caps = [10.1, 1.3, 7.7]
    pairs = list(enumerate([(0, 1), (0,), (2,), (0, 2)]))
    matrix = pack_paths([path for _, path in pairs], len(caps))
    dense = allocate_dense(pairs, caps)
    expected = [dense[key] for key, _ in pairs]
    assert list(waterfill(matrix, np.asarray(caps))) == expected
    try:
        rates = mutated.waterfill(matrix, np.asarray(caps))
    except (ValueError, RuntimeError):
        return
    assert list(rates) != expected
