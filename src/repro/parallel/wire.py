"""Compact wire codecs for the real-process pool transport.

The paper's §V blames the synchronous master–worker's weak speedups on
per-iteration communication, and the pool's own diagnostics agreed:
every :class:`~repro.parallel.messages.PoolTask` used to pickle the
full nested routes tuple and every
:class:`~repro.parallel.messages.PoolBatch` pickled one complete child
route set *per neighbor*.  This module replaces both payloads with
packed array encodings that decode **bit-identically** — the same
route tuples, objective floats and tabu attributes come out that went
in — so the lockstep parity guarantees survive the codec unchanged.

Two codecs live here:

* :class:`WireRoutes` — a solution's routes as one flat customer array
  plus a route-offset array (the §II.A giant tour without its depot
  markers), packed into a single ``bytes`` blob.  Customer ids use the
  narrowest of ``int16``/``int32`` that fits (the int32 layout of the
  general case shrinks 2x for every realistic instance size).
* :class:`WireBatch` — a batch of evaluated neighbors encoded as
  *route edits against the shared parent* instead of full child route
  sets.  A move touches 1–2 routes of a 50+ route solution, so the
  delta is ~20x smaller than the child; objectives ride as packed
  ``float64`` pairs (the vehicle count is recomputed from the edit
  structure — it is, by construction, the child's route count), and
  tabu attributes are packed as ``(operator id, customer set)`` int
  arrays with a pickle escape hatch for non-canonical shapes.

Everything is plain-Python ``array``/``struct`` packing — no numpy in
the hot encode path — because batches are small (tens of neighbors)
and C-backed ``array.array`` construction beats numpy's per-call
dispatch overhead at that size.

The module also provides :func:`wire_cost`, the measurement behind the
``bench_micro.py`` wire-cost benchmark and the EXPERIMENTS.md recipe.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from dataclasses import dataclass
from operator import index
from typing import Hashable, Iterable, Sequence

__all__ = [
    "WireBatch",
    "WireRoutes",
    "WireTaskDelta",
    "diff_routes",
    "instance_from_wire",
    "instance_to_wire",
    "wire_cost",
]

Routes = tuple[tuple[int, ...], ...]

#: canonical operator tags (``Move.name``) in registry order — batches
#: whose attributes only use these ship no name table at all.  Append
#: new operators at the end; the codec falls back to an explicit
#: per-batch table for unknown names, so this list is an optimization,
#: never a correctness requirement.
CANONICAL_OPS: tuple[str, ...] = (
    "relocate",
    "exchange",
    "2opt",
    "oropt",
    "2opt*",
    "segx",
)

_CANON_INDEX = {name: i for i, name in enumerate(CANONICAL_OPS)}

#: attribute shape tags (see :meth:`WireBatch.encode`).
_ATTR_INT = 0  # (op, int)
_ATTR_FROZENSET = 1  # (op, frozenset of ints)
_ATTR_ESCAPE = 2  # anything else — pickled verbatim

_ROUTES_HEADER = struct.Struct("<ccII")
_BATCH_HEADER = struct.Struct("<ccIIII")


def _int_code(max_value: int, min_value: int = 0) -> str:
    """Narrowest signed array typecode holding the given value range."""
    if -0x8000 <= min_value and max_value <= 0x7FFF:
        return "h"
    if -0x8000_0000 <= min_value and max_value <= 0x7FFF_FFFF:
        return "i"
    return "q"


def _pack(code: str, values) -> bytes:
    return array(code, values).tobytes()


def _unpack(code: str, blob: memoryview) -> list[int]:
    out = array(code)
    out.frombytes(blob)
    return out.tolist()


# ----------------------------------------------------------------------
# Task payload: one solution's routes
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WireRoutes:
    """A route set as one packed blob: flat customer ids + offsets.

    Layout: header ``(sites code, offsets code, n_routes, n_sites)``,
    then the offset array (``n_routes + 1`` entries, ``offsets[0] == 0``)
    and the flat site array.  :meth:`decode` rebuilds the exact nested
    tuple that was encoded.
    """

    blob: bytes

    @classmethod
    def encode(cls, routes: Iterable[Sequence[int]]) -> "WireRoutes":
        routes = tuple(routes)
        offsets = [0]
        for route in routes:
            offsets.append(offsets[-1] + len(route))
        sites = [c for route in routes for c in route]
        site_code = _int_code(max(sites, default=0), min(sites, default=0))
        off_code = _int_code(offsets[-1])
        header = _ROUTES_HEADER.pack(
            site_code.encode(), off_code.encode(), len(routes), offsets[-1]
        )
        return cls(header + _pack(off_code, offsets) + _pack(site_code, sites))

    def decode(self) -> Routes:
        view = memoryview(self.blob)
        site_code, off_code, n_routes, n_sites = _ROUTES_HEADER.unpack_from(view)
        site_code, off_code = site_code.decode(), off_code.decode()
        pos = _ROUTES_HEADER.size
        off_end = pos + (n_routes + 1) * array(off_code).itemsize
        offsets = _unpack(off_code, view[pos:off_end])
        sites = _unpack(site_code, view[off_end:])
        if len(sites) != n_sites:  # pragma: no cover - corrupt payload
            raise ValueError("WireRoutes blob site count mismatch")
        return tuple(
            tuple(sites[offsets[i] : offsets[i + 1]]) for i in range(n_routes)
        )

    def __len__(self) -> int:
        return len(self.blob)


# ----------------------------------------------------------------------
# Task payload, steady state: edits against the previous task's routes
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WireTaskDelta:
    """A task's routes as edits against an earlier task's routes.

    Between consecutive iterations the parent solution changes by one
    applied move — 1-2 routes out of 50+ — so a worker that just
    finished task ``base_task_id`` already holds 97% of the next task's
    routes.  The master ships only the :func:`diff_routes` edits
    (``WorkerPool.submit`` falls back to full :class:`WireRoutes`
    whenever the target worker's last completed task is not the base:
    first dispatch, retries on another worker, post-respawn).

    The edits are small enough (~3 sites per changed route) that plain
    pickle of the nested tuples beats any packing scheme's header
    overhead.
    """

    base_task_id: int
    replacements: tuple[tuple[int, tuple[int, ...]], ...]
    added: tuple[tuple[int, ...], ...]

    def apply(self, base_routes: Routes) -> Routes:
        """Rebuild the task routes from the cached base routes."""
        replacements = dict(self.replacements)
        out = []
        for k, route in enumerate(base_routes):
            if k in replacements:
                new_route = replacements[k]
                if new_route:
                    out.append(new_route)
            else:
                out.append(route)
        out.extend(self.added)
        return tuple(out)


def diff_routes(parent: Routes, child: Routes) -> WireTaskDelta | None:
    """Express ``child`` as :meth:`Solution.derive`-style edits of ``parent``.

    Returns ``None`` when no valid small edit exists (the caller ships
    full routes instead).  The result is *verified* — ``apply`` on the
    parent must reproduce the child exactly — so a pathological
    alignment (e.g. a replacement route that happens to equal an
    unrelated parent route) degrades to a full send, never to a wrong
    reconstruction.
    """
    n_p, n_c = len(parent), len(child)
    replacements: list[tuple[int, tuple[int, ...]]] = []
    i = j = 0
    while i < n_p and j < n_c:
        if parent[i] == child[j]:
            i += 1
            j += 1
        elif i + 1 < n_p and parent[i + 1] == child[j]:
            replacements.append((i, ()))  # deletion
            i += 1
        else:
            replacements.append((i, child[j]))
            i += 1
            j += 1
        if len(replacements) > 4:  # no single move edits this many routes
            return None
    while i < n_p:
        replacements.append((i, ()))
        i += 1
        if len(replacements) > 4:
            return None
    added = child[j:]
    if len(added) > 2:
        return None
    delta = WireTaskDelta(
        base_task_id=-1, replacements=tuple(replacements), added=added
    )
    if delta.apply(parent) != child:  # pragma: no cover - defensive
        return None
    return delta


# ----------------------------------------------------------------------
# Batch payload: evaluated neighbors as edits against the parent
# ----------------------------------------------------------------------
#: one neighbor on the encoder's side: the move's route edits, the
#: objective triple and the tabu attribute.
EditItem = tuple[
    dict[int, tuple[int, ...]],
    tuple[tuple[int, ...], ...],
    tuple[float, int, float],
    Hashable,
]


@dataclass(frozen=True, slots=True)
class WireBatch:
    """A neighbor batch as parent-relative route edits.

    Single-blob layout (header then sections, in order):

    ``objectives``
        ``float64`` pairs ``(distance, tardiness)`` per neighbor.  The
        vehicle count is *not* shipped: it equals the child's route
        count, which the decoder knows exactly from the edit structure
        (``len(parent) - deletions + additions`` — the same formula
        ``Evaluator.evaluate_move`` uses).
    ``edit counts``
        edits per neighbor (``uint8``).
    ``edit route indices``
        per edit: the parent route index it replaces, or ``-1`` for a
        newly opened route.
    ``edit site counts``
        per edit: length of the replacement route (``0`` deletes).
    ``edit sites``
        flat customer ids of all replacement/new routes.
    ``attr kind+op``
        per neighbor: attribute shape tag and operator id (``uint8``
        each, interleaved).
    ``attr payload``
        per neighbor one int (shape 0) or ``count + members`` ints
        (shape 1), flat.

    Attributes of canonical shape ``(op_name, int)`` or ``(op_name,
    frozenset[int])`` pack into the int sections; anything else rides
    the ``escapes`` pickle side-channel keyed by neighbor index.
    Operator names outside :data:`CANONICAL_OPS` go to ``op_names``
    (ids above ``len(CANONICAL_OPS)`` index into it).

    :meth:`decode` needs the parent routes (the master keeps them from
    ``submit``) and returns exactly the ``NeighborTriple`` tuple the
    uncoded path would have produced.
    """

    blob: bytes
    n: int
    op_names: tuple[str, ...] = ()
    escapes: tuple[tuple[int, Hashable], ...] = ()

    @classmethod
    def encode(cls, items: Sequence[EditItem]) -> "WireBatch":
        n = len(items)
        objectives = array("d")
        edit_counts = array("B")
        edit_route_idx: list[int] = []
        edit_site_counts: list[int] = []
        edit_sites: list[int] = []
        attr_tags = array("B")
        attr_ints: list[int] = []
        op_names: list[str] = []
        op_index: dict[str, int] = {}
        escapes: list[tuple[int, Hashable]] = []

        for i, (replacements, added, obj, attribute) in enumerate(items):
            objectives.append(obj[0])
            objectives.append(obj[2])
            edits = 0
            for idx, new_route in replacements.items():
                edit_route_idx.append(idx)
                edit_site_counts.append(len(new_route))
                edit_sites.extend(new_route)
                edits += 1
            for new_route in added:
                if not new_route:
                    continue  # Solution.derive drops empty additions
                edit_route_idx.append(-1)
                edit_site_counts.append(len(new_route))
                edit_sites.extend(new_route)
                edits += 1
            if edits > 0xFF:  # pragma: no cover - no operator edits 256 routes
                raise ValueError("too many route edits for one neighbor")
            edit_counts.append(edits)

            kind, op, payload = cls._pack_attribute(attribute)
            if kind == _ATTR_ESCAPE:
                escapes.append((i, attribute))
                attr_tags.append(_ATTR_ESCAPE)
                attr_tags.append(0)
            else:
                op_id = _CANON_INDEX.get(op)
                if op_id is None:
                    op_id = op_index.get(op)
                    if op_id is None:
                        op_id = len(CANONICAL_OPS) + len(op_names)
                        op_index[op] = op_id
                        op_names.append(op)
                if op_id > 0xFF:  # pragma: no cover - pathological registry
                    escapes.append((i, attribute))
                    attr_tags.append(_ATTR_ESCAPE)
                    attr_tags.append(0)
                else:
                    attr_tags.append(kind)
                    attr_tags.append(op_id)
                    attr_ints.extend(payload)

        site_values = edit_sites + attr_ints
        site_code = _int_code(
            max(site_values, default=0), min(min(site_values, default=0), -1)
        )
        idx_code = _int_code(max(edit_route_idx, default=0), -1)
        count_code = _int_code(max(edit_site_counts, default=0))
        header = _BATCH_HEADER.pack(
            site_code.encode(),
            idx_code.encode(),
            n,
            len(edit_route_idx),
            len(edit_sites),
            len(attr_ints),
        )
        blob = b"".join(
            (
                header,
                count_code.encode(),
                objectives.tobytes(),
                edit_counts.tobytes(),
                _pack(idx_code, edit_route_idx),
                _pack(count_code, edit_site_counts),
                _pack(site_code, edit_sites),
                attr_tags.tobytes(),
                _pack(site_code, attr_ints),
            )
        )
        return cls(
            blob=blob, n=n, op_names=tuple(op_names), escapes=tuple(escapes)
        )

    @staticmethod
    def _pack_attribute(attribute: Hashable):
        """Classify one tabu attribute into a packable shape.

        Integral values are normalized through :func:`operator.index`
        (operators leak ``np.int64`` customer ids from rng draws);
        decode returns plain ``int``, which hashes and compares equal,
        so tabu screening is unaffected.
        """
        if (
            type(attribute) is tuple
            and len(attribute) == 2
            and type(attribute[0]) is str
        ):
            op, key = attribute
            try:
                return _ATTR_INT, op, (index(key),)
            except TypeError:
                pass
            if type(key) is frozenset and len(key) <= 0xFFFF:
                try:
                    members = sorted(index(m) for m in key)
                except TypeError:
                    pass
                else:
                    return _ATTR_FROZENSET, op, (len(members), *members)
        return _ATTR_ESCAPE, "", ()

    def decode(self, parent_routes: Routes) -> tuple:
        """Rebuild the exact ``NeighborTriple`` tuple of this batch.

        Child routes are reconstructed with
        :meth:`repro.core.solution.Solution.derive` semantics —
        replacements in parent order (empty tuple deletes), additions
        appended — so they equal the ``move.apply(parent).routes`` the
        uncoded path ships.
        """
        view = memoryview(self.blob)
        site_c, idx_c, n, n_edits, n_edit_sites, n_attr_ints = (
            _BATCH_HEADER.unpack_from(view)
        )
        site_c, idx_c = site_c.decode(), idx_c.decode()
        pos = _BATCH_HEADER.size
        count_c = view[pos : pos + 1].tobytes().decode()
        pos += 1

        def take(code: str, count: int) -> list:
            nonlocal pos
            size = count * array(code).itemsize
            out = array(code)
            out.frombytes(view[pos : pos + size])
            pos += size
            return out.tolist()

        objectives = take("d", 2 * n)
        edit_counts = take("B", n)
        edit_route_idx = take(idx_c, n_edits)
        edit_site_counts = take(count_c, n_edits)
        edit_sites = take(site_c, n_edit_sites)
        attr_tags = take("B", 2 * n)
        attr_ints = take(site_c, n_attr_ints)

        escapes = dict(self.escapes)
        names = CANONICAL_OPS + self.op_names
        triples = []
        e = 0  # edit cursor
        s = 0  # edit-site cursor
        a = 0  # attr-int cursor
        n_parent = len(parent_routes)
        for i in range(n):
            replacements: dict[int, tuple[int, ...]] = {}
            added: list[tuple[int, ...]] = []
            for _ in range(edit_counts[i]):
                idx = edit_route_idx[e]
                size = edit_site_counts[e]
                route = tuple(edit_sites[s : s + size])
                s += size
                e += 1
                if idx < 0:
                    added.append(route)
                else:
                    replacements[idx] = route
            child: list[tuple[int, ...]] = []
            for k in range(n_parent):
                if k in replacements:
                    new_route = replacements[k]
                    if new_route:
                        child.append(new_route)
                else:
                    child.append(parent_routes[k])
            child.extend(added)

            kind = attr_tags[2 * i]
            if kind == _ATTR_ESCAPE:
                attribute = escapes[i]
            else:
                op = names[attr_tags[2 * i + 1]]
                if kind == _ATTR_INT:
                    attribute = (op, attr_ints[a])
                    a += 1
                else:
                    count = attr_ints[a]
                    attribute = (op, frozenset(attr_ints[a + 1 : a + 1 + count]))
                    a += 1 + count
            triples.append(
                (
                    tuple(child),
                    (objectives[2 * i], len(child), objectives[2 * i + 1]),
                    attribute,
                )
            )
        return tuple(triples)

    def __len__(self) -> int:
        return len(self.blob)


# ----------------------------------------------------------------------
# Admission payload: a whole instance as plain JSON-able data
# ----------------------------------------------------------------------
def instance_to_wire(instance) -> dict:
    """An :class:`~repro.vrptw.instance.Instance` as plain JSON data.

    This is the *admission* form of a per-job instance — what rides in
    ``JobSpec.to_wire`` and therefore in the ledger's ``accepted``
    entries, so recovery can rebuild the instance a restarted scheduler
    never saw.  Only the six site arrays and the scalars ship; the
    travel matrix is recomputed by the validating constructor on
    decode.  Python floats round-trip JSON exactly (``repr`` is
    shortest-exact), so the recomputed matrix is bit-identical for
    euclidean instances — and a *hand-edited* travel matrix, which
    would not survive the round trip, is caught loudly by the
    fingerprint check (:func:`repro.parallel.shm.instance_fingerprint`
    hashes the travel bytes) rather than silently re-euclideanized.
    """
    return {
        "name": instance.name,
        "capacity": float(instance.capacity),
        "n_vehicles": int(instance.n_vehicles),
        "x": [float(v) for v in instance.x],
        "y": [float(v) for v in instance.y],
        "demand": [float(v) for v in instance.demand],
        "ready_time": [float(v) for v in instance.ready_time],
        "due_date": [float(v) for v in instance.due_date],
        "service_time": [float(v) for v in instance.service_time],
    }


#: the keys :func:`instance_to_wire` writes and :func:`instance_from_wire` needs.
_INSTANCE_FIELDS = (
    "name",
    "x",
    "y",
    "demand",
    "ready_time",
    "due_date",
    "service_time",
    "capacity",
    "n_vehicles",
)


def instance_from_wire(wire: dict):
    """Rebuild an instance from :func:`instance_to_wire` data.

    Goes through the validating ``Instance`` constructor on purpose —
    ledger bytes are less trusted than live objects, and the O(N^2)
    travel recompute happens once per recovery, not per task.  A
    payload that is not an object, lacks a field or fails validation
    raises :class:`~repro.errors.LedgerError` naming the problem.
    """
    from repro.errors import InstanceError, LedgerError
    from repro.vrptw.instance import Instance

    if not isinstance(wire, dict):
        raise LedgerError(f"instance payload must be an object, got {type(wire).__name__}")
    missing = [name for name in _INSTANCE_FIELDS if name not in wire]
    if missing:
        raise LedgerError(f"instance payload is missing field(s) {missing}")
    try:
        return Instance(**{name: wire[name] for name in _INSTANCE_FIELDS})
    except (InstanceError, TypeError, ValueError) as exc:
        raise LedgerError(f"instance payload is malformed: {exc}") from exc


# ----------------------------------------------------------------------
# Measurement (bench_micro.py wire-cost benchmark, EXPERIMENTS recipe)
# ----------------------------------------------------------------------
def wire_cost(
    instance,
    *,
    neighborhood: int = 200,
    batch_size: int = 10,
    seed: int = 0,
) -> dict:
    """Pickle-baseline vs codec payload bytes for one real iteration.

    Samples ``neighborhood`` neighbors of an I1 construction on
    ``instance`` and measures, in bytes:

    * the instance itself (pickled) vs what a shared-memory attach
      ships per worker (the descriptor);
    * one task payload: nested route tuples pickled vs ``WireRoutes``;
    * one result batch of ``batch_size`` neighbors: full
      ``NeighborTriple`` tuples pickled (with pickle's own intra-batch
      memoization — the honest baseline, it is what the queue did) vs
      ``WireBatch``;
    * the whole iteration's traffic (one task out, the neighborhood
      back in ``batch_size``-sized batches) both ways.

    Returns a flat dict of byte counts and ratios; the bench writes it
    into ``BENCH_micro.json``.
    """
    import numpy as np

    from repro.core.construction import i1_construct
    from repro.core.evaluation import Evaluator
    from repro.core.operators.registry import default_registry
    from repro.parallel.shm import share_instance

    solution = i1_construct(instance, rng=seed)
    registry = default_registry()
    evaluator = Evaluator(instance)
    rng = np.random.default_rng(seed)

    triples = []
    edit_items = []
    while len(triples) < neighborhood:
        move = registry.draw_move(solution, rng)
        if move is None:
            continue
        obj = evaluator.evaluate_move(solution, move)
        replacements, added = move.route_edits(solution)
        child = move.apply(solution)
        objective = (obj.distance, obj.vehicles, obj.tardiness)
        triples.append((child.routes, objective, move.attribute))
        edit_items.append((replacements, added, objective, move.attribute))

    def batched(seq):
        return [
            seq[i : i + batch_size] for i in range(0, len(seq), batch_size)
        ]

    task_pickle = len(pickle.dumps(solution.routes))
    task_wire_full = len(pickle.dumps(WireRoutes.encode(solution.routes)))
    # Steady state the master ships a WireTaskDelta: the next iteration's
    # parent is this parent plus one applied move.
    child_routes = triples[0][0]
    delta = diff_routes(solution.routes, child_routes)
    assert delta is not None
    task_wire = len(pickle.dumps(delta))
    batch_pickle = len(pickle.dumps(tuple(triples[:batch_size])))
    batch_wire = len(pickle.dumps(WireBatch.encode(edit_items[:batch_size])))
    iter_pickle = task_pickle + sum(
        len(pickle.dumps(tuple(chunk))) for chunk in batched(triples)
    )
    iter_wire = task_wire + sum(
        len(pickle.dumps(WireBatch.encode(chunk)))
        for chunk in batched(edit_items)
    )

    shared = share_instance(instance)
    try:
        per_worker = len(pickle.dumps(shared.ref))
    finally:
        shared.destroy()
    instance_pickle = len(pickle.dumps(instance))

    return {
        "neighborhood": neighborhood,
        "batch_size": batch_size,
        "instance_bytes_pickle": instance_pickle,
        "instance_bytes_shared": per_worker,
        "instance_ratio": instance_pickle / per_worker,
        "task_bytes_pickle": task_pickle,
        "task_bytes_wire": task_wire,
        "task_bytes_wire_full": task_wire_full,
        "task_ratio": task_pickle / task_wire,
        "batch_bytes_pickle": batch_pickle,
        "batch_bytes_wire": batch_wire,
        "batch_ratio": batch_pickle / batch_wire,
        "iteration_bytes_pickle": iter_pickle,
        "iteration_bytes_wire": iter_wire,
        "iteration_ratio": iter_pickle / iter_wire,
    }
