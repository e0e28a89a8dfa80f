"""In-memory span recorder for the traced run.

The recorder wraps public functions of each layer *where their callers
look them up* (a function imported by name into another module is
patched in that module too), records one span per call — name, layer,
start, end, parent span, thread — and restores every original on
:meth:`Recorder.uninstall`.  Spans stay in memory until
:meth:`Recorder.dump` writes them out at the end of the run.

Layer accounting:

- a span's *self* time is its duration minus its child spans (children
  always run on the parent's thread, so they are disjoint in time);
- a layer's *inclusive* time sums only its outermost spans (a span with
  no ancestor of the same layer), so nested calls inside one layer are
  not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# Span fields, kept as a list for cheap in-place completion.
NAME, LAYER, START, END, PARENT, OUTER, THREAD, ATTRS = range(8)


class Recorder:
    """Collects spans from patched layer functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Cost-cache [lookups, hits] (see :meth:`count_cache`).
        self.cache_counts = [0, 0]
        self.uid_reads = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
        return local

    def begin(self, name: str, layer: str, attrs=None) -> list:
        local = self._state()
        depth = local.depth.get(layer, 0)
        local.depth[layer] = depth + 1
        span = [
            name,
            layer,
            time.perf_counter(),
            0.0,
            local.stack[-1] if local.stack else None,
            depth == 0,
            threading.get_ident(),
            attrs,
        ]
        local.stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: list) -> None:
        span[END] = time.perf_counter()
        local = self._local
        local.stack.pop()
        local.depth[span[LAYER]] -= 1

    @contextlib.contextmanager
    def op(self, name: str):
        """Context manager for one benchmark operation (layer ``op``)."""
        span = self.begin(name, "op")
        try:
            yield span
        finally:
            self.finish(span)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _traced(self, fn, label: str, layer: str, observe=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.begin(label, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, layer: str, observe=None) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) with a span-recording wrapper."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            label = f"{owner.__name__}.{attr}"
            if isinstance(original, classmethod):
                patched = classmethod(
                    self._traced(original.__func__, label, layer, observe)
                )
            else:
                patched = self._traced(original, label, layer, observe)
        else:
            original = getattr(owner, attr)
            label = f"{getattr(original, '__module__', '')}.{attr}"
            patched = self._traced(original, label, layer, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def wrap_all(self, owners, attrs, layer: str, observe=None) -> None:
        """:meth:`wrap` each name in every owner that binds it; a name no
        owner binds is an error, so a renamed layer function cannot
        silently drop out of the trace."""
        for attr in attrs:
            bound = [owner for owner in owners if attr in vars(owner)]
            if not bound:
                raise AttributeError(f"no traced owner binds {attr!r}")
            for owner in bound:
                self.wrap(owner, attr, layer, observe)

    def count_property(self, cls, attr: str, counter) -> None:
        """Count reads of a property without recording spans."""
        original = cls.__dict__[attr]
        getter = original.fget

        def counted(obj):
            next(counter)
            return getter(obj)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, property(counted, doc=original.__doc__))

    def count_cache(self, cls) -> None:
        """Count cost-cache lookups and hits at the cache boundary, with
        the cache's own rule: a ``get`` is a lookup (a hit when it
        returns a value) and ``record_external_hits(n)`` adds ``n`` of
        each."""
        get, external = cls.__dict__["get"], cls.__dict__["record_external_hits"]
        lock, counts = threading.Lock(), self.cache_counts

        @functools.wraps(get)
        def counted_get(cache, key):
            value = get(cache, key)
            with lock:
                counts[0] += 1
                counts[1] += value is not None
            return value

        @functools.wraps(external)
        def counted_external(cache, n=1):
            external(cache, n)
            with lock:
                counts[0] += n
                counts[1] += n

        self._patches += [(cls, "get", get), (cls, "record_external_hits", external)]
        cls.get, cls.record_external_hits = counted_get, counted_external

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``incl_s`` (outermost spans), ``calls``
        (outermost spans) and ``spans`` (all)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                key = id(parent)
                child_time[key] = child_time.get(key, 0.0) + (
                    span[END] - span[START]
                )
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            duration = span[END] - span[START]
            entry = totals.setdefault(
                span[LAYER],
                {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "spans": 0},
            )
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
            entry["spans"] += 1
            if span[OUTER]:
                entry["incl_s"] += duration
                entry["calls"] += 1
        return totals

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent_index, thread]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                span[NAME],
                round(span[START], 7),
                round(span[END], 7),
                None if span[PARENT] is None else index[id(span[PARENT])],
                span[THREAD],
            ]
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))


def install_layers(recorder: Recorder) -> dict:
    """Patch every layer the benchmark reports on.

    Returns the mutable counters the observers fill in.
    """
    modules = {
        name: importlib.import_module(f"repro.{name}")
        for name in (
            "api.diff", "api.engine", "api.reshard", "api.schema",
            "api.service", "api.store", "core.beam_search", "core.cache",
            "core.greedy_grid", "core.sharder", "core.simulator",
            "costmodel.comm_model", "costmodel.compute_model",
            "costmodel.features", "costmodel.kernels", "data.table",
            "provenance.audit", "provenance.chain", "validation.invariants",
        )
    }
    (diff, engine, reshard_mod, schema, service, store, beam_search, cache,
     greedy_grid, sharder, simulator, comm_model, compute_model, features,
     kernels, table, audit, chain, invariants) = modules.values()

    counters = {"kernel_rows": 0, "kernel_padded": 0, "beam_evaluations": 0}
    chunk = kernels.CHUNK_ROWS

    def kernel_rows(span, args, result):
        rows = int(args[1].shape[0])
        counters["kernel_rows"] += rows
        counters["kernel_padded"] += -(-rows // chunk) * chunk

    def beam_evaluations(span, args, result):
        counters["beam_evaluations"] += int(result.evaluations)

    def deployment_name(span, args, result):
        span[ATTRS] = args[1] if len(args) > 1 else None

    # costmodel.kernels: chunked_infer_mlp is bound by name in both models.
    recorder.wrap_all(
        [compute_model, comm_model], ["chunked_infer_mlp"], "kernels",
        kernel_rows,
    )
    recorder.wrap_all(
        [features.TableFeaturizer],
        ["row_index", "row_indices", "gather", "features", "features_rows",
         "features_matrix"],
        "features",
    )
    recorder.wrap_all(
        [simulator.NeuroShardSimulator],
        ["device_compute_costs_batch", "plan_costs_keyed_batch",
         "device_compute_costs", "plan_cost", "single_table_costs",
         "device_compute_costs_keyed", "plan_cost_keyed"],
        "simulator",
    )
    recorder.count_cache(cache.CostCache)
    recorder.wrap_all(
        [beam_search, greedy_grid],
        ["_drive_grid_instances", "greedy_grid_search"],
        "grid",
    )
    recorder.wrap_all([sharder], ["beam_search"], "beam", beam_evaluations)
    recorder.wrap_all([engine.ShardingEngine], ["shard", "shard_batch"], "engine")
    recorder.wrap_all([service], ["incremental_reshard"], "reshard")
    recorder.wrap_all([diff.PlanDiff], ["between"], "diff")
    recorder.count_property(table.TableConfig, "uid", recorder.uid_reads)
    recorder.wrap_all(
        [schema, service], ["plan_to_dict", "plan_from_dict"], "schema"
    )
    recorder.wrap_all(
        [service.PlanRecord, diff.PlanDiff, reshard_mod.WorkloadDelta,
         schema.ShardingRequest, schema.ShardingResponse,
         invariants.ValidationReport],
        ["to_dict", "from_dict"],
        "schema",
    )
    recorder.wrap_all(
        [store.PlanStore], ["save_meta", "save_record", "save_state"], "store.write"
    )
    recorder.wrap_all(
        [store.PlanStore],
        ["load_meta", "load_record", "read_record_bytes", "load_state",
         "versions", "latest_version", "names", "has_deployment"],
        "store.read",
    )
    recorder.wrap_all(
        [invariants.PlanValidator],
        ["validate_plan", "validate_record", "validate_response",
         "validate_diff", "validate_transition", "validate_rollback",
         "validate_history"],
        "validator",
    )
    recorder.wrap_all(
        [chain, service, audit],
        ["canonical_bytes", "record_digest", "content_digest", "chain_digest",
         "genesis_digest", "raw_digest", "link_record",
         "link_digest_of_payload", "state_digest", "state_stamp",
         "stamp_fingerprint"],
        "provenance",
    )
    recorder.wrap_all([audit], ["audit_deployment"], "audit")
    recorder.wrap_all(
        [service.ShardingService],
        ["create_deployment", "plan", "plan_batch", "apply", "rollback",
         "reshard", "get_record", "applied_record", "history",
         "validate_deployment", "audit_deployment", "status"],
        "service",
        deployment_name,
    )
    return counters
