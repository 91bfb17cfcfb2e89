"""Which ``repro`` entry points each traced layer wraps, and what they count.

:func:`install` wires a :class:`tracing.LayerTracer` into the program;
:func:`layer_metrics` turns one traced grid's spans and counts into the
per-layer metrics listed in :mod:`layers`. The run-level hooks on
``run_workflow`` compare the wrapper counts with the program's own
counters after every run (``system_stats`` and ``KVS.stats``).
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from tracing import LayerTracer, Spec

__all__ = ["install", "layer_metrics"]

#: wrapper count -> ``system_stats`` key it must equal after every run
_CROSSCHECK = (
    ("cluster.network.messages", "fabric_messages"),
    ("cluster.network.rdma_transfers", "fabric_rdma_transfers"),
    ("cluster.network.bytes_moved", "fabric_bytes_moved"),
    ("cluster.ssd.bytes_written", "ssd_bytes_written"),
    ("cluster.ssd.bytes_read", "ssd_bytes_read"),
    ("invariants.checks", "invariant_checks"),
    ("sim.fluid.epochs", "fluid_epochs"),
    ("sim.fluid.rate_solves", "rate_solves"),
    ("sim.resources.reschedules", "channel_reschedules"),
    ("dyad.fast_hits", "dyad_fast_hits"),
    ("dyad.kvs_waits", "dyad_kvs_waits"),
    ("dyad.cache_hits", "dyad_cache_hits"),
    ("workflow.streaming.credits_issued", "stream_credits_issued"),
    ("workflow.streaming.producer_blocks", "stream_producer_blocks"),
)


def _arg(index: int, name: str, default=0):
    """Accessor for a call argument given positionally or by keyword."""
    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)
    return get


def _adder(metric: str, value):
    def on_call(tracer, args, kwargs):
        tracer.counts[metric] += value(args, kwargs)
    return on_call


def _wire_bytes(args, kwargs):
    """Bytes a fabric call puts on the wire (loopback moves none)."""
    src, dst = _arg(1, "src")(args, kwargs), _arg(2, "dst")(args, kwargs)
    return 0 if src == dst else _arg(3, "nbytes")(args, kwargs)


def _bulk_pulls(args, kwargs):
    """Wire operations of ``Fabric.rdma_get_bulk``: one per chunk."""
    nbytes = _arg(3, "nbytes")(args, kwargs)
    chunk = _arg(4, "chunk")(args, kwargs)
    k, r = divmod(nbytes, chunk)
    return k + (1 if r else 0) if k or r else 1


def _run_started(tracer, args, kwargs):
    tracer.begin_run()
    spec = args[0] if args else kwargs["spec"]
    tracer.counts["frames_produced"] += spec.frames * spec.n_producers
    tracer.marks.clear()
    tracer.marks["call"] = perf_counter()


def _run_finished(tracer, args, result):
    end = perf_counter()
    marks = tracer.marks
    build = marks.get("build_end", marks["call"]) - marks.get(
        "build_start", marks["call"])
    tracer.timers["cluster.build_s"] += build
    if "run_start" in marks:
        tracer.timers["workflow.runner.spawn_s"] += (
            marks["run_start"] - marks["call"] - build)
        tracer.timers["workflow.runner.collect_s"] += end - marks["run_end"]
    stats = result.system_stats
    # stale wake-ups are retired inside the channels' inlined hot paths,
    # where no wrapper sees them: the program's counter is the source
    tracer.counts["stale_wakeups"] += stats.get("channel_stale_wakeups", 0.0)
    label = f"op {tracer.op_id} ({result.spec.system.value} seed "\
            f"{result.seed})"
    tracer.crosscheck(label, [(metric, stats.get(key, 0.0))
                              for metric, key in _CROSSCHECK])
    kvs = tracer.kvs_instances
    tracer.crosscheck(label, [
        ("kvs.commits", float(sum(k.stats.commits for k in kvs))),
        ("kvs.lookups", float(sum(k.stats.lookups for k in kvs))),
        ("kvs.watches", float(sum(k.stats.watches for k in kvs))),
    ])


def _env_run_started(tracer, args, kwargs):
    tracer.marks.setdefault("run_start", perf_counter())


def _env_run_finished(tracer, args, value):
    tracer.marks["run_end"] = perf_counter()


def _build_started(tracer, args, kwargs):
    tracer.marks["build_start"] = perf_counter()


def _build_finished(tracer, args, value):
    tracer.marks["build_end"] = perf_counter()


def _kvs_created(tracer, args, kwargs):
    tracer.kvs_instances.append(args[0])


def _fetch_hit(tracer, args, value):
    tracer.counts["dyad.fast_hits"] += 1


def _timer_start(mark):
    def on_call(tracer, args, kwargs):
        tracer.marks[mark] = perf_counter()
    return on_call


def _timer_stop(mark, timer):
    def on_return(tracer, args, value):
        tracer.timers[timer] += perf_counter() - tracer.marks.pop(mark)
    return on_return


_load_timer = _timer_stop("load", "experiments.persist.load_s")


def _load_started(tracer, args, kwargs):
    tracer.begin_op()
    tracer.marks["load"] = perf_counter()


def _load_finished(tracer, args, value):
    _load_timer(tracer, args, value)
    if value is not None:
        tracer.counts["experiments.persist.hits"] += 1


def _credit_blocked(tracer, args):
    tracer.counts["workflow.streaming.producer_blocks"] += 1


def _own_functions(cls, skip=()):
    """Names of the methods defined directly on ``cls``, excluding
    properties and dunder methods."""
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__") or attr in skip:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        if inspect.isfunction(fn):
            yield attr


def _module_functions(module):
    """Names of the functions defined (not imported) in ``module``."""
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


def install(tracer: LayerTracer) -> None:
    """Wrap every traced entry point. Call before building any cluster."""
    from repro.cluster import network, ssd
    from repro.dyad import client, mdm, rdma, service
    from repro.experiments import common, persist
    from repro.kvs import store
    from repro.perf import caliper, calltree
    from repro.sim import core, fluid, resources, rng
    from repro.storage import locks, lustre, posixfs, xfs
    from repro.workflow import emulator, runner, streaming, topology
    import repro.invariants as invariants
    # the package re-exports the function under its module's name
    corona = sys.modules["repro.cluster.corona"]

    def spec(layer, name, **kw):
        return Spec(layer, f"{layer}:{name}", **kw)

    def whole_class(layer, cls, extra=None, skip=(), default=None):
        extra = extra or {}
        for attr in _own_functions(cls, skip):
            tracer.patch_method(
                cls, attr, spec(layer, f"{cls.__name__}.{attr}",
                                **extra.get(attr, default or {})))

    def functions(layer, module, names):
        for name in names:
            tracer.patch_function(getattr(module, name), spec(layer, name))

    # -- kernel and channels ------------------------------------------------
    seq = ("sim.core.events", lambda env: env._seq)
    tracer.patch_method(core.Environment, "run", spec(
        "sim.core", "Environment.run", deltas=(seq,),
        on_call=_env_run_started, on_return=_env_run_finished))
    tracer.patch_method(core.Environment, "run_guarded", spec(
        "sim.core", "Environment.run_guarded", deltas=(seq,),
        on_call=_env_run_started, on_return=_env_run_finished))
    resched = {"deltas": (("sim.resources.reschedules",
                           lambda ch: ch.reschedules),)}
    whole_class("sim.resources", resources.SharedBandwidth, {
        "transfer": {"count": "sim.resources.transfers", **resched},
    }, skip=("_sample_metrics", "attach_metrics", "current_rate"),
        default=resched)
    whole_class("sim.resources", resources.Resource,
                skip=("_sample_metrics", "attach_metrics"))
    whole_class("sim.resources", resources.Signal)
    whole_class("sim.resources", resources.Store)
    # every method of a layer carries the layer's counter delta, so the
    # outermost span always accounts for what nested calls did
    epochs = ("sim.fluid.epochs",
              lambda obj: getattr(obj, "net", obj).fluid_epochs)
    fluid_all = {"deltas": (epochs,)}
    whole_class("sim.fluid", fluid.FluidNetwork, {
        "_solve": {"count": "sim.fluid.rate_solves", **fluid_all},
    }, skip=("_next_uid", "_sample_metered"), default=fluid_all)
    whole_class("sim.fluid", fluid.FluidLink, default=fluid_all,
                skip=("_sample_metrics", "attach_metrics", "current_rate"))
    tracer.patch_method(rng.RngStreams, "stream", spec(
        "sim.rng", "RngStreams.stream", count="sim.rng.stream_calls"))
    tracer.patch_method(rng.RngStreams, "jitter", spec(
        "sim.rng", "RngStreams.jitter", count="sim.rng.jitter_calls"))

    # -- cluster ------------------------------------------------------------
    tracer.patch_function(corona.corona, spec(
        "cluster", "corona", on_call=_build_started,
        on_return=_build_finished))
    nbytes = _wire_bytes
    whole_class("cluster.network", network.Fabric, {
        "message": {"count": "cluster.network.messages",
                    "on_call": _adder("cluster.network.bytes_moved",
                                      nbytes)},
        "transfer": {"on_call": _adder("cluster.network.bytes_moved",
                                       nbytes)},
        "rdma_get": {"count": "cluster.network.rdma_transfers",
                     "on_call": _adder("cluster.network.bytes_moved",
                                       nbytes)},
        "rdma_get_bulk": {"on_call": _both(
            _adder("cluster.network.rdma_transfers", _bulk_pulls),
            _adder("cluster.network.bytes_moved", nbytes))},
    }, skip=("attach_metrics", "channels", "nic", "attach"))
    ssd_bytes = _arg(1, "nbytes")
    whole_class("cluster.ssd", ssd.SSDModel, {
        "write": {"on_call": _adder("cluster.ssd.bytes_written",
                                    ssd_bytes)},
        "read": {"on_call": _adder("cluster.ssd.bytes_read", ssd_bytes)},
    }, skip=("attach_metrics", "channels"))

    # -- storage ------------------------------------------------------------
    whole_class("storage.posixfs", posixfs.PosixFileSystem, {
        "open": {"count": "storage.posixfs.opens"},
    })
    whole_class("storage.posixfs", posixfs.FileHandle)
    tracer.patch_function(posixfs.normalize, spec(
        "storage.posixfs", "normalize",
        count="storage.posixfs.normalize_calls"))
    whole_class("storage.xfs", xfs.XFSFileSystem)
    whole_class("storage.locks", locks.LockTable)
    whole_class("storage.lustre", lustre.LustreServers, {
        "mds_rpc": {"count": "storage.lustre.mds_rpcs"},
        "bulk_rpcs": {"count": "storage.lustre.bulk_rpcs"},
    }, skip=("attach_metrics", "channels"))
    whole_class("storage.lustre", lustre.LustreFileSystem)
    functions("storage.lustre", lustre, ["_held"])

    # -- KVS and DYAD ---------------------------------------------------------
    whole_class("kvs", store.KVS, {
        "commit": {"count": "kvs.commits"},
        "lookup": {"count": "kvs.lookups"},
        "wait_for": {"count": "kvs.watches"},
    }, skip=("attach_metrics",))
    tracer.patch_method(store.KVS, "__init__", spec(
        "kvs", "KVS.__init__", on_call=_kvs_created))
    whole_class("dyad", mdm.MetadataManager, {
        "fetch": {"on_return": _fetch_hit},
        "wait": {"count": "dyad.kvs_waits"},
    })
    whole_class("dyad", client.DyadProducerClient)
    whole_class("dyad", client.DyadConsumerClient, {
        "consume": {"deltas": (("dyad.cache_hits",
                                lambda c: c.cache_hits),)},
        "_get_remote": {"count": "dyad.pulls"},
    })
    whole_class("dyad", service.DyadService, skip=("attach_metrics",))
    whole_class("dyad", service.DyadRuntime, skip=("attach_metrics", "env"))
    whole_class("dyad", rdma.RdmaTransport)

    # -- instrumentation and checking ----------------------------------------
    whole_class("perf.caliper", caliper.Annotator, {
        "begin": {"count": "perf.caliper.regions"},
    }, skip=("region",))
    whole_class("perf.caliper", client._Regions)
    whole_class("perf.calltree", calltree.CallTree)
    checks = ("invariants.checks", lambda checker: checker.checks)
    whole_class("invariants", invariants.InvariantChecker,
                default={"deltas": (checks,)})

    # -- workflow -------------------------------------------------------------
    tracer.patch_function(runner.run_workflow, spec(
        "workflow.runner", "run_workflow", on_call=_run_started,
        on_return=_run_finished))
    functions("workflow.runner", runner, ["_spawn_posix"])
    functions("workflow.emulator", emulator,
              ["dyad_producer", "dyad_consumer", "posix_producer",
               "posix_consumer", "posix_consumer_polling"])
    whole_class("workflow.emulator", emulator.ComputeModel)
    whole_class("workflow.streaming", streaming.StreamChannel, {
        "acquire_credit": {"count": "workflow.streaming.credits_issued",
                           "on_block": _credit_blocked},
    }, skip=("occupancy",))
    functions("workflow.streaming", streaming, [
        name for name in _module_functions(streaming)
        if name.startswith(("_streaming_", "_posix_", "spawn_"))])
    whole_class("workflow.topology", topology.TaskQueue)
    whole_class("workflow.topology", topology.TopologySetup)
    functions("workflow.topology", topology, _module_functions(topology))

    # -- experiments ----------------------------------------------------------
    whole_class("experiments.persist", persist.ResultCache, {
        "store": {"count": "experiments.persist.stores",
                  "on_call": _timer_start("store"),
                  "on_return": _timer_stop("store",
                                           "experiments.persist.store_s")},
        "store_bytes": {"on_call": _adder(
            "experiments.persist.bytes_stored",
            lambda args, kwargs: len(_arg(2, "blob")(args, kwargs)))},
        "load": {"count": "experiments.persist.loads",
                 "on_call": _load_started,
                 "on_return": _load_finished},
    })
    functions("experiments.persist", persist,
              ["encode_result", "decode_result"])
    tracer.patch_method(common.Cell, "of", spec(
        "experiments.common", "Cell.of"))
    tracer.patch_method(common.Stat, "of", spec(
        "experiments.common", "Stat.of"))


def _both(first, second):
    def on_call(tracer, args, kwargs):
        first(tracer, args, kwargs)
        second(tracer, args, kwargs)
    return on_call


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer) -> dict:
    """Per-layer metrics of everything traced since the last reset."""
    c = tracer.counts
    s = tracer.self_s
    t = tracer.total_s
    events = c["sim.core.events"]
    consumed = c["dyad.fast_hits"] + c["dyad.kvs_waits"]
    loads = c["experiments.persist.loads"]
    out = {
        "sim.core.events": events,
        "sim.core.events_per_frame": _ratio(events, c["frames_produced"]),
        "sim.core.self_s": s["sim.core"],
        "sim.core.ns_per_event": _ratio(s["sim.core"] * 1e9, events),
        "sim.resources.transfers": c["sim.resources.transfers"],
        "sim.resources.reschedules": c["sim.resources.reschedules"],
        "sim.resources.stale_ratio": _ratio(c["stale_wakeups"],
                                            c["sim.resources.reschedules"]),
        "sim.resources.self_s": s["sim.resources"],
        "sim.fluid.epochs": c["sim.fluid.epochs"],
        "sim.fluid.rate_solves": c["sim.fluid.rate_solves"],
        "sim.fluid.self_s": s["sim.fluid"],
        "sim.rng.jitter_calls": c["sim.rng.jitter_calls"],
        "sim.rng.stream_calls": c["sim.rng.stream_calls"],
        "sim.rng.self_s": s["sim.rng"],
        "cluster.build_s": tracer.timers["cluster.build_s"],
        "cluster.network.messages": c["cluster.network.messages"],
        "cluster.network.rdma_transfers": c["cluster.network.rdma_transfers"],
        "cluster.network.bytes_moved": c["cluster.network.bytes_moved"],
        "cluster.network.self_s": s["cluster.network"],
        "cluster.ssd.bytes_written": c["cluster.ssd.bytes_written"],
        "cluster.ssd.bytes_read": c["cluster.ssd.bytes_read"],
        "cluster.ssd.self_s": s["cluster.ssd"],
        "storage.posixfs.opens": c["storage.posixfs.opens"],
        "storage.posixfs.normalize_calls":
            c["storage.posixfs.normalize_calls"],
        "storage.posixfs.self_s": s["storage.posixfs"],
        "storage.xfs.self_s": s["storage.xfs"],
        "storage.locks.self_s": s["storage.locks"],
        "storage.lustre.mds_rpcs": c["storage.lustre.mds_rpcs"],
        "storage.lustre.bulk_rpcs": c["storage.lustre.bulk_rpcs"],
        "storage.lustre.self_s": s["storage.lustre"],
        "kvs.commits": c["kvs.commits"],
        "kvs.lookups": c["kvs.lookups"],
        "kvs.watches": c["kvs.watches"],
        "kvs.self_s": s["kvs"],
        "dyad.fast_hits": c["dyad.fast_hits"],
        "dyad.kvs_waits": c["dyad.kvs_waits"],
        "dyad.cache_hits": c["dyad.cache_hits"],
        "dyad.fast_hit_ratio": _ratio(c["dyad.fast_hits"], consumed),
        "dyad.pulls_per_frame": _ratio(c["dyad.pulls"], consumed),
        "dyad.self_s": s["dyad"],
        "perf.caliper.regions": c["perf.caliper.regions"],
        "perf.caliper.self_s": s["perf.caliper"],
        "perf.calltree.self_s": s["perf.calltree"],
        "invariants.checks": c["invariants.checks"],
        "invariants.self_s": s["invariants"],
        "workflow.runner.spawn_s": tracer.timers["workflow.runner.spawn_s"],
        "workflow.runner.collect_s":
            tracer.timers["workflow.runner.collect_s"],
        "workflow.streaming.credits_issued":
            c["workflow.streaming.credits_issued"],
        "workflow.streaming.producer_blocks":
            c["workflow.streaming.producer_blocks"],
        "workflow.streaming.self_s": s["workflow.streaming"],
        "workflow.topology.self_s": s["workflow.topology"],
        "experiments.persist.stores": c["experiments.persist.stores"],
        "experiments.persist.store_s":
            tracer.timers["experiments.persist.store_s"],
        "experiments.persist.bytes_stored":
            c["experiments.persist.bytes_stored"],
        "experiments.persist.loads": loads,
        "experiments.persist.load_s":
            tracer.timers["experiments.persist.load_s"],
        "experiments.persist.hit_ratio": _ratio(
            c["experiments.persist.hits"], loads),
        "experiments.common.aggregate_s": t["experiments.common"],
    }
    return {name: float(value) for name, value in out.items()}

