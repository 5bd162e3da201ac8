"""Layer tracing for the traced benchmark run, installed from outside the program.

Every public function and public method of each `clopen.*` module is wrapped.
A wrapper opens a span when the call enters its layer from another layer, or
always for the functions whose own time is a metric; a call that stays inside
its layer is only counted.  Spans record name, start, end, parent span and op
id, are kept in memory (up to SPAN_KEEP of them) and are written out at the
end.  A layer's self time is its spans' time minus their child spans' time.

Bindings copied by `from .x import f` are replaced in every module namespace
that holds the original, so the wrappers see calls however a module reached
the function.  A hook whose target is gone (renamed or deleted by a refactor)
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("coding", "baire", "trees", "dsl", "witness", "luzin", "remetrize",
          "codes", "instances", "verify", "cli")

# functions whose own self or wall time is a metric: always a span
TIMED = {
    "trees.dense_pn_distance", "codes.check_metric_axioms", "codes.RationalMetricTable.rows",
    "codes.render_code_file", "codes.parse_code_file", "codes.decode_metric",
    "instances.parse_instance", "instances.build_instance",
}

# hot tiny calls: counted, never a span
COUNT_ONLY = {"baire.BairePoint.__call__", "baire.BairePoint.__init__",
              "trees.PrunedTree.admits", "trees.PrunedTree.__init__"}

# special methods hooked besides the public ones
DUNDER_HOOKS = COUNT_ONLY | {"luzin.LuzinScheme.__init__"}

SPAN_KEEP = 200_000

VERIFY_CHECKS = (
    "check_tree_valid", "check_dense_family", "check_distance_oracle",
    "check_dense_metric_axioms", "check_sum_metric_axioms", "check_clopen_sides",
    "check_epsilon_code", "check_extension_certificates", "check_degenerate",
    "check_two_sided_continuity", "check_luzin_scheme", "check_embedding_injective",
    "check_image_tree_pruned", "check_witness_matrix", "check_interleaved_table",
    "check_code_matches_sum",
)

# metric -> hooks it is computed from; a metric is missing if one of its hooks is
METRIC_HOOKS = {
    "coding.decode.calls": ("coding.decode",),
    "coding.decode.hit_ratio": ("coding.decode",),
    "coding.encode.calls": ("coding.encode",),
    "baire.point_calls": ("baire.BairePoint.__call__",),
    "baire.points_created": ("baire.BairePoint.__init__",),
    "baire.distance.calls": ("baire.distance",),
    "baire.distance.positions": ("baire.distance",),
    "baire.distance.undecided_ratio": ("baire.distance",),
    "baire.exact_distance.calls": ("baire.exact_distance",),
    "trees.admits.calls": ("trees.PrunedTree.admits",),
    "trees.predicate.calls": ("trees.PrunedTree.__init__",),
    "trees.admits.hit_ratio": ("trees.PrunedTree.admits", "trees.PrunedTree.__init__"),
    "trees.validate_pruned.inspected": ("trees.validate_pruned",),
    "trees.dense_pn_distance.calls": ("trees.dense_pn_distance",),
    "trees.dense_pn_distance.self_s": ("trees.dense_pn_distance",),
    "trees.leftmost.calls": ("trees.DensePointFamily.leftmost",),
    "trees.enumerate_distinct.codes_scanned": ("trees.enumerate_distinct",),
    "trees.enumerate_distinct.useful_ratio": ("trees.enumerate_distinct",),
    "dsl.evaluate.calls": ("dsl.evaluate",),
    "witness.check.calls": ("witness.Pi02Matrix.check",),
    "witness.witness_point.calls": ("witness.WitnessClosure.witness_point",),
    "witness.continuity_modulus.calls": ("witness.WitnessClosure.continuity_modulus",),
    "luzin.ball_stage.calls": ("luzin.LuzinScheme.ball_stage",),
    "luzin.cell_member_seq.calls": ("luzin.LuzinScheme.cell_member_seq",),
    "luzin.ball_member.calls": ("luzin.ZeroDimPresentation.ball_member",),
    "luzin.ball_stage.miss_ratio": ("luzin.LuzinScheme.ball_stage",
                                    "luzin.ZeroDimPresentation.ball_member"),
    "luzin.dense_point.calls": ("luzin.LuzinScheme.__init__",),
    "luzin.embed.calls": ("luzin.LuzinScheme.embed",),
    "remetrize.sum_distance.calls": ("remetrize.sum_distance",),
    "remetrize.extension_certificate.calls": ("remetrize.extension_certificate",),
    "codes.check_metric_axioms.self_s": ("codes.check_metric_axioms",),
    "codes.check_metric_axioms.pairs": ("codes.check_metric_axioms",),
    "codes.check_metric_axioms.alloc_peak_mb": ("codes.check_metric_axioms",),
    "codes.rows.self_s": ("codes.RationalMetricTable.rows",),
    "codes.render_code_file.self_s": ("codes.render_code_file",),
    "codes.code_file.bytes": ("codes.render_code_file",),
    "codes.parse_code_file.self_s": ("codes.parse_code_file",),
    "codes.decode_metric.calls": ("codes.decode_metric",),
    "codes.decode_metric.self_s": ("codes.decode_metric",),
    "instances.parse_instance.self_s": ("instances.parse_instance",),
    "instances.build_instance.self_s": ("instances.build_instance",),
    "cli.output.bytes": ("cli.main",),
}
METRIC_HOOKS.update({f"verify.{name}.wall_s": (f"verify.{name}",) for name in VERIFY_CHECKS})


def _public_targets(mod):
    """(qualified name, owner, attribute, function) for every wrap target of a module."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield f"{layer}.{name}", mod, name, obj
        elif callable(obj) and hasattr(obj, "cache_info") \
                and getattr(obj, "__module__", None) == mod.__name__:
            yield f"{layer}.{name}", mod, name, obj  # an lru_cache-wrapped function
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                and not issubclass(obj, BaseException):
            for attr, fn in sorted(vars(obj).items()):
                qual = f"{layer}.{name}.{attr}"
                if inspect.isfunction(fn) and (not attr.startswith("_") or qual in DUNDER_HOOKS):
                    yield qual, obj, attr, fn


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [layer cell, start, child time, span id]
        self.layers = {layer: [0.0, 0] for layer in LAYERS}  # self time, raised
        self.stats: dict[str, list] = {}  # qual -> [calls, entries, self time, wall time]
        self.extra: dict[str, float] = defaultdict(float)  # observed quantities
        self.alloc_sizes: set[int] = set()  # table sizes whose axiom check ran under tracemalloc
        self.op_id = -1
        self.span_ids = [0]
        self.spans: list[tuple] = []  # (id, parent, op, qual, start, end)
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._decode_base = None

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"clopen.{layer}")
            except ModuleNotFoundError:
                pass  # every hook into it is reported missing
        namespaces = [m for name, m in sys.modules.items()
                      if name == "clopen" or name.startswith("clopen.")]
        for layer, mod in mods.items():
            for qual, owner, attr, fn in _public_targets(mod):
                wrapper = self._wrap(qual, layer, fn)
                if wrapper is None:
                    pass  # hooked through its own counters, not a wrapper
                elif inspect.isclass(owner):
                    self._patch(owner, attr, fn, wrapper)
                else:
                    # every module namespace holding the function gets the wrapper
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                self._patch(ns, key, fn, wrapper)
                self.hooked.add(qual)
        decode = getattr(mods.get("coding"), "decode", None)
        if hasattr(decode, "cache_info"):
            info = decode.cache_info()
            self._decode_base = (decode, info.hits, info.misses)
        wanted = {hook for hooks in METRIC_HOOKS.values() for hook in hooks}
        self.missing = sorted(wanted - self.hooked)
        if self._decode_base is None and "coding.decode" not in self.missing:
            self.missing.append("coding.decode")

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _wrap(self, qual: str, layer: str, fn):
        st = self.stats[qual] = [0, 0, 0.0, 0.0]
        if hasattr(fn, "cache_info"):
            return None  # lru-cached: counted by its own cache_info, time goes to callers
        if qual in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            # a generator's work runs in its consumer, so it gets no span
            return self._counting(qual, fn, st)
        tracer = self
        stack, spans, ids = self.stack, self.spans, self.span_ids
        lay = self.layers[layer]
        light = not (qual in TIMED or qual.startswith("verify.check_")) \
            and qual not in _OBSERVERS
        observe = _OBSERVERS.get(qual)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            if stack and stack[-1][0] is lay:
                if light:
                    return fn(*args, **kwargs)
            else:
                st[1] += 1
            sid = ids[0]
            ids[0] = sid + 1
            frame = [lay, 0.0, 0.0, sid]
            stack.append(frame)
            token = tracer._observe(qual, "enter", args, kwargs) if observe else None
            start = frame[1] = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                lay[1] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[2]
                lay[0] += own
                st[2] += own
                st[3] += dur
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    parent = parent[3]
                else:
                    parent = -1
                if sid < SPAN_KEEP:
                    spans.append((sid, parent, tracer.op_id, qual, start, end))
                if observe:
                    # result is None when the call raised
                    tracer._observe(qual, "exit", args, kwargs, result, token)
            return result

        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _observe(self, qual: str, phase: str, args, kwargs, result=None, token=None):
        """Run a hook's observer; one that no longer fits its target marks the hook missing."""
        try:
            return _OBSERVERS[qual](self, phase, args, kwargs, result, token)
        except (AttributeError, IndexError, KeyError, TypeError):
            if qual not in self.missing:
                self.missing.append(qual)
            return None

    def _counting(self, qual: str, fn, st: list):
        if qual == "trees.PrunedTree.__init__":
            def init(tree, *args, **kwargs):
                st[0] += 1
                if args and callable(args[0]):
                    args = (self._counted_predicate(args[0]),) + args[1:]
                elif callable(kwargs.get("admits")):
                    kwargs["admits"] = self._counted_predicate(kwargs["admits"])
                return fn(tree, *args, **kwargs)
            return init

        def counted(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_predicate(self, pred):
        extra = self.extra

        def predicate(u):
            extra["trees.predicate.calls"] += 1
            return pred(u)

        return predicate

    # --- results --------------------------------------------------------------

    def decode_counts(self) -> tuple[int, int]:
        if self._decode_base is None:
            return 0, 0
        decode, hits, misses = self._decode_base
        info = decode.cache_info()
        return info.hits - hits, info.misses - misses

    def write_spans(self, path) -> int:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for sid, parent, op, qual, start, end in self.spans:
                out.write(f"{sid}\t{parent}\t{op}\t{qual}\t{start:.9f}\t{end:.9f}\n")
        return len(self.spans)

    def metrics(self, ops: int, cli_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the run, per completed op where they are totals."""
        per = 1.0 / max(ops, 1)
        stats = self.stats
        none = (0, 0, 0.0, 0.0)

        def c(qual: str) -> int:
            return stats.get(qual, none)[0]

        def own(qual: str) -> float:
            return stats.get(qual, none)[2]

        x = self.extra
        hits, misses = self.decode_counts()
        out: dict[str, float] = {}
        for layer, (self_s, raised) in self.layers.items():
            out[f"{layer}.self_s"] = self_s * per
            out[f"{layer}.raised"] = raised * per
        out.update({
            "coding.decode.calls": (hits + misses) * per,
            "coding.decode.hit_ratio": _ratio(hits, hits + misses),
            "coding.encode.calls": c("coding.encode") * per,
            "baire.point_calls": c("baire.BairePoint.__call__") * per,
            "baire.points_created": c("baire.BairePoint.__init__") * per,
            "baire.distance.calls": c("baire.distance") * per,
            "baire.distance.positions": x["baire.distance.positions"] * per,
            "baire.distance.undecided_ratio": _ratio(x["baire.distance.undecided"],
                                                     c("baire.distance")),
            "baire.exact_distance.calls": c("baire.exact_distance") * per,
            "trees.admits.calls": c("trees.PrunedTree.admits") * per,
            "trees.predicate.calls": x["trees.predicate.calls"] * per,
            "trees.admits.hit_ratio": 1.0 - _ratio(x["trees.predicate.calls"],
                                                   c("trees.PrunedTree.admits")),
            "trees.validate_pruned.inspected": x["trees.validate_pruned.inspected"] * per,
            "trees.dense_pn_distance.calls": c("trees.dense_pn_distance") * per,
            "trees.dense_pn_distance.self_s": own("trees.dense_pn_distance") * per,
            "trees.leftmost.calls": c("trees.DensePointFamily.leftmost") * per,
            "trees.enumerate_distinct.codes_scanned":
                x["trees.enumerate_distinct.scanned"] * per,
            "trees.enumerate_distinct.useful_ratio":
                _ratio(x["trees.enumerate_distinct.found"], x["trees.enumerate_distinct.scanned"]),
            "dsl.evaluate.calls": stats.get("dsl.evaluate", none)[1] * per,
            "witness.check.calls": c("witness.Pi02Matrix.check") * per,
            "witness.witness_point.calls": c("witness.WitnessClosure.witness_point") * per,
            "witness.continuity_modulus.calls":
                c("witness.WitnessClosure.continuity_modulus") * per,
            "luzin.ball_stage.calls": c("luzin.LuzinScheme.ball_stage") * per,
            "luzin.cell_member_seq.calls": c("luzin.LuzinScheme.cell_member_seq") * per,
            "luzin.ball_member.calls": c("luzin.ZeroDimPresentation.ball_member") * per,
            "luzin.ball_stage.miss_ratio": _ratio(c("luzin.ZeroDimPresentation.ball_member"),
                                                  c("luzin.LuzinScheme.ball_stage")),
            "luzin.dense_point.calls": x["luzin.dense_point.calls"] * per,
            "luzin.embed.calls": c("luzin.LuzinScheme.embed") * per,
            "remetrize.sum_distance.calls": c("remetrize.sum_distance") * per,
            "remetrize.extension_certificate.calls":
                c("remetrize.extension_certificate") * per,
            "codes.check_metric_axioms.self_s": own("codes.check_metric_axioms") * per,
            "codes.check_metric_axioms.pairs": x["codes.check_metric_axioms.pairs"] * per,
            "codes.check_metric_axioms.alloc_peak_mb": x["codes.check_metric_axioms.alloc_peak_mb"],
            "codes.rows.self_s": own("codes.RationalMetricTable.rows") * per,
            "codes.render_code_file.self_s": own("codes.render_code_file") * per,
            "codes.parse_code_file.self_s": own("codes.parse_code_file") * per,
            "codes.decode_metric.calls": c("codes.decode_metric") * per,
            "codes.decode_metric.self_s": own("codes.decode_metric") * per,
            "codes.code_file.bytes": x["codes.code_file.bytes"] * per,
            "instances.parse_instance.self_s": own("instances.parse_instance") * per,
            "instances.build_instance.self_s": own("instances.build_instance") * per,
            "cli.output.bytes": cli_bytes * per,
        })
        for name in VERIFY_CHECKS:
            out[f"verify.{name}.wall_s"] = stats.get(f"verify.{name}", none)[3] * per
        return out

    def missing_metrics(self) -> list[str]:
        gone = set(self.missing)
        return sorted(m for m, hooks in METRIC_HOOKS.items() if gone.intersection(hooks))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- observers: quantities read off arguments and return values ------------------

def _observe_distance(tracer, phase, args, kwargs, result, *_):
    if phase == "exit" and result is not None:
        # Exact(1/(k+1)) scanned k+1 positions; BelowThreshold(1/(b+1)) scanned b
        frac = getattr(result, "value", None)
        if frac is not None:
            tracer.extra["baire.distance.positions"] += frac.denominator
        else:
            tracer.extra["baire.distance.positions"] += result.threshold.denominator - 1
            tracer.extra["baire.distance.undecided"] += 1


def _observe_validate(tracer, phase, args, kwargs, result, *_):
    if phase == "exit" and result is not None:
        tracer.extra["trees.validate_pruned.inspected"] += result.inspected


def _observe_enumerate(tracer, phase, args, kwargs, result, *_):
    if phase == "exit" and result is not None:
        # the scan stops at the code after the last one found
        tracer.extra["trees.enumerate_distinct.found"] += len(result)
        tracer.extra["trees.enumerate_distinct.scanned"] += result[-1] + 1 if result else 0


def _observe_axioms(tracer, phase, args, kwargs, result, traced=False):
    # tracemalloc slows every allocation, so it runs only inside the first
    # call for each table size, which is what the allocation peak depends on
    if phase == "enter":
        count = args[1] if len(args) > 1 else kwargs["count"]
        tracer.extra["codes.check_metric_axioms.pairs"] += count * (count + 1) // 2
        if count in tracer.alloc_sizes:
            return False
        tracer.alloc_sizes.add(count)
        tracemalloc.start()
        return True
    if traced:
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        key = "codes.check_metric_axioms.alloc_peak_mb"
        tracer.extra[key] = max(tracer.extra[key], peak_mb)


def _observe_render(tracer, phase, args, kwargs, result, *_):
    if phase == "exit" and result is not None:
        tracer.extra["codes.code_file.bytes"] += len(result.encode("utf-8"))


def _observe_scheme(tracer, phase, args, kwargs, result, *_):
    if phase != "enter":
        return None
    pres = args[1] if len(args) > 1 else kwargs["presentation"]
    dense = pres.dense_point
    if getattr(dense, "_bench_counted", False):
        return None
    extra = tracer.extra

    def dense_point(i):
        extra["luzin.dense_point.calls"] += 1
        return dense(i)

    dense_point._bench_counted = True
    # the presentation is frozen; a type that refuses the attribute marks the hook missing
    object.__setattr__(pres, "dense_point", dense_point)
    return None


_OBSERVERS = {
    "baire.distance": _observe_distance,
    "trees.validate_pruned": _observe_validate,
    "trees.enumerate_distinct": _observe_enumerate,
    "codes.check_metric_axioms": _observe_axioms,
    "codes.render_code_file": _observe_render,
    "luzin.LuzinScheme.__init__": _observe_scheme,
}
