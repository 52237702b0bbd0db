"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each hypodp module, and the
names each module imports from another, so that every call into a layer
passes through a timer.  It is installed only in the traced run; the
untraced run measures the library as shipped.

Calls are timed on one stack.  A layer's self time is each call's
duration minus the time of the traced calls nested inside it, so the
self times of all layers plus the benchmark's own spans add up to the
traced wall time.  Calls made once per query are kept as spans (name,
start, end, parent); calls made thousands of times per query (``compose``,
``amplify``, ``pair_guarantee``, ``view_distribution``,
``required_delta``) are aggregated into a count and a total time
instead.
"""

import functools
import warnings
from collections import Counter, defaultdict
from time import perf_counter

# Self-time metrics, one per layer boundary: (module, attribute) -> metric.
# Names re-bound in several modules are listed once per importing module.
SPAN_TARGETS = {
    ("hypothesis_dp", "refine_tuples"): "refinement.refine_s",
    ("hypothesis_dp", "hdp_guarantee"): "hypothesis_dp.aggregate_s",
    ("hypothesis_dp", "hdp_guarantee_over_set"): "hypothesis_dp.aggregate_s",
    ("hypothesis_dp", "uniform_nonzero_closed_form"): "hypothesis_dp.aggregate_s",
    ("composition", "best_classic_bound"): "composition.compose_s",
    ("constraints", "constrained_bound"): "constraints.bound_s",
    ("constraints", "exclusive_groups_bound"): "constraints.bound_s",
    ("constraints", "parallel_bound"): "constraints.bound_s",
    ("subsampling", "uniform_prior_bound"): "subsampling.bound_s",
    ("subsampling", "uniform_prior_split_bound"): "subsampling.bound_s",
    ("subsampling", "uniform_prior_closed_form"): "subsampling.bound_s",
    ("oracle", "verify_hdp"): "oracle.verify_s",
    ("oracle", "mixture_view_distribution"): "oracle.view_build_s",
    ("oracle", "simulate_experiment"): "oracle.simulate_s",
    ("cli", "main"): "cli.parse_s",
    ("cli", "load_scenario"): "cli.load_s",
    ("cli", "_emit"): "cli.emit_s",
}
HOT_TARGETS = {
    ("hypothesis_dp", "pair_guarantee"): "hypothesis_dp.pair_s",
    ("oracle", "view_distribution"): "oracle.view_build_s",
    ("subsampling", "amplify"): "subsampling.bound_s",
    ("oracle", "required_delta"): "oracle.hockey_s",
}
COMPOSE_IMPORTERS = ("composition", "hypothesis_dp", "constraints", "subsampling", "cli")
HYPOTHESIS_CONSTRUCTORS = ("point_mass", "uniform", "uniform_all", "uniform_nonzero")

LAYERS = ("core", "refinement", "hypothesis_dp", "composition", "constraints",
          "subsampling", "oracle", "cli", "bench")

TIME_METRICS = sorted(
    set(SPAN_TARGETS.values()) | set(HOT_TARGETS.values())
    | {"core.hypothesis_s", "composition.compose_s", "cli.command_s", "bench.self_s"}
)

# Counters reported for every workload, zero when a layer is not used.
COUNTERS = ("core.atoms", "refinement.pieces", "composition.mechanisms",
            "constraints.candidates", "constraints.fallbacks", "oracle.view_entries",
            "oracle.unsound", "cli.nonzero_exits")
# Call counts of hot calls: metric -> aggregated call name.
CALL_COUNTS = {
    "hypothesis_dp.pairs": "hypothesis_dp.pair_guarantee",
    "composition.calls": "composition.compose",
    "subsampling.amplify_calls": "subsampling.amplify",
    "oracle.hockey_calls": "oracle.required_delta",
}


class Tracer:
    """Spans, aggregated hot calls and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._last_id = 0

    def _new_id(self) -> int:
        self._last_id += 1
        return self._last_id

    # ------------------------------------------------------------ recording

    def _enter(self):
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, parent[1] if parent else None]
        self._stack.append(frame)
        return parent, frame

    def _exit(self, parent, frame, metric, start):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        self.self_s[metric] += duration - frame[0]
        if parent is not None:
            parent[0] += duration
        return end, duration

    def _blame(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, against the innermost layer it left."""
        if not getattr(exc, "_perfbench_counted", False):
            self.errors[(layer, type(exc).__name__)] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    def wrap(self, fn, name: str, metric: str, hot: bool = False, after=None):
        """Return ``fn`` timed as a span (or a hot aggregate) charged to ``metric``."""
        layer = metric.split(".")[0]
        hot_entry = self.hot[name] if hot else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, frame = self._enter()
            if not hot:
                frame[1] = self._new_id()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._blame(layer, exc)
                raise
            finally:
                end, duration = self._exit(parent, frame, metric, start)
                if hot:
                    hot_entry[0] += 1
                    hot_entry[1] += duration
                else:
                    self.spans.append((frame[1], name, start, end, parent[1] if parent else None))
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, name: str, metric: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, metric)

    # ------------------------------------------------------------ install

    def install(self, hypodp_modules: dict) -> None:
        """Wrap the layer boundaries of the imported hypodp modules in place."""
        m = hypodp_modules
        counts = self.counts

        targets = [(target, metric, False) for target, metric in SPAN_TARGETS.items()]
        targets += [(target, metric, True) for target, metric in HOT_TARGETS.items()]
        for (mod, attr), metric, hot in targets:
            after = _AFTER.get(attr)
            setattr(m[mod], attr, self.wrap(getattr(m[mod], attr), f"{mod}.{attr}", metric, hot,
                                            after and functools.partial(after, counts)))

        compose = m["composition"].compose

        def counted_compose(guarantees, theorem):
            guarantees = list(guarantees)
            counts["composition.mechanisms"] += len(guarantees)
            return compose(guarantees, theorem)

        traced_compose = self.wrap(functools.wraps(compose)(counted_compose),
                                   "composition.compose", "composition.compose_s", hot=True)
        for mod in COMPOSE_IMPORTERS:
            m[mod].compose = traced_compose

        pick = m["constraints"]._pick

        def counted_pick(candidates):
            counts["constraints.candidates"] += len(candidates)
            return pick(candidates)

        m["constraints"]._pick = counted_pick

        bound = m["constraints"].constrained_bound

        def constrained_bound(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = bound(*args, **kwargs)
            counts["constraints.fallbacks"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught
            )
            return result

        m["constraints"].constrained_bound = functools.wraps(bound)(constrained_bound)

        hypothesis = m["core"].Hypothesis
        init = hypothesis.__init__
        hypothesis.__init__ = self.wrap(init, "core.Hypothesis", "core.hypothesis_s",
                                        after=lambda args, _r: counts.update(
                                            {"core.atoms": len(args[0].atoms)}))
        for attr in HYPOTHESIS_CONSTRUCTORS:
            fn = hypothesis.__dict__[attr].__func__
            setattr(hypothesis, attr,
                    classmethod(self.wrap(fn, f"core.Hypothesis.{attr}", "core.hypothesis_s")))

        commands = m["cli"].COMMANDS
        for name, fn in list(commands.items()):
            commands[name] = self.wrap(fn, f"cli.{name}", "cli.command_s")

    # ------------------------------------------------------------ report

    def metrics(self) -> dict:
        """Per-layer metrics: self times, counters and errors per layer."""
        out = {name: self.self_s.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNTERS})
        out.update({name: self.hot[call][0] for name, call in CALL_COUNTS.items()})
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(n for (lay, _), n in self.errors.items() if lay == layer)
        return out

    def layer_self_s(self) -> dict:
        totals: dict = defaultdict(float)
        for metric, seconds in self.self_s.items():
            totals[metric.split(".")[0]] += seconds
        return {layer: totals.get(layer, 0.0) for layer in LAYERS}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "hot": {name: {"calls": c, "seconds": s} for name, (c, s) in self.hot.items()},
            "self_s": dict(self.self_s),
            "layer_self_s": self.layer_self_s(),
            "counters": dict(self.counts),
            "errors": {f"{layer}:{exc}": n for (layer, exc), n in self.errors.items()},
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str, metric: str):
        self.tracer, self.name, self.metric = tracer, name, metric

    def __enter__(self):
        self.parent, self.frame = self.tracer._enter()
        self.frame[1] = self.tracer._new_id()
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.tracer._blame(self.metric.split(".")[0], exc)
        end, _ = self.tracer._exit(self.parent, self.frame, self.metric, self.start)
        parent_id = self.parent[1] if self.parent else None
        self.tracer.spans.append((self.frame[1], self.name, self.start, end, parent_id))
        return False


def _count_pieces(counts, _args, result):
    counts["refinement.pieces"] += len(result.pairs)


def _count_views(counts, _args, result):
    counts["oracle.view_entries"] += len(result.probs)


def _count_exit(counts, _args, code):
    if code:
        counts["cli.nonzero_exits"] += 1
        counts[f"cli.exit_{code}"] += 1


_AFTER = {
    "refine_tuples": _count_pieces,
    "view_distribution": _count_views,
    "main": _count_exit,
}
