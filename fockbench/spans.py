"""Outside-in layer tracing for the fockproj benchmark.

`Tracer.installed()` wraps the public functions of each fockproj layer by
rebinding every public module attribute that holds the original function
(``projectors`` imports ``inner_product`` by name, for instance), and
patches ``__init__`` on the two engine classes.  Nothing private is
patched, and every binding is restored on exit.

Spans are aggregated online per name (calls, self time, inclusive time),
so memory stays flat however many spans a run opens.  A stack of open
spans gives each span its parent: a span's self time is its duration
minus the time of the spans it opened, and the self times of all spans
sum to the time of the root spans.  Count hooks run after a span closes;
their time is booked to ``trace.hooks`` so no layer is charged for it.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from typing import Callable, Iterator, Optional

ROOT_SPAN = "bench.request"
HOOK_SPAN = "trace.hooks"

# span name -> (module, attributes); "Class.__init__" patches the class
LAYER_SPANS = (
    ("transforms.lift", "fockproj.transforms", ("lift",)),
    ("transforms.ModeUnitary", "fockproj.transforms", ("ModeUnitary.__init__",)),
    ("fock.FockState", "fockproj.fock", ("FockState.__init__",)),
    ("fock.tensor", "fockproj.fock", ("tensor",)),
    ("fock.fidelity", "fockproj.fock", ("fidelity",)),
    ("fock.inner_product", "fockproj.fock", ("inner_product",)),
    (
        "models.state",
        "fockproj.models",
        (
            "scenario_state",
            "hom_two_photon",
            "hom_two_pair",
            "single_deliberate",
            "single_loss",
            "single_phase_noise",
            "single_phase_noise_gaussian",
            "two_photon_polarization",
        ),
    ),
    ("models.scenario_reference", "fockproj.models", ("scenario_reference",)),
    ("models.indistinguishability", "fockproj.models", ("indistinguishability",)),
    ("projectors.event_sum", "fockproj.projectors", ("event_sum",)),
    ("projectors.hofmann_cascade", "fockproj.projectors", ("hofmann_cascade",)),
    ("projectors.pure_projection", "fockproj.projectors", ("pure_projection",)),
    ("projectors.loss_marginal_projection", "fockproj.projectors", ("loss_marginal_projection",)),
    ("projectors.classical_intensity", "fockproj.projectors", ("classical_intensity",)),
    ("analysis.sweep", "fockproj.analysis", ("sweep",)),
    ("analysis.closed_form", "fockproj.analysis", ("closed_form",)),
    ("analysis.classify_monotonicity", "fockproj.analysis", ("classify_monotonicity",)),
    ("analysis.find_extrema", "fockproj.analysis", ("find_extrema",)),
    ("cli.parse_args", "fockproj.cli", ("parse_args",)),
    ("cli.run", "fockproj.cli", ("run",)),
    ("cli.render_csv", "fockproj.cli", ("render_csv",)),
    ("cli.render_json", "fockproj.cli", ("render_json",)),
)


class Tracer:
    """Span and counter recorder; install it only around the traced passes."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, incl_s]
        self.counters: Counter = Counter()
        self._stack: list[list] = [[0.0, None]]  # open spans: [child_s, name]
        self._plan_cache: Optional[list] = None
        self._hooks = {
            "transforms.lift": self._count_lift,
            "projectors.event_sum": self._count_event_sum,
            "analysis.find_extrema": self._count_extrema,
            "cli.render_csv": self._count_output,
            "cli.render_json": self._count_output,
        }
        for name in (ROOT_SPAN, HOOK_SPAN) + tuple(s[0] for s in LAYER_SPANS):
            self.stats[name] = [0, 0.0, 0.0]

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` wrapped in a span called `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook_stats = self.stats[HOOK_SPAN]
        hook = self._hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                stats[2] += dt
            if hook is not None:
                h0 = clock()
                hook(result, args)
                h = clock() - h0
                stack[-1][0] += h
                hook_stats[0] += 1
                hook_stats[1] += h
                hook_stats[2] += h
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, fn: Callable, *args):
        """Run `fn(*args)` as one root span (one benchmark request)."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def _inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # -- count hooks ---------------------------------------------------

    def _count_lift(self, state, args) -> None:
        self.counters["lift.terms_out"] += len(state)

    def _count_event_sum(self, value, args) -> None:
        state_out, projector = args[0], args[1]
        observed = [i for i, flag in enumerate(projector.observed_mask) if flag]
        wanted = set(projector.events)
        items = state_out.items()
        self.counters["event_sum.terms"] += len(items)
        self.counters["event_sum.hits"] += sum(
            1 for occ, _ in items if tuple(occ[i] for i in observed) in wanted
        )

    def _count_extrema(self, extrema, args) -> None:
        self.counters["extrema.reported"] += len(extrema)

    def _count_output(self, text, args) -> None:
        self.counters["output.bytes"] += len(text.encode("utf-8"))

    def _wrap_probability_function(self, factory: Callable) -> Callable:
        # Curves built beneath find_extrema count their evaluations; the
        # sweep's own curve is returned unwrapped and costs nothing extra.
        def traced_factory(*args, **kwargs):
            evaluate = factory(*args, **kwargs)
            if not self._inside("analysis.find_extrema"):
                return evaluate
            counters = self.counters

            def counted(gamma):
                counters["extrema.evals"] += 1
                return evaluate(gamma)

            return counted

        traced_factory.__wrapped__ = factory
        return traced_factory

    # -- install / restore ---------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        import fockproj.analysis  # noqa: F401  (loads every layer module)
        import fockproj.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items()) if n == "fockproj" or n.startswith("fockproj.")]
        plan = []

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original and not attr.startswith("_"):
                        plan.append((module, attr, original, wrapper))

        for name, module_name, attrs in LAYER_SPANS:
            module = sys.modules[module_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    plan.append((cls, method, original, self.wrap(name, original)))
                else:
                    original = getattr(module, attr)
                    rebind(original, self.wrap(name, original))
        factory = sys.modules["fockproj.analysis"].probability_function
        rebind(factory, self._wrap_probability_function(factory))
        return plan

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer function for the duration of the block."""
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, original, _ in self._plan_cache:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is already patched")
        try:
            for owner, attr, _, wrapper in self._plan_cache:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._plan_cache:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON copy of the aggregates, for merging across processes."""
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counters": dict(self.counters)}


def merge(snapshots) -> dict:
    """Sum the aggregates of several tracers (one per traced process)."""
    stats: dict[str, list] = {}
    counters: Counter = Counter()
    for snap in snapshots:
        for name, (calls, self_s, incl_s) in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += incl_s
        counters.update(snap["counters"])
    return {"stats": stats, "counters": dict(counters)}


def layer_time(snapshot: dict) -> float:
    """Seconds spent inside some layer span (self time of every layer)."""
    return sum(
        v[1] for k, v in snapshot["stats"].items() if k not in (ROOT_SPAN, HOOK_SPAN)
    )


def layer_metrics(
    snapshot: dict,
    curves: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    imports_us: dict,
) -> dict[str, float]:
    """Per-curve layer metrics from merged span aggregates.

    `calls` and `self_us` are per curve; `hit_ratio` and
    `evals_per_extremum` are ratios over the whole traced run.
    """
    stats, counters = snapshot["stats"], snapshot["counters"]
    out: dict[str, float] = {}
    for name, _, _ in LAYER_SPANS:
        calls, self_s, incl_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / curves
        out[f"{name}.self_us"] = self_s * 1e6 / curves
        out[f"{name}.incl_us"] = incl_s * 1e6 / curves
    out["transforms.lift.terms_out"] = counters.get("lift.terms_out", 0) / curves
    terms = counters.get("event_sum.terms", 0)
    out["projectors.event_sum.hit_ratio"] = counters.get("event_sum.hits", 0) / terms if terms else 0.0
    reported = counters.get("extrema.reported", 0)
    out["analysis.find_extrema.evals_per_extremum"] = (
        counters.get("extrema.evals", 0) / reported if reported else 0.0
    )
    out["cli.output_bytes"] = counters.get("output.bytes", 0) / curves
    out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    out["trace.coverage"] = layer_time(snapshot) / traced_wall_s
    for name, value in imports_us.items():
        out[f"import.{name}_us"] = value
    return out
