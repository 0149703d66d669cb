"""Per-layer tracing for the traced benchmark run, by wrapping only.

The tracer rebinds the module attributes that callers look up (for example
``raagspine.report.max_compatible``) to timing wrappers, so spans nest the way
the package calls itself: ``analyze`` -> ``max_compatible``, ``build_star`` ->
``max_compatible``, ``retract`` -> ``is_hugged_in``.  A span's self time is
its duration minus the time of the spans it caused.  Spans are aggregated per
(caller, callee) edge as they close, so memory stays bounded however many
calls a pass makes.  ``uninstall`` puts every original attribute back;
untraced passes run on the untouched package.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs wrapped in the traced run; the module is the layer.
TRACED = (
    ("graph", "parse_graph"),
    ("partitions", "all_partitions"),
    ("compat", "compatibility_graph"),
    ("search", "max_compatible"),
    ("conditions", "condition_report"),
    ("conditions", "is_spiky"),
    ("conditions", "is_barbed"),
    ("hugging", "is_hugged_in"),
    ("hugging", "verify_oversize_hugged"),
    ("hugging", "verify_hug_compat"),
    ("hugging", "verify_replacement"),
    ("retraction", "build_star"),
    ("retraction", "retract"),
    ("retraction", "crosscheck_survivors"),
    ("report", "analyze"),
    ("cli", "main"),
)

VERIFIERS = {"verify_oversize_hugged", "verify_hug_compat", "verify_replacement"}


PACKAGE = "raagspine"


def package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """Module attributes of the package that are currently tracer wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "perfbench_span")
    ]


class Tracer:
    """Installs wrappers, aggregates spans and per-layer counters."""

    def __init__(self):
        self._stack: list[list] = []  # [span name, time spent in child spans]
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (caller span or None, span) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.values: Counter = Counter()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        def wrapper(*args, **kwargs):
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                entry = self.edges[(caller, name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
            if after is not None:
                after(args, kwargs, result, ctx, own)
            return result

        wrapper.perfbench_span = name
        return wrapper

    # -- per-layer counters -------------------------------------------
    # Hooks run outside the span they belong to.

    def _before_search_max_compatible(self, args, kwargs):
        cg, wanted = args[0], frozenset(args[1])  # the vertices may be an iterator
        self.values["search.candidates"] += len(cg.nodes_based_in(wanted))
        return (cg, wanted, *args[2:]), kwargs, None

    def _before_compat_compatibility_graph(self, args, kwargs):
        graph_hash = getattr(sys.modules[f"{PACKAGE}.compat"], "graph_hash", None)
        cache_dir = kwargs.get("cache_dir", args[1] if len(args) > 1 else None)
        hit = (
            cache_dir is not None
            and graph_hash is not None
            and os.path.exists(os.path.join(cache_dir, f"compat-{graph_hash(args[0])}.json"))
        )
        return args, kwargs, hit

    def _after_compat_compatibility_graph(self, args, kwargs, cg, hit, own):
        v = self.values
        if hit:
            v["compat.cache_hits"] += 1
            v["compat.cache_read_s"] += own
        else:
            v["compat.cache_misses"] += 1
            v["compat.build_s"] += own
            v["compat.pairs"] += cg.n * (cg.n - 1) // 2
            v["compat.edges"] += sum(row.bit_count() for row in cg.adj) // 2

    def _after_partitions_all_partitions(self, args, kwargs, parts, ctx, own):
        self.values["partitions.count"] += len(parts)

    def _after_hugging_verify(self, args, kwargs, verdict, ctx, own):
        self.values["hugging.checked"] += verdict.checked
        self.values["hugging.inconclusive"] += verdict.status == "inconclusive"

    _after_hugging_verify_oversize_hugged = _after_hugging_verify
    _after_hugging_verify_hug_compat = _after_hugging_verify
    _after_hugging_verify_replacement = _after_hugging_verify

    def _after_retraction_build_star(self, args, kwargs, star, ctx, own):
        self.values["retraction.compatible_sets"] += len(star.cliques)
        self.values["retraction.cubes"] += star.cube_count()

    def _after_retraction_retract(self, args, kwargs, trace, ctx, own):
        v = self.values
        v["retraction.events"] += len(trace.events)
        v["retraction.initial_cubes"] += trace.initial_stats.cube_count
        v["retraction.cubes_removed"] += (
            trace.initial_stats.cube_count - trace.final_stats.cube_count
        )

    def _after_cli_main(self, args, kwargs, code, ctx, own):
        self.values["cli.nonzero_exits"] += code != 0

    # -- results ------------------------------------------------------

    def self_seconds(self, *names: str) -> float:
        return sum(e[2] for (_, callee), e in self.edges.items() if callee in names)

    def calls(self, *names: str, from_outside: bool = False) -> int:
        """Calls of the named spans; optionally only those from another layer."""
        layers = {n.split(".")[0] for n in names}
        return sum(
            e[0]
            for (caller, callee), e in self.edges.items()
            if callee in names
            and not (from_outside and caller and caller.split(".")[0] in layers)
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        v = self.values
        ratio = lambda a, b: a / b if b else 0.0
        search_s = self.self_seconds("search.max_compatible")
        conditions = ("conditions.condition_report", "conditions.is_spiky", "conditions.is_barbed")
        verify_s = self.self_seconds(*(f"hugging.{n}" for n in VERIFIERS))
        return {
            "partitions.s": self.self_seconds("partitions.all_partitions"),
            "partitions.count": v["partitions.count"],
            "compat.build_s": v["compat.build_s"],
            "compat.pairs": v["compat.pairs"],
            "compat.edges": v["compat.edges"],
            "compat.pairs_per_s": ratio(v["compat.pairs"], v["compat.build_s"]),
            "compat.cache_read_s": v["compat.cache_read_s"],
            "compat.cache_hits": v["compat.cache_hits"],
            "compat.cache_misses": v["compat.cache_misses"],
            "search.s": search_s,
            "search.calls": self.calls("search.max_compatible"),
            "search.candidates": v["search.candidates"],
            "search.share": ratio(search_s, wall_s),
            "conditions.s": self.self_seconds(*conditions),
            "conditions.calls": self.calls(*conditions, from_outside=True),
            "hugging.verify_s": verify_s,
            "hugging.checked": v["hugging.checked"],
            "hugging.checked_per_s": ratio(v["hugging.checked"], verify_s),
            "hugging.is_hugged_in_s": self.self_seconds("hugging.is_hugged_in"),
            "hugging.is_hugged_in_calls": self.calls("hugging.is_hugged_in"),
            "hugging.inconclusive": v["hugging.inconclusive"],
            "retraction.build_star_s": self.self_seconds("retraction.build_star"),
            "retraction.compatible_sets": v["retraction.compatible_sets"],
            "retraction.cubes": v["retraction.cubes"],
            "retraction.retract_s": self.self_seconds("retraction.retract"),
            "retraction.events": v["retraction.events"],
            "retraction.cubes_removed": v["retraction.cubes_removed"],
            "retraction.removed_ratio": ratio(
                v["retraction.cubes_removed"], v["retraction.initial_cubes"]
            ),
            "retraction.crosscheck_s": self.self_seconds("retraction.crosscheck_survivors"),
            "report.analyze_self_s": self.self_seconds("report.analyze"),
            "graph.parse_s": self.self_seconds("graph.parse_graph"),
            "cli.command_s": self.self_seconds("cli.main"),
            "cli.commands": self.calls("cli.main"),
            "cli.nonzero_exits": v["cli.nonzero_exits"],
        }

    def call_tree(self) -> list[dict]:
        """The aggregated spans as caller -> callee edges, for the record."""
        return [
            {"caller": caller, "span": callee, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (caller, callee), e in sorted(
                self.edges.items(), key=lambda item: (item[0][0] or "", item[0][1])
            )
        ]
