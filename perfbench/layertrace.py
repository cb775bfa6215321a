"""Outside-in layer trace of polyflip.

The tracer wraps public functions of each module without editing the
package: it rebinds every reference to a wrapped function found in a
`polyflip.*` module namespace, or in a dict held there (the `CLAIMS` table of
`verify`), and sets class attributes for methods.  Only calls made while a
benchmark root span is open are recorded, so input building and checking by
the benchmark never count.

Three kinds of wrapper:
  span   a span (name, start, end, parent) per call, kept in memory and
         written out at the end, plus calls, total and self time;
  leaf   hot leaves: calls, total and self time only, no span per call, so
         memory stays bounded;
  count  generators: a call count only, since their work runs in the caller.
Self time is a call's duration minus the time covered by wrapped calls made
inside it.  A target missing from the package (renamed or folded away by a
refactor) is reported as absent rather than failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time

# (stat name, module, attribute, kind)
TARGETS = (
    ("core.validate_triangulation", "core", "validate_triangulation", "span"),
    ("core.crossing", "core", "crossing", "leaf"),
    ("core.Triangulation.edges", "core", "Triangulation.edges", "leaf"),
    ("flips.all_keys", "flips", "all_keys", "span"),
    ("flips.build_slice", "flips", "build_slice", "span"),
    ("flips.orbit_codes", "flips", "orbit_codes", "span"),
    ("flips.orbit_representatives", "flips", "orbit_representatives", "span"),
    ("flips.neighbor_moves", "flips", "neighbor_moves", "count"),
    ("flips.flip_incident_to", "flips", "flip_incident_to", "leaf"),
    ("metrics.bfs_distances", "metrics", "bfs_distances", "span"),
    ("metrics.diameter_radius", "metrics", "diameter_radius", "span"),
    ("metrics.flip_distance", "metrics", "flip_distance", "span"),
    ("metrics.distance_matrix", "metrics", "distance_matrix", "span"),
    ("constructions.omega_member", "constructions", "omega_member", "leaf"),
    ("constructions.omega_witness", "constructions", "omega_witness", "span"),
    ("constructions.far_witness_long", "constructions", "far_witness_long", "span"),
    ("constructions.far_witness_short", "constructions", "far_witness_short", "span"),
    ("constructions.complete_min_shared", "constructions", "complete_min_shared", "span"),
    ("verify.close", "verify", "CLAIMS[close]", "span"),
    ("verify.omega", "verify", "CLAIMS[omega]", "span"),
    ("verify.far", "verify", "CLAIMS[far]", "span"),
    ("verify.characterization", "verify", "CLAIMS[characterization]", "span"),
    ("verify.remark_family", "verify", "CLAIMS[remark_family]", "span"),
    ("verify.deletion", "verify", "CLAIMS[deletion]", "span"),
    ("cli.main", "cli", "main", "span"),
)

# Per-layer metrics, each with its unit.  A name ending in .calls, .self_s or
# .s reads that column of the stat it starts with; the ratios are below.
PER_LAYER = (
    ("flips.all_keys.s", "s"),
    ("flips.build_slice.s", "s"),
    ("flips.orbit_representatives.s", "s"),
    ("flips.orbit_codes.s", "s"),
    ("flips.neighbor_moves.calls", "count"),
    ("flips.flip_incident_to.calls", "count"),
    ("flips.flip_incident_to.self_s", "s"),
    ("metrics.bfs_distances.calls", "count"),
    ("metrics.bfs_distances.self_s", "s"),
    ("metrics.bfs_distances.useful_ratio", "ratio"),
    ("metrics.diameter_radius.self_s", "s"),
    ("metrics.flip_distance.calls", "count"),
    ("metrics.flip_distance.self_s", "s"),
    ("metrics.flip_distance.nodes_expanded_per_query", "keys/query"),
    ("metrics.distance_matrix.s", "s"),
    ("core.Triangulation.edges.calls", "count"),
    ("core.validate_triangulation.calls", "count"),
    ("core.validate_triangulation.self_s", "s"),
    ("core.crossing.calls", "count"),
    ("constructions.omega_member.calls", "count"),
    ("constructions.omega_member.self_s", "s"),
    ("constructions.omega_member.hit_ratio", "ratio"),
    ("constructions.omega_witness.self_s", "s"),
    ("constructions.far_witness_long.self_s", "s"),
    ("constructions.far_witness_short.self_s", "s"),
    ("constructions.complete_min_shared.self_s", "s"),
    ("verify.close.self_s", "s"),
    ("verify.omega.self_s", "s"),
    ("verify.far.self_s", "s"),
    ("verify.characterization.self_s", "s"),
    ("verify.remark_family.self_s", "s"),
    ("verify.deletion.self_s", "s"),
    ("cli.main.self_s", "s"),
)

SPAN_LIMIT = 50_000
COLUMNS = {"calls": 0, "s": 1, "self_s": 2}


def _resolve(modules: dict, module: str, attribute: str):
    """(original object, rebind hint) or (None, None) when absent."""
    mod = modules.get(module)
    if mod is None:
        return None, None
    if "[" in attribute:
        table, key = attribute[:-1].split("[")
        found = getattr(mod, table, {})
        return (found.get(key), None) if isinstance(found, dict) else (None, None)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(mod, cls_name, None)
        fn = vars(cls).get(method) if isinstance(cls, type) else None
        return (fn, (cls, method)) if callable(fn) else (None, None)
    fn = getattr(mod, attribute, None)
    return (fn, None) if callable(fn) else (None, None)


class Tracer:
    def __init__(self):
        self.stats = {}  # stat name -> [calls, total_s, self_s]
        self.spans = []  # [name, start, end, parent index or -1]
        self.dropped_spans = 0
        self.bfs_sources = {}  # id(slice) -> (slice, set of sources)
        self.omega_hits = 0
        self.expansions_in_queries = 0
        self._stack = []  # frames [name, start, child_s, span index]
        self._undo = []
        self._originals = {}

    # -- installing --------------------------------------------------------

    def install(self, modules):
        by_layer = {m.__name__.rpartition(".")[2]: m for m in modules if "." in m.__name__}
        for name, module, attribute, kind in TARGETS:
            original, method = _resolve(by_layer, module, attribute)
            if original is None:
                continue
            self._originals[name] = original
            wrapper = self._wrap(name, original, kind)
            if method is not None:
                cls, attr = method
                self._undo.append((setattr, cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((setattr, mod, attr, original))
                        setattr(mod, attr, wrapper)
                    elif type(value) is dict and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is original:
                                self._undo.append((dict.__setitem__, value, key, original))
                                value[key] = wrapper

    def uninstall(self):
        for restore, target, key, original in reversed(self._undo):
            restore(target, key, original)
        self._undo.clear()

    def _hook(self, name):
        if name == "metrics.bfs_distances":
            def hook(args, kwargs, result):
                slc = args[0] if args else kwargs.get("slc")
                source = args[1] if len(args) > 1 else kwargs.get("source")
                self.bfs_sources.setdefault(id(slc), (slc, set()))[1].add(int(source))
            return hook
        if name == "constructions.omega_member":
            def hook(args, kwargs, result):
                self.omega_hits += result is not None
            return hook
        if name == "flips.neighbor_moves":
            def hook(args, kwargs, result):
                if self._stack[-1][0] == "metrics.flip_distance":
                    self.expansions_in_queries += 1
            return hook
        return None

    def _wrap(self, name, fn, kind):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        hook = self._hook(name)

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if stack:
                    stat[0] += 1
                    if hook:
                        hook(args, kwargs, None)
                return fn(*args, **kwargs)
            return counted

        record = kind == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = parent[3]
            if record:
                span = self._open(name, parent[3])
            frame = [name, clock(), 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                parent[2] += duration
                if record and span != parent[3]:
                    spans[span][1] = frame[1]
                    spans[span][2] = end
            if hook:
                hook(args, kwargs, result)
            return result

        return timed

    def _open(self, name, parent) -> int:
        if len(self.spans) >= SPAN_LIMIT:
            self.dropped_spans += 1
            return parent
        self.spans.append([name, 0.0, 0.0, parent])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-side span around one call into the package."""
        stat = self.stats.setdefault("bench." + name, [0, 0.0, 0.0])
        span = self._open("bench." + name, -1)
        frame = ["bench." + name, time.perf_counter(), 0.0, span]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[2]
            if span >= 0:
                self.spans[span][1:3] = [frame[1], end]

    # -- reporting ---------------------------------------------------------

    def _useful_ratio(self):
        """Distinct dihedral orbits among BFS sources over BFS calls; needs
        flips.orbit_codes, run untraced after the job."""
        calls = self.stats.get("metrics.bfs_distances", [0])[0]
        orbit_codes = self._originals.get("flips.orbit_codes")
        if not calls or orbit_codes is None:
            return None
        orbits = 0
        for slc, sources in self.bfs_sources.values():
            codes = orbit_codes(slc)
            orbits += len({codes[s].tobytes() for s in sources})
        return orbits / calls

    def report(self) -> dict:
        """Per-layer metric values (0 where not measurable), the metrics
        whose function is absent, and the ratios left undefined because
        nothing was called."""
        values, absent, undefined = {}, [], []
        ratios = {
            "metrics.bfs_distances.useful_ratio": self._useful_ratio(),
            "constructions.omega_member.hit_ratio": self._ratio(
                self.omega_hits, "constructions.omega_member"),
            "metrics.flip_distance.nodes_expanded_per_query": self._ratio(
                self.expansions_in_queries, "metrics.flip_distance"),
        }
        for metric, _unit in PER_LAYER:
            stat, _, column = metric.rpartition(".")
            value = None
            if stat not in self.stats:
                absent.append(metric)
            elif metric in ratios:
                value = ratios[metric]
                if value is None:
                    undefined.append(metric)
            else:
                value = self.stats[stat][COLUMNS[column]]
            values[metric] = 0 if value is None else value
        return {
            "values": values,
            "absent": absent,
            "undefined": undefined,
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def _ratio(self, numerator, stat):
        calls = self.stats.get(stat, [0])[0]
        return numerator / calls if calls else None

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "dropped": self.dropped_spans}, handle)
