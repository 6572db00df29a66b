"""Span recorder for the traced benchmark run, hooked in from outside the library.

``Tracer.install`` replaces each public function of the layer modules under
``src/msmbounds/`` with a wrapper that records a span. A module that did
``from .msm import u_statistic`` holds a second name for the function, so
the wrapper goes into the defining module and into every module that bound
the same object. A few methods and ``scipy.optimize.linprog`` (as called
from ``nuisance``) are hooked the same way, and ``cli.main`` is the root
span. A span marks a call that crosses into a layer: a call from a layer
into its own layer records nothing, so a layer's self time includes its
internal helpers.

Spans stay in memory; ``summary`` and ``metrics`` reduce them after the run.
Times are integer nanoseconds, so self time is exact and never negative.
"""

import functools
import inspect
import sys
import time

LAYER_MODULES = (
    "_ranks", "data", "datagen", "gamma", "homotopy", "inference", "msm",
    "nuisance", "oracles", "outcome", "panel", "subset",
)
# count arithmetic used inside the rank rules, not rank rules themselves
SKIP = {("_ranks", "ceil_count"), ("_ranks", "gamma_count")}
CROSSFIT_METHODS = (
    "mu_row", "mu_at_units", "quantile_units", "s_units", "kappa_units",
    "kappa_row", "kappa_at_units",
)

NAME, LAYER, PARENT, START, END, SIZE = range(6)


class Tracer:
    """Records spans [name, layer, parent index, start ns, end ns, dataset n]."""

    def __init__(self):
        self.names = set()
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []
        self.kernel_rows = 0
        self._open = []

    def _wrap(self, name, layer, fn):
        clock = time.perf_counter_ns
        tracer = self
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            open_ = tracer._open
            if open_ and spans[open_[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            rec = [name, layer, open_[-1] if open_ else -1, 0, 0, -1]
            if len(open_) == 1:
                rec[SIZE] = _dataset_size(args, kwargs)
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Hook every layer; ``msmbounds.cli`` must already be imported."""
        import scipy.optimize

        mods = [m for name, m in sorted(sys.modules.items())
                if name == "msmbounds" or name.startswith("msmbounds.")]
        by_name = {m.__name__: m for m in mods}
        wrappers = {}
        for short in LAYER_MODULES:
            mod = by_name[f"msmbounds.{short}"]
            layer = short.lstrip("_")
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or (short, attr) in SKIP
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(mod, attr, wrappers[id(value)])

        nuisance = by_name["msmbounds.nuisance"]
        for cls in (nuisance.CrossFit, nuisance.SelfFit):
            self._set(cls, "__init__", self._wrap("nuisance.fit", "nuisance", vars(cls)["__init__"]))
        for attr in CROSSFIT_METHODS:
            fn = vars(nuisance.CrossFit)[attr]
            self._set(nuisance.CrossFit, attr, self._wrap(f"nuisance.{attr}", "nuisance", fn))
        prop = vars(nuisance.CrossFit)["weights"]
        self._set(nuisance.CrossFit, "weights",
                  property(self._wrap("nuisance.weights", "nuisance", prop.fget)))

        linprog = scipy.optimize.linprog
        traced_linprog = self._wrap("nuisance.linprog", "linprog", linprog)

        def linprog_hook(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "msmbounds.nuisance":
                return traced_linprog(*args, **kwargs)
            return linprog(*args, **kwargs)

        self._set(scipy.optimize, "linprog", linprog_hook)

        pair_kernel = by_name["msmbounds.msm"].PairKernel
        row = pair_kernel.row

        def counted_row(kernel, i):
            self.kernel_rows += 1
            return row(kernel, i)

        self._set(pair_kernel, "row", counted_row)

        cli = by_name["msmbounds.cli"]
        self._set(cli, "main", self._wrap("cli.main", "cli", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def _self_ns(self):
        spans = self.spans
        covered = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]

    def problems(self):
        """Violations of the span invariants; empty for a well-formed trace."""
        spans = self.spans
        out = []
        if self._open:
            out.append(f"{len(self._open)} spans still open")
        for k, (rec, self_ns) in enumerate(zip(spans, self._self_ns())):
            if rec[END] < rec[START]:
                out.append(f"span {k} {rec[NAME]} ends before it starts")
            if self_ns < 0:
                out.append(f"span {k} {rec[NAME]} has negative self time")
            p = rec[PARENT]
            if p >= 0 and not (spans[p][START] <= rec[START] and rec[END] <= spans[p][END]):
                out.append(f"span {k} {rec[NAME]} is not inside its parent {spans[p][NAME]}")
        return out

    def summary(self):
        """{span name: [calls, inclusive s, self s]}."""
        table = {}
        for rec, self_ns in zip(self.spans, self._self_ns()):
            row = table.setdefault(rec[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (rec[END] - rec[START]) * 1e-9
            row[2] += self_ns * 1e-9
        return table

    def metrics(self, names):
        """Values of the per-layer metrics in ``names`` for the recorded run.

        ``<span or layer>.calls`` and ``.self_s`` aggregate spans by name, or
        by layer when the prefix has no dot; a hooked name with no spans reads
        0. The remaining names are the special counters below.
        """
        spans = self.spans
        self_ns = self._self_ns()
        layers = {n.split(".")[0] for n in self.names}

        def parent_layer(rec):
            return spans[rec[PARENT]][LAYER] if rec[PARENT] >= 0 else None

        # the full sample of each invocation is the largest dataset that cli
        # passes to a layer (the nuisance fit always gets it)
        full_n = {}
        for r in spans:
            if r[PARENT] >= 0 and spans[r[PARENT]][PARENT] < 0:
                full_n[r[PARENT]] = max(full_n.get(r[PARENT], -1), r[SIZE])
        special = {
            "msm.kernel_rows": lambda: self.kernel_rows,
            "homotopy.refits": lambda: sum(
                1 for r in spans
                if r[NAME] == "msm.linear_weighted_beta" and parent_layer(r) == "homotopy"),
            "homotopy.threshold_steps": lambda: sum(
                1 for r in spans if r[LAYER] == "ranks" and parent_layer(r) == "homotopy"),
            # a HulC block rerun is a call from cli on a subsample of the data
            "inference.hulc_blocks_s": lambda: 1e-9 * sum(
                r[END] - r[START] for r in spans
                if r[PARENT] in full_n and 0 <= r[SIZE] < full_n[r[PARENT]]),
        }
        out = {}
        for name in names:
            if name in special:
                out[name] = special[name]()
                continue
            prefix, _, stat = name.rpartition(".")
            if prefix in self.names:
                match = [k for k, r in enumerate(spans) if r[NAME] == prefix]
            elif prefix in layers:
                match = [k for k, r in enumerate(spans) if r[LAYER] == prefix]
            else:
                raise KeyError(f"no span or layer named {prefix!r} for metric {name}")
            if stat == "calls":
                out[name] = len(match)
            elif stat == "self_s":
                out[name] = 1e-9 * sum(self_ns[k] for k in match)
            else:
                raise KeyError(f"unknown statistic in metric {name}")
        return out


def _dataset_size(args, kwargs):
    for value in (*args, *kwargs.values()):
        n = getattr(value, "n", None)
        if isinstance(n, int) and hasattr(value, "take"):
            return n
    return -1
