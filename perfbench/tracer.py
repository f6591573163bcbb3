"""Outside tracer: spans around every public function of hgmrf's modules.

``install`` wraps each public function and each public class's methods,
and rebinds every name that refers to a wrapped function in every hgmrf
module, because ``experiments``, ``network`` and ``cli`` bind library
functions with ``from .rates import ...``.  Calls made through a module
attribute (``backend.sfcar_grid_sums``) see the wrapper too.  Nothing in
the library is edited.

A span is [function, layer, start, end, parent index, note]; spans stay
in a list until the pass ends.  ``layer_metrics`` turns them into the
per-layer metrics; ``span_cost`` calibrates what one span costs, which
times the number of spans is the tracing overhead of a pass.
"""

import functools
import inspect
import re
import sys
import time

#: Module -> layer.  The kernel backend and its implementations form one
#: layer, "kernels".
LAYERS = {
    "hgmrf.cli": "cli",
    "hgmrf.experiments": "experiments",
    "hgmrf.network": "network",
    "hgmrf.rates": "rates",
    "hgmrf.backend": "kernels",
    "hgmrf._kernels_py": "kernels",
    "hgmrf._kernels": "kernels",
    "hgmrf.physmap": "physmap",
    "hgmrf.specfun": "specfun",
    "hgmrf.car": "car",
    "hgmrf.oracle": "oracle",
}

_METHODS = ("__init__", "__post_init__")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[5] = _note(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every public function of the hgmrf modules in LAYERS."""
        wrapped = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (
                                not attr.startswith("_") or attr in _METHODS):
                            setattr(obj, attr, self._wrap(member, layer))
        for modname, mod in list(sys.modules.items()):
            if modname != "hgmrf" and not modname.startswith("hgmrf."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])


def span_cost(calls=20000, repeats=5):
    """Seconds a span adds to the call it wraps: a traced no-op against
    the bare one, per call, the median of ``repeats`` timings."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap(noop, "calibration")
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(calls):
            traced()
        t1 = clock()
        for _ in range(calls):
            noop()
        costs.append(((t1 - t0) - (clock() - t1)) / calls)
    costs.sort()
    return costs[repeats // 2]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _note(name, args, kwargs, out):
    """What the aggregation needs besides time: grid cells of a kernel
    call, the accepted grid and convergence of a rate, the boundary of a
    finite-lattice oracle call."""
    if name == "sfcar_grid_sums":
        n = int(_arg(args, kwargs, 2, "n"))
        return {"side": n, "cells": n * n}
    if name == "car_grid_sums":
        n = int(_arg(args, kwargs, 4, "n"))
        return {"side": n, "cells": n * n * len(_arg(args, kwargs, 0, "theta"))}
    if name in ("sfcar_rates", "sfcar_rates_at_spacing", "kli_rate_car"):
        return {"side": out.quadrature_points, "converged": bool(out.converged)}
    if name == "finite_lattice_rates":
        return {"boundary": _arg(args, kwargs, 2, "lattice").boundary}
    return None


def _tag(span, parent_tag, parent_layer):
    """Sub-layer a span's self time is charged to."""
    name, layer, note = span[0], span[1], span[5]
    if layer == "kernels":
        if name == "sfcar_grid_sums":
            return "kernels.sfcar"
        if name == "car_grid_sums":
            return "kernels.car"
    elif layer == "rates":
        if name in ("sfcar_rates", "sfcar_rates_at_spacing"):
            return "rates.sfcar"
        if name == "kli_rate_car":
            return "rates.car"
    elif layer == "oracle":
        if name == "finite_lattice_rates" and note is not None:
            return f"oracle.{note['boundary']}"
        if name == "sample_llr_per_node":
            return "oracle.mc"
    if parent_layer == layer:
        return parent_tag
    return layer


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("kernels.sfcar.calls", "count", "lower"),
    ("kernels.sfcar.cells", "count", "lower"),
    ("kernels.sfcar.self_s", "s", "lower"),
    ("kernels.sfcar.ns_per_cell", "ns", "lower"),
    ("kernels.sfcar.max_side", "points", "lower"),
    ("kernels.car.cells", "count", "lower"),
    ("kernels.car.self_s", "s", "lower"),
    ("rates.sfcar.calls", "count", "lower"),
    ("rates.sfcar.rounds_per_call", "count", "lower"),
    ("rates.sfcar.self_s", "s", "lower"),
    ("rates.sfcar.final_cell_share", "ratio", "higher"),
    ("rates.car.self_s", "s", "lower"),
    ("rates.unconverged", "count", "lower"),
    ("physmap.calls", "count", "lower"),
    ("physmap.rho_from_zeta.calls", "count", "lower"),
    ("physmap.self_s", "s", "lower"),
    ("specfun.calls", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("car.self_s", "s", "lower"),
    ("oracle.torus.self_s", "s", "lower"),
    ("oracle.free.self_s", "s", "lower"),
    ("oracle.mc.self_s", "s", "lower"),
    ("network.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("oracle.import_s", "s", "lower"),
    ("kernels.import_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Tags whose self time is reported; the rest (the harness between calls,
#: dataclass checks called from it) is trace.unattributed_s.
_SELF_TAGS = tuple(m[: -len(".self_s")] for m, _, _ in PER_LAYER
                   if m.endswith(".self_s"))


def layer_metrics(spans, pass_s):
    """Per-layer metrics of one traced pass (import times and overhead are
    added by the caller)."""
    tags = []
    child_time = [0.0] * len(spans)
    self_s = {}
    counts = {"physmap": 0, "rho_from_zeta": 0, "specfun": 0}
    sfcar = {"calls": 0, "cells": 0, "max_side": 0}
    car_cells = 0
    rates = {"calls": 0, "kernel_calls": 0, "kernel_cells": 0, "final_cells": 0,
             "unconverged": 0}
    # nearest enclosing rates.sfcar span, per span
    owner = [-1] * len(spans)
    for i, span in enumerate(spans):
        parent = span[4]
        ptag = tags[parent] if parent >= 0 else None
        player = spans[parent][1] if parent >= 0 else None
        tag = _tag(span, ptag, player)
        tags.append(tag)
        dur = span[3] - span[2]
        if parent >= 0:
            child_time[parent] += dur
            owner[i] = parent if tags[parent] == "rates.sfcar" else owner[parent]
        layer, note = span[1], span[5]
        if layer in counts:
            counts[layer] += 1
        if span[0] == "rho_from_zeta":
            counts["rho_from_zeta"] += 1
        outermost = player != layer
        if note is None:  # the call raised
            continue
        if tag == "kernels.sfcar" and outermost:
            sfcar["calls"] += 1
            sfcar["cells"] += note["cells"]
            sfcar["max_side"] = max(sfcar["max_side"], note["side"])
            if owner[i] >= 0:
                rates["kernel_calls"] += 1
                rates["kernel_cells"] += note["cells"]
        elif tag == "kernels.car" and outermost:
            car_cells += note["cells"]
        elif tag in ("rates.sfcar", "rates.car") and ptag != tag:
            if not note["converged"]:
                rates["unconverged"] += 1
            if tag == "rates.sfcar":
                rates["calls"] += 1
                rates["final_cells"] += note["side"] ** 2
    for i, span in enumerate(spans):
        self_s[tags[i]] = self_s.get(tags[i], 0.0) + (span[3] - span[2]) - child_time[i]
    out = {f"{t}.self_s": self_s.get(t, 0.0) for t in _SELF_TAGS}
    out.update({
        "kernels.sfcar.calls": sfcar["calls"],
        "kernels.sfcar.cells": sfcar["cells"],
        "kernels.sfcar.ns_per_cell": (1e9 * out["kernels.sfcar.self_s"] / sfcar["cells"]
                                      if sfcar["cells"] else 0.0),
        "kernels.sfcar.max_side": sfcar["max_side"],
        "kernels.car.cells": car_cells,
        "rates.sfcar.calls": rates["calls"],
        "rates.sfcar.rounds_per_call": (rates["kernel_calls"] / rates["calls"]
                                        if rates["calls"] else 0.0),
        "rates.sfcar.final_cell_share": (rates["final_cells"] / rates["kernel_cells"]
                                         if rates["kernel_cells"] else 0.0),
        "rates.unconverged": rates["unconverged"],
        "physmap.calls": counts["physmap"],
        "physmap.rho_from_zeta.calls": counts["rho_from_zeta"],
        "specfun.calls": counts["specfun"],
        "trace.unattributed_s": pass_s - sum(out.values()),
    })
    return out


# ------------------------------------------------------------ import times

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")

#: Layer -> modules whose import time it is charged with.
IMPORT_LAYERS = {
    "oracle": ("hgmrf.oracle",),
    "kernels": ("hgmrf.backend", "hgmrf._kernels_py", "hgmrf._kernels"),
    "cli": ("hgmrf.cli",),
}


def import_times(stderr_text):
    """Import seconds per layer from ``python -X importtime`` output.

    A module is charged with its cumulative time minus that of the hgmrf
    modules and of numpy imported beneath it: its own code plus the other
    packages it is first to import (scipy for the oracle).
    """
    entries = []  # (depth, name, cumulative_us, own_us)
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cum = int(m.group(2))
            entries.append([len(m.group(3)) // 2, m.group(4), cum, cum])
    # importtime prints children before their parent, one level deeper
    pending = []
    for entry in entries:
        depth, name = entry[0], entry[1]
        while pending and pending[-1][0] > depth:
            child = pending.pop()
            if child[0] == depth + 1 and (child[1].startswith("hgmrf")
                                          or child[1] == "numpy"):
                entry[3] -= child[2]
        pending.append(entry)
    own = {e[1]: e[3] for e in entries}
    return {layer: 1e-6 * sum(own.get(m, 0) for m in mods)
            for layer, mods in IMPORT_LAYERS.items()}
