"""Span tracing of calls into slopekit's modules, installed from outside.

The program binds names with ``from .x import y``, so patching a function
in its defining module alone misses the calls made through those other
bindings.  ``Tracer.install`` therefore replaces every binding of a
traced function: module attributes of every loaded ``slopekit`` module
(the defining module included), values of module-level dicts such as
``suite.CHECKS``, and the few class methods listed in ``METHODS``.
``Tracer.uninstall`` puts every original back.  Nothing is patched unless
a traced run asks for it.

A span records name, start, end, parent span and op number.  Spans are
kept in flat arrays in memory and folded into per-layer figures only when
the run ends.  A span's self time is its duration minus the time covered
by its direct children.
"""

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("metric_space", "slope_core", "variational", "instances", "suite",
          "convex1d", "cli")

# Scalar helpers called once per point pair inside the slope loops; a span
# around each would time the wrapper, not the helper.
SKIP = {("slope_core", "pos_part")}

# Class methods that carry real work (construction and re-validation).
METHODS = {
    "metric_space": (("MetricSpace", "__post_init__"),
                     ("MetricSpace", "subspace"),
                     ("NeighborhoodSystem", "validate"),
                     ("NeighborhoodSystem", "restrict")),
    "instances": (("Instance", "to_json"),),
    "convex1d": (("PLConvex", "normalized"),),
}

# A validation whose nearest caller (constructor spans skipped) is one of
# these runs on a space that is a metric by construction.
BY_CONSTRUCTION = {"metric_space.MetricSpace.subspace", "metric_space.grid_space",
                   "metric_space.shortest_path_space"}
CONSTRUCTOR = "metric_space.MetricSpace"
LOAD_SPANS = {"instances.instance_from_dict", "instances.load_instance"}


class Tracer:
    """Spans and counters of the slopekit calls made while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._seen = set()
        self._keep = []
        self.slope_evals = 0
        self.slope_repeats = 0
        self.validate_n3 = 0
        self.descent_steps = 0
        self.json_bytes = 0
        self._restore = []

    # -- recording ------------------------------------------------------

    def begin_op(self, op_index):
        """Start op ``op_index``: repeat detection restarts per op."""
        self._op = op_index
        self._seen.clear()
        self._keep.clear()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, kwargs, result)`` runs after the call, outside the
        span's timed interval, to update counters.
        """
        nid = self._name_id(name)
        start, end, names, parent, ops = (self.start, self.end, self.name,
                                          self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(tracer._op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters -------------------------------------------------------

    def _slope_eval(self, key, keep):
        self.slope_evals += 1
        if key in self._seen:
            self.slope_repeats += 1
        else:
            self._seen.add(key)
            # hold the objects so their ids cannot be reused within the op
            self._keep.append(keep)

    def _after_local(self, args, kwargs, result):
        f, nbhd, x = _args(args, kwargs, ("f", "nbhd", "x"))
        self._slope_eval(("local", id(f), id(nbhd), x), (f, nbhd))

    def _after_global(self, args, kwargs, result):
        f, x = _args(args, kwargs, ("f", "x"))
        self._slope_eval(("global", id(f), x), f)

    def _after_validate(self, args, kwargs, result):
        (dist,) = _args(args, kwargs, ("dist",))
        self.validate_n3 += len(dist) ** 3

    def _after_descent(self, args, kwargs, result):
        self.descent_steps += len(result.points) - 1

    def _after_load(self, args, kwargs, result):
        (path,) = _args(args, kwargs, ("path",))
        self.json_bytes += os.path.getsize(path)

    def _after_to_json(self, args, kwargs, result):
        self.json_bytes += len(result)

    def _hooks(self):
        return {
            "slope_core.local_slope": self._after_local,
            "slope_core.global_slope": self._after_global,
            "metric_space.validate_metric": self._after_validate,
            "variational.descent_to_critical": self._after_descent,
            "instances.load_instance": self._after_load,
            "instances.Instance.to_json": self._after_to_json,
        }

    # -- installing -----------------------------------------------------

    def install(self):
        """Rebind every traced slopekit function to its span wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "slopekit" or name.startswith("slopekit.")}
        hooks = self._hooks()
        wrappers = {}   # id(original function) -> its wrapper
        for layer in LAYERS:
            mod = modules.get(f"slopekit.{layer}")
            if mod is None:
                raise RuntimeError(f"slopekit.{layer} is not imported")
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") or (layer, attr) in SKIP:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, hooks.get(name))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                name = (f"{layer}.{cls_name}" if meth == "__post_init__"
                        else f"{layer}.{cls_name}.{meth}")
                self._set(cls, meth, self.wrap(name, orig, hooks.get(name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._set_item(obj, key, wrappers[id(val)])

    def _set(self, owner, attr, value):
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- folding spans into per-layer figures ---------------------------

    def spans(self):
        """The recorded spans as numpy arrays, with self times."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": parent, "op": np.frombuffer(self.op, dtype=np.int32),
                "start": start, "end": end, "dur": dur, "self": dur - child}

    def save(self, path):
        """Write every span to ``path`` as a numpy .npz archive."""
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **{
            k: sp[k] for k in ("name", "parent", "op", "start", "end")})

    def layer_metrics(self, checks):
        """Per-layer figures named ``<layer>.<metric>``.

        ``checks`` maps each suite check name to its function, for one
        ``suite.check_s.<check>`` figure per check.
        """
        sp = self.spans()
        ids = sp["name"]
        parent = sp["parent"]

        def nid(name):
            return self._name_ids.get(name, -1)

        def total(mask, key):
            return float(sp[key][mask].sum())

        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names],
                            dtype=np.int32)[ids]
        out = {}
        for i, layer in enumerate(LAYERS):
            mask = layer_of == i
            if layer not in ("suite", "cli"):
                out[f"{layer}.calls"] = int(mask.sum())
            if layer != "cli":
                out[f"{layer}.self_s"] = total(mask, "self")

        out["slope_core.slope_evals"] = self.slope_evals
        out["slope_core.slope_evals_repeat_ratio"] = (
            self.slope_repeats / self.slope_evals if self.slope_evals else 0.0)

        validate = ids == nid("metric_space.validate_metric")
        by_construction = 0
        constructor = nid(CONSTRUCTOR)
        builders = {nid(n) for n in BY_CONSTRUCTION} - {-1}
        for idx in np.flatnonzero(validate):
            p = parent[idx]
            while p >= 0 and ids[p] == constructor:
                p = parent[p]
            by_construction += bool(p >= 0 and ids[p] in builders)
        out["metric_space.validate_calls"] = int(validate.sum())
        out["metric_space.validate_s"] = total(validate, "dur")
        out["metric_space.validate_n3"] = self.validate_n3
        out["metric_space.validate_by_construction_ratio"] = (
            by_construction / int(validate.sum()) if validate.any() else 0.0)

        out["variational.descent_steps"] = self.descent_steps
        out["variational.descent_step_calls"] = int(
            (ids == nid("variational.descent_step")).sum())

        # outermost loads only: load_instance calls instance_from_dict
        load_ids = [nid(n) for n in LOAD_SPANS]
        load = np.isin(ids, load_ids)
        nested = np.zeros(len(ids), dtype=bool)
        has_parent = parent >= 0
        nested[has_parent] = np.isin(ids[parent[has_parent]], load_ids)
        out["instances.load_s"] = total(load & ~nested, "dur")
        out["instances.json_bytes"] = self.json_bytes

        for check, fn in checks.items():
            out[f"suite.check_s.{check}"] = total(
                ids == nid(f"suite.{fn.__name__}"), "dur")
        return out


def _args(args, kwargs, params):
    """The leading positional-or-keyword arguments named ``params``."""
    values = list(args[:len(params)])
    for p in params[len(values):]:
        values.append(kwargs[p])
    return values
