"""Spans around driftplan's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper that
records one span per call: name, start, end and the span open when the call
began (its parent). Spans stay in memory until ``write`` saves them. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import os
import time
from array import array

import numpy as np

from driftplan import controllers, flowfield, forecast, hjsolver, missions, simulator, terrain

POINT_SAMPLE = "flowfield.point_sample"

#: (span name, owners of the attribute, attribute, extra count)
#: A function imported by name into another module is patched in each owner.
TRACED = [
    ("hjsolver.solve_mtr", (hjsolver, controllers, missions), "solve_mtr", None),
    ("hjsolver.query", (hjsolver.ValueFunction,), "value_at", None),
    ("hjsolver.query", (hjsolver.ValueFunction,), "grad_at", None),
    ("forecast.error_sample", (forecast.FourierPerturbedFlow,), "sample_many", "points"),
    ("forecast.gen_forecast_series", (forecast, simulator), "gen_forecast_series", None),
    *[("flowfield.grid_sample", (cls,), "sample_many", "points")
      for cls in (flowfield.UniformFlow, flowfield.HighwayFlow,
                  flowfield.DoubleGyreFlow, flowfield.GriddedFlow)],
    (POINT_SAMPLE, (flowfield.FlowSource,), "sample", None),
    ("flowfield.read_flow_file", (flowfield,), "read_flow_file", "bytes"),
    ("simulator.integrate_step", (simulator,), "integrate_step", None),
    ("simulator.run_mission", (simulator,), "run_mission", None),
    ("simulator.stranding_study", (simulator,), "stranding_study", None),
    ("terrain.contains", (terrain.ObstacleMask,), "contains", None),
    ("terrain.distance_map", (terrain,), "distance_map", None),
    ("controllers.control", (controllers.Controller,), "control", None),
    ("missions.sample_missions", (missions,), "sample_missions", None),
]


def _points(args, kwargs):
    # sample_many(self, x, y, t, ...): the number of query points
    return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size


def _bytes(args, kwargs):
    return os.path.getsize(args[0])


_EXTRA = {"points": _points, "bytes": _bytes}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra = collections.Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, extra: str | None = None):
        nid = self._id(name)
        # a concrete flow's sample_many called by the scalar sample() belongs
        # to the point_sample span, not to grid sampling
        skip = self._id(POINT_SAMPLE) if name == "flowfield.grid_sample" else -1
        count = _EXTRA[extra] if extra else None
        extra_key = f"{name}.{extra}"
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == skip:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            if count is not None:
                self.extra[extra_key] += count(args, kwargs)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owners, attr, extra in TRACED:
            fn = getattr(owners[0], attr)
            wrapped = self.wrap(name, fn, extra)
            for owner in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self):
        return (np.asarray(self.name_id), np.asarray(self.parent),
                np.asarray(self.start), np.asarray(self.end))

    def summary(self, window: tuple[float, float]) -> dict:
        """Per-name calls, self and inclusive seconds; inclusive seconds also
        restricted to spans that start inside ``window``."""
        nid, par, st, en = self.arrays()
        dur = en - st
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        inside = (st >= window[0]) & (st <= window[1])
        out = {}
        calls = np.bincount(nid, minlength=k)
        self_sum = np.bincount(nid, weights=self_s, minlength=k)
        self_win = np.bincount(nid[inside], weights=self_s[inside], minlength=k)
        incl_win = np.bincount(nid[inside], weights=dur[inside], minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                         "self_window_s": float(self_win[i]),
                         "incl_window_s": float(incl_win[i])}
        return out

    def durations(self, name: str, parent_not: str | None = None):
        """Durations of the spans called ``name``, optionally excluding those
        whose parent span is called ``parent_not``."""
        nid, par, st, en = self.arrays()
        if name not in self._ids:
            return np.zeros(0)
        sel = nid == self._ids[name]
        if parent_not is not None and parent_not in self._ids:
            pname = np.where(par >= 0, nid[np.maximum(par, 0)], -1)
            sel &= pname != self._ids[parent_not]
        return (en - st)[sel]

    def count_children(self, name: str, parent: str) -> int:
        nid, par, _, _ = self.arrays()
        if name not in self._ids or parent not in self._ids:
            return 0
        pname = np.where(par >= 0, nid[np.maximum(par, 0)], -1)
        return int(np.sum((nid == self._ids[name]) & (pname == self._ids[parent])))

    def write(self, path: str) -> None:
        nid, par, st, en = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=par, start=st, end=en)
