"""In-memory span recording around the calls into each package module.

The package itself carries no hooks, so the tracer wraps the module and
class attributes the package looks up at call time (``rng.stream``,
``numpy.fft.fftn``, ``mc_simulator._simulate_batch``, ...).  Every wrapped
call becomes a span ``(id, name, start, end, parent, run id)``.  Per-draw
calls are too frequent for spans: they are aggregated into a count and a
total time on the innermost open span of the calling thread.

Ensemble worker threads start with an empty span stack; their spans are
parented to the innermost span open on the thread that installed the
tracer, which is the ensemble call blocked in ``ThreadPoolExecutor.map``.
"""

from __future__ import annotations

import inspect
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    info: dict = field(default_factory=dict)
    # aggregated per-call work done directly under this span: name -> [count, seconds]
    agg: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "info": self.info, "agg": self.agg}


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans and aggregated
    per-call work cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            - sum(sec for _, sec in s.agg.values()) for s in spans}


def _bump(agg, name, seconds):
    slot = agg.setdefault(name, [0, 0.0])
    slot[0] += 1
    slot[1] += seconds


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._stacks = {}
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def open(self, name, **info) -> Span:
        parent = self._current()
        span = Span(next(self._ids), name, time.perf_counter(), math.nan,
                    parent.id if parent else None, self.run, info)
        self._stack().append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, name, seconds):
        """Aggregate one per-call event onto the innermost open span."""
        stack = self._stack()
        if stack:
            _bump(stack[-1].agg, name, seconds)
            return
        span = self._current()
        if span is not None:
            # worker threads share the fallback span; its own thread is
            # blocked in the executor meanwhile, so only they need the lock
            with self._lock:
                _bump(span.agg, name, seconds)

    def wrap(self, func, name, info=None):
        """Span around every call of ``func``; ``info(args, kwargs)`` may add
        fields computed from the arguments."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, **(info(args, kwargs) if info else {}))
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = func
        return traced

    def count(self, func, name):
        """Aggregate count and time of every call of ``func`` (no span)."""
        tracer = self

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.add(name, time.perf_counter() - t0)

        counted.__wrapped__ = func
        return counted


class _GeneratorProxy:
    """Generator stand-in that times ``standard_normal`` draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.add("rng.draw", time.perf_counter() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _traced_stream(tracer, func):
    def stream(*args, **kwargs):
        t0 = time.perf_counter()
        gen = func(*args, **kwargs)
        tracer.add("rng.build", time.perf_counter() - t0)
        return _GeneratorProxy(gen, tracer)

    stream.__wrapped__ = func
    return stream


def _fft_info(args, kwargs):
    """Transform length and count of a batched ``fftn`` call, for 5 N log2 N."""
    a = np.asarray(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(a.ndim) if axes is None else axes
    n = int(np.prod([a.shape[ax] for ax in axes]))
    return {"n": n, "howmany": a.size // max(n, 1)}


def _batch_info(args, kwargs):
    # _simulate_batch(traj_indices, grid, psi0, corr, params, dt, n_steps, ...)
    return {"size": len(args[0]), "steps": int(args[6])}


def _evolve_info(args, kwargs):
    # evolve_hierarchy(init, corr, params, t_max, dt, ...)
    init = args[0]
    t_max = kwargs["t_max"] if "t_max" in kwargs else args[3]
    dt = kwargs["dt"] if "dt" in kwargs else args[4]
    return {"steps": int(round(float(t_max) / float(dt))),
            "unknowns": int(init.m0.size + init.m1.size + init.m2.size)}


def _points_info(args, kwargs):
    return {"points": int(np.size(args[0]))}


class Instrumentation:
    """Replaces package attributes by traced wrappers; ``restore`` undoes it.

    A function imported by name into other package modules (``from
    .analytic_continuum import msd_closed_form``) is replaced in every
    module namespace that holds it, or holds a wrapper of it, so the traced
    wrapper is what each caller looks up.
    """

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self._modules = modules
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _everywhere(self, func, make):
        base = inspect.unwrap(func)
        for mod in self._modules.values():
            for attr, val in list(vars(mod).items()):
                if callable(val) and inspect.unwrap(val) is base:
                    self._set(mod, attr, make(val))

    def install(self):
        t, m = self.tracer, self._modules
        self._everywhere(m["rng"].stream, lambda f: _traced_stream(t, f))
        self._everywhere(m["noise_field"]._filter_white_batch, lambda f: t.wrap(f, "noise_field.filter"))
        self._everywhere(m["noise_field"].spectral_amplitude, lambda f: t.wrap(f, "noise_field.amplitude"))
        cs = m["noise_field"].ColoredStream
        self._set(cs, "advance", t.wrap(cs.advance, "noise_field.colored_advance"))
        self._everywhere(m["mc_simulator"]._simulate_batch,
                         lambda f: t.wrap(f, "mc_simulator.batch", _batch_info))
        obs = m["mc_simulator"]._Observables
        self._set(obs, "measure", t.wrap(obs.measure, "mc_simulator.observe"))
        for name in ("run_continuum", "run_lattice", "run_classical"):
            self._everywhere(getattr(m["mc_simulator"], name),
                             lambda f: t.wrap(f, "mc_simulator.ensemble"))
        self._set(np.fft, "fftn", t.wrap(np.fft.fftn, "fft", _fft_info))
        self._set(np.fft, "ifftn", t.wrap(np.fft.ifftn, "fft", _fft_info))
        self._everywhere(m["evolve_lattice"].evolve_hierarchy,
                         lambda f: t.wrap(f, "evolve_lattice.evolve", _evolve_info))
        for name in ("evolve_full_kernel", "gamma_on_box"):
            self._everywhere(getattr(m["evolve_lattice"], name),
                             lambda f: t.wrap(f, "evolve_lattice.other"))
        self._everywhere(m["analytic_continuum"].msd_closed_form,
                         lambda f: t.wrap(f, "analytic_continuum.msd", _points_info))
        for name in ("cubic_coefficient", "kernel_hat", "phase"):
            self._everywhere(getattr(m["analytic_continuum"], name),
                             lambda f: t.wrap(f, "analytic_continuum.other"))
        gps = m["analytic_continuum"].GaussianPureState
        self._set(gps, "kernel_at", t.count(gps.kernel_at, "analytic_continuum.kernel_eval"))
        self._everywhere(m["analytic_lattice"].laplace_msd,
                         lambda f: t.count(f, "analytic_lattice.laplace_eval"))
        self._everywhere(m["analytic_lattice"].msd_inverse_laplace_closed_form,
                         lambda f: t.wrap(f, "analytic_lattice.inverse"))
        self._everywhere(m["transforms_fit"].inverse_laplace_numeric,
                         lambda f: t.wrap(f, "transforms_fit.talbot"))
        self._everywhere(m["transforms_fit"].fit_power_law, lambda f: t.wrap(f, "transforms_fit.fit"))
        self._everywhere(m["cli"].load_config, lambda f: t.wrap(f, "cli.load_config"))
        self._everywhere(m["cli"].run, lambda f: t.wrap(f, "cli.route"))
        for cls in (m["analytic_continuum"].MomentSeries, m["mc_simulator"].EnsembleResult):
            self._set(cls, "to_csv", t.wrap(cls.to_csv, "cli.write"))
        return self

    def restore(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()


def _agg(spans, name):
    """(count, seconds) of one aggregated event over ``spans``."""
    pairs = [s.agg[name] for s in spans if name in s.agg]
    return sum(c for c, _ in pairs), math.fsum(sec for _, sec in pairs)


def layer_metrics(spans) -> dict:
    """Per-layer counts and busy times from one traced pass."""
    self_t = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def dur(name, where=None):
        return math.fsum(s.duration for s in named.get(name, ()) if where is None or where(s))

    def n(name):
        return len(named.get(name, ()))

    batches = named.get("mc_simulator.batch", [])
    ffts = named.get("fft", [])
    builds, build_s = _agg(spans, "rng.build")
    _, draw_s = _agg(spans, "rng.draw")
    reduce_s = 0.0
    for ens in named.get("mc_simulator.ensemble", ()):
        ends = [b.end for b in batches if b.parent == ens.id]
        if ends:
            reduce_s += ens.end - max(ends)
    evolves = named.get("evolve_lattice.evolve", [])
    rk4 = sum(s.info["steps"] for s in evolves)
    points = sum(s.info["points"] for s in named.get("analytic_continuum.msd", ()))
    talbots = named.get("transforms_fit.talbot", [])
    return {
        "rng.generators_built": builds,
        "rng.build_s": build_s,
        "rng.draw_s": draw_s,
        "noise_field.filter_calls": n("noise_field.filter"),
        "noise_field.filter_s": dur("noise_field.filter"),
        "noise_field.amplitude_s": dur("noise_field.amplitude"),
        "noise_field.colored_advance_s": dur("noise_field.colored_advance"),
        "mc_simulator.batches": len(batches),
        "mc_simulator.batch_s": dur("mc_simulator.batch"),
        "mc_simulator.fft_calls": len(ffts),
        "mc_simulator.fft_s": dur("fft"),
        "mc_simulator.fft_gflop_computed": math.fsum(
            5.0 * s.info["n"] * math.log2(s.info["n"]) * s.info["howmany"] for s in ffts) / 1e9,
        "mc_simulator.observe_calls": n("mc_simulator.observe"),
        "mc_simulator.observe_s": dur("mc_simulator.observe"),
        "mc_simulator.step_self_s": math.fsum(self_t[b.id] for b in batches),
        "mc_simulator.reduce_s": reduce_s,
        "evolve_lattice.rk4_steps": rk4,
        "evolve_lattice.unknowns": (sum(s.info["steps"] * s.info["unknowns"] for s in evolves) / rk4
                                    if rk4 else 0),
        "evolve_lattice.step_us": 1e6 * dur("evolve_lattice.evolve") / rk4 if rk4 else 0.0,
        "analytic_continuum.msd_points": points,
        "analytic_continuum.msd_point_us": 1e6 * dur("analytic_continuum.msd") / points if points else 0.0,
        "analytic_continuum.kernel_evals": _agg(spans, "analytic_continuum.kernel_eval")[0],
        "analytic_lattice.inverse_s": dur("analytic_lattice.inverse"),
        "analytic_lattice.laplace_evals": _agg(spans, "analytic_lattice.laplace_eval")[0],
        "transforms_fit.talbot_s": dur("transforms_fit.talbot"),
        "transforms_fit.talbot_evals": _agg(talbots, "analytic_lattice.laplace_eval")[0],
        "transforms_fit.fit_calls": n("transforms_fit.fit"),
        "transforms_fit.fit_s": dur("transforms_fit.fit"),
        "cli.load_config_s": dur("cli.load_config"),
        "cli.route_s": dur("cli.route"),
        "cli.write_s": dur("cli.write"),
    }


def step_split_ms(spans) -> dict:
    """Per batch-step stage times (ms) of the quantum Monte Carlo batches in
    ``spans``, from the batch spans and their descendants only (the
    classical driver's work lies outside them); the kinetic FFTs are the
    ones called directly by a batch."""
    batches = [s for s in spans if s.name == "mc_simulator.batch"]
    steps = sum(b.info["steps"] for b in batches)
    if not steps:
        return {k: 0.0 for k in ("rng", "filter", "phase", "kinetic_fft", "observe")}
    batch_ids = {b.id for b in batches}
    inside = set(batch_ids)
    for s in sorted(spans, key=lambda s: s.start):   # a parent opens before its children
        if s.parent in inside:
            inside.add(s.id)
    spans = [s for s in spans if s.id in inside]
    m = layer_metrics(spans)
    kinetic = math.fsum(s.duration for s in spans if s.name == "fft" and s.parent in batch_ids)
    return {
        "rng": 1e3 * (m["rng.build_s"] + m["rng.draw_s"]) / steps,
        "filter": 1e3 * m["noise_field.filter_s"] / steps,
        "phase": 1e3 * m["mc_simulator.step_self_s"] / steps,
        "kinetic_fft": 1e3 * kinetic / steps,
        "observe": 1e3 * m["mc_simulator.observe_s"] / steps,
    }
