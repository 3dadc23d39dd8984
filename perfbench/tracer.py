"""Outside-in span tracing of cpshift's layers.

`Tracer.patched()` wraps the public functions each layer is entered
through, at the module attributes its callers look them up in, and puts
the originals back on exit.  Nothing in the package is edited.  Spans stay
in memory; `layer_metrics` reduces one pass's spans to per-layer numbers.

Layer       spans (wrapped callable as bound in the named modules)
media       media.reflection          AxionMedium.reflection
quadrature  quadrature.integrate      integrate in cpshift.greens/.atomics
            quadrature.integrand      the integrand handed to it (one round)
greens      greens.real / greens.imag scattering_greens_numeric in .atomics
atomics     atomics.greens_tensor     greens_tensor in .atomics/.scan
            atomics.nonresonant       nonresonant_shift_terms in .atomics/.scan
scan        scan.run_scan, scan.figure  in cpshift.scan and cpshift.cli
cli         cli                       cpshift.cli.main

Span stacks are per thread because scan evaluates grid points in a thread
pool.  A span opened on a thread whose stack is empty is parented to the
innermost open span of the main thread, the caller that is waiting on the
pool.  A span's self time is its duration minus the union of its
children's intervals, so children running in parallel are not subtracted
twice.
"""
from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, t0, t1, counts or None)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def begin(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, _now()

    def end(self, token, name: str, counts=None, t1=None):
        t1 = _now() if t1 is None else t1
        sid, parent, t0 = token
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1, counts))

    def take(self) -> list:
        """The spans recorded so far; the tracer starts empty again."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, count=None):
        """fn inside a span; count(args, kwargs, result) gives its counters.

        `name` may be a callable of the arguments, for spans named by input.
        """
        def traced(*args, **kwargs):
            token = self.begin()
            label = name(args, kwargs) if callable(name) else name
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(token, label)
                raise
            t1 = _now()  # counting below is not part of the span
            self.end(token, label, count(args, kwargs, result) if count else None, t1)
            return result
        traced.__wrapped__ = fn
        return traced

    def _integrate(self, fn):
        def integrate(f, *args, **kwargs):
            def integrand(x):
                token = self.begin()
                try:
                    return f(x)
                finally:
                    self.end(token, "quadrature.integrand", {"nodes": np.size(x)})
            token = self.begin()
            try:
                result = fn(integrand, *args, **kwargs)
            except BaseException:
                self.end(token, "quadrature.integrate")
                raise
            self.end(token, "quadrature.integrate", {"neval": result.neval})
            return result
        integrate.__wrapped__ = fn
        return integrate

    @contextmanager
    def patched(self):
        """Wrap every traced entry point for the duration of the block."""
        import cpshift.atomics
        import cpshift.cli
        import cpshift.greens
        import cpshift.media
        import cpshift.scan
        mods = {"atomics": cpshift.atomics, "cli": cpshift.cli,
                "greens": cpshift.greens, "scan": cpshift.scan}

        def neval(args, kwargs, result):
            return {"neval": result.neval}

        def k_nodes(args, kwargs):
            return args[2] if len(args) > 2 else kwargs["k_par"]

        def greens_name(args, kwargs):
            point = args[0] if args else kwargs["point"]
            return "greens.imag" if point.is_imaginary else "greens.real"

        # (module keys, attribute, wrapper factory).  Every attribute must
        # exist: a renamed entry point raises here, so a traced run fails
        # instead of reporting 0 calls for a layer it no longer sees.
        plan = [
            (("greens", "atomics"), "integrate", self._integrate),
            (("atomics",), "scattering_greens_numeric",
             lambda fn: self.wrap(greens_name, fn, neval)),
            (("atomics", "scan"), "greens_tensor",
             lambda fn: self.wrap("atomics.greens_tensor", fn, neval)),
            (("atomics", "scan"), "nonresonant_shift_terms",
             lambda fn: self.wrap("atomics.nonresonant", fn, neval)),
            (("scan", "cli"), "run_scan",
             lambda fn: self.wrap("scan.run_scan", fn, _scan_counts)),
            (("scan", "cli"), "figure",
             lambda fn: self.wrap("scan.figure", fn, _figure_counts)),
            (("cli",), "main", lambda fn: self.wrap("cli", fn)),
        ]
        saved = []
        wrappers = {}
        try:
            for keys, attr, factory in plan:
                for key in keys:
                    fn = getattr(mods[key], attr)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = factory(fn)
                    saved.append((mods[key], attr, fn))
                    setattr(mods[key], attr, wrappers[id(fn)])
            axion = cpshift.media.AxionMedium
            fn = axion.__dict__["reflection"]
            saved.append((axion, "reflection", fn))
            axion.reflection = self.wrap(
                "media.reflection", fn,
                lambda a, kw, r: {"nodes": np.size(k_nodes(a, kw))})
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: Path, spans: list):
        """Write spans as JSON lines (gzip), one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, counts in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "counts": counts}))
                fh.write("\n")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _scan_counts(args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {"points": result.manifest.points, "bytes": _dir_bytes(out_dir)}


def _figure_counts(args, kwargs, result):
    name = args[0] if args else kwargs["name"]
    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    manifest = json.loads((out_dir / f"{name}.manifest.json").read_text())
    return {"points": manifest["points"], "bytes": _dir_bytes(out_dir)}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(spans: list) -> dict:
    """Span name -> {calls, incl_s, self_s, top_incl_s, <summed counters>}.

    A scan span nested in another (run_scan inside figure) adds its time to
    the outer one's and its points and bytes are not counted twice, so
    `top_incl_s`, `points` and `bytes` come from outermost scan spans only.
    """
    info = {sid: (parent, name, t0, t1) for sid, parent, name, t0, t1, _ in spans}
    children = {}
    for sid, parent, name, t0, t1, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    table = {}
    for sid, parent, name, t0, t1, counts in spans:
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                      "top_incl_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
        nested = name.startswith("scan.") and _inside_scan(info, parent)
        if not nested:
            row["top_incl_s"] += t1 - t0
        for key, value in (counts or {}).items():
            if not (nested and key in ("points", "bytes")):
                row[key] = row.get(key, 0) + int(value)
    return table


def _inside_scan(info: dict, parent: int) -> bool:
    while parent:
        parent, name, _, _ = info.get(parent, (0, "", 0, 0))
        if name.startswith("scan."):
            return True
    return False


def layer_metrics(spans: list) -> dict:
    """The benchmark's per-layer metrics (name -> value) for one pass."""
    t = layer_table(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def per_call_ms(name):
        calls = get(name, "calls")
        return 1e3 * get(name, "incl_s") / calls if calls else 0.0

    nodes = get("media.reflection", "nodes")
    scan_names = ("scan.run_scan", "scan.figure")
    points = sum(get(n, "points") for n in scan_names)
    scan_top_s = sum(get(n, "top_incl_s") for n in scan_names)
    return {
        "media.reflection.calls": get("media.reflection", "calls"),
        "media.reflection.nodes": nodes,
        "media.reflection.self_s": get("media.reflection", "self_s"),
        "media.reflection.ns_per_node":
            1e9 * get("media.reflection", "self_s") / nodes if nodes else 0.0,
        "quadrature.integrate.calls": get("quadrature.integrate", "calls"),
        "quadrature.integrate.rounds": get("quadrature.integrand", "calls"),
        "quadrature.integrate.neval": get("quadrature.integrate", "neval"),
        "quadrature.integrate.self_s": get("quadrature.integrate", "self_s"),
        "quadrature.integrand.self_s": get("quadrature.integrand", "self_s"),
        "greens.real.calls": get("greens.real", "calls"),
        "greens.real.neval": get("greens.real", "neval"),
        "greens.real.ms_per_call": per_call_ms("greens.real"),
        "greens.imag.calls": get("greens.imag", "calls"),
        "greens.imag.neval": get("greens.imag", "neval"),
        "greens.imag.ms_per_call": per_call_ms("greens.imag"),
        "atomics.nonresonant.calls": get("atomics.nonresonant", "calls"),
        "atomics.nonresonant.neval": get("atomics.nonresonant", "neval"),
        "atomics.nonresonant.ms_per_call": per_call_ms("atomics.nonresonant"),
        "atomics.greens_tensor.calls": get("atomics.greens_tensor", "calls"),
        "atomics.greens_tensor.neval": get("atomics.greens_tensor", "neval"),
        "atomics.greens_tensor.self_s": get("atomics.greens_tensor", "self_s"),
        "scan.points": points,
        "scan.self_s": sum(get(n, "self_s") for n in scan_names),
        "scan.points_per_s": points / scan_top_s if scan_top_s else 0.0,
        "scan.bytes_written": sum(get(n, "bytes") for n in scan_names),
        "cli.self_s": get("cli", "self_s"),
        "trace.spans": len(spans),
    }
