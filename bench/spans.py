"""Outside-in tracing of the ``overgap`` layers.

:class:`Tracer` wraps every function named in the ``__all__`` of each
layer module (``cli``, ``qseries``, ``partitions``, ``maps``, ``hyper``)
in every module namespace that binds it, since ``from .qseries import
qs_mul`` copies the binding into the importing module.  Each call, and
each ``next()`` on a generator, becomes a span (function, start, end,
parent span, job id) held in flat arrays until the run ends.  A layer's
self time is the time its spans cover minus the time their child spans
cover.  Classes are not wrapped, so a method called directly from
another layer counts toward that caller's self time.

A few functions also feed counters computed from their inputs and
results.  That bookkeeping runs inside a span of its own that belongs to
no layer, so it does not inflate the self time of the caller.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "qseries", "partitions", "maps", "hyper")
_BOOKKEEPING = "(trace)"


# -- counters computed from a call's inputs and result -------------------------


def _term_counts(series) -> list[int]:
    """Number of z-terms in each stored q-coefficient of a series."""
    return [len(coeff.items()) for coeff in series.coeffs]


def _prefix(sizes: list[int]) -> list[int]:
    out = [0]
    for size in sizes:
        out.append(out[-1] + size)
    return out


def _qs_mul(args, result) -> dict:
    """(q,z)-term pairs of the two factors whose product lands in the window."""
    a, b = args
    width = result.order - (a.min_exp + b.min_exp)
    if width <= 0 or a.is_zero() or b.is_zero():
        return {}
    prefix = _prefix(_term_counts(b))
    top = len(prefix) - 1
    pairs = sum(
        n * prefix[min(top, width - i)]
        for i, n in enumerate(_term_counts(a))
        if i < width
    )
    return {"qseries.qs_mul.term_pairs": pairs}


def _qs_mul_finite(args, result) -> dict:
    a, factor = args
    terms = [(exp, len(coeff.items())) for exp, coeff in factor if coeff]
    if not terms or a.is_zero():
        return {}
    shift = min(exp for exp, _ in terms)
    width = a.order - a.min_exp
    prefix = _prefix(_term_counts(a))
    top = len(prefix) - 1
    pairs = sum(
        n * prefix[min(top, max(0, width - (exp - shift)))] for exp, n in terms
    )
    return {"qseries.qs_mul_finite.term_pairs": pairs}


def _qs_invert(args, result) -> dict:
    return {"qseries.qs_invert.width": result.order - result.min_exp}


def overpartitions_up_to(max_n: int) -> int:
    """Number of overpartitions of weights 1..max_n: prod (1+q^k)/(1-q^k)."""
    counts = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for n in range(max_n, k - 1, -1):
            counts[n] += counts[n - k]
        for n in range(k, max_n + 1):
            counts[n] += counts[n - k]
    return sum(counts[1:])


def _census_sweep(args, result) -> dict:
    """enumerated_bounded_gap_gf walks every overpartition up to max_n once."""
    walked = overpartitions_up_to(args[1])
    tallied = sum(
        coeff
        for series in result.values()
        for _, poly in series.enumerate_terms()
        for _, coeff in poly.items()
    )
    return {"partitions.sweep_visited": walked, "partitions.sweep_members": tallied}


def _fiber(args, result) -> dict:
    return {"maps.fiber_members": len(result.fiber)}


_COUNTERS = {
    "qseries.qs_mul": _qs_mul,
    "qseries.qs_mul_finite": _qs_mul_finite,
    "qseries.qs_invert": _qs_invert,
    "partitions.enumerated_bounded_gap_gf": _census_sweep,
    "maps.fold_preimages": _fiber,
    "maps.merge_preimages": _fiber,
}


def _max_bits(series) -> int:
    return max(
        (abs(c).bit_length() for coeff in series.coeffs for _, c in coeff.items()),
        default=0,
    )


# -- span recording ---------------------------------------------------------------


class _TracedIterator:
    """Iterator proxy recording one span per ``next()``."""

    __slots__ = ("_inner", "_tracer", "_fid")

    def __init__(self, inner, tracer: "Tracer", fid: int):
        self._inner = inner
        self._tracer = tracer
        self._fid = fid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        sid = tracer._open(self._fid)
        try:
            value = next(self._inner)
        except StopIteration:
            tracer._close(sid)
            raise
        except Exception:
            tracer._close(sid)
            tracer.errors[self._fid] += 1
            raise
        tracer._close(sid)
        tracer._yielded(sid)
        return value


class Tracer:
    """Span recorder; use as a context manager around the traced jobs.

    The package must be imported first.  Set ``job_id`` before each job
    so its spans carry the job's index.
    """

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.calls: list[int] = []
        self.errors: list[int] = []
        # (generator, function of the span that pulled the value) -> yields
        self.yields: Counter = Counter()
        # (counter name, job id) -> total
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.job_id = -1
        self._stack: list[int] = []
        self._bookkeeping = self._name_id(_BOOKKEEPING)
        self._bindings = self._wrap_package()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _open(self, fid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.fid.append(fid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _yielded(self, sid: int) -> None:
        up = self.parent[sid]
        self.yields[self.fid[sid], self.fid[up] if up >= 0 else -1] += 1

    def _wrap(self, name: str, fn):
        fid = self._name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[fid] += 1
                return _TracedIterator(fn(*args, **kwargs), tracer, fid)
        else:
            counter = _COUNTERS.get(name)
            in_qseries = name.startswith("qseries.")

            def wrapper(*args, **kwargs):
                tracer.calls[fid] += 1
                sid = tracer._open(fid)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer._close(sid)
                    tracer.errors[fid] += 1
                    raise
                tracer._close(sid)
                if counter is not None or in_qseries:
                    tracer._account(counter, args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _account(self, counter, args, result) -> None:
        sid = self._open(self._bookkeeping)
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counts[key, self.job_id] += value
        if hasattr(result, "coeffs"):
            self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(result))
        self._close(sid)

    def _wrap_package(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding to wrap."""
        modules = [sys.modules[f"overgap.{layer}"] for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        return [
            (namespace, attr, value, wrappers[id(value)])
            for namespace in [sys.modules["overgap"]] + modules
            for attr, value in vars(namespace).items()
            if id(value) in wrappers
        ]

    def __enter__(self) -> "Tracer":
        """Install the wrappers; may be entered again after leaving."""
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original, _ in self._bindings:
            setattr(namespace, attr, original)

    # -- derived numbers --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per function id: its spans' time minus their child spans' time."""
        own = [0.0] * len(self.names)
        fid, start, end, parent = self.fid, self.start, self.end, self.parent
        for sid in range(len(start)):
            took = end[sid] - start[sid]
            own[fid[sid]] += took
            up = parent[sid]
            if up >= 0:
                own[fid[up]] -= took
        return own

    def write(self, path, jobs: list[list[str]]) -> None:
        """Spans as gzip'd CSV: span, job, function, start_s, end_s, parent."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, argv in enumerate(jobs):
                handle.write(f"# job {index}: {' '.join(argv)}\n")
            handle.write("span,job,function,start_s,end_s,parent\n")
            for sid in range(len(self.start)):
                handle.write(
                    f"{sid},{self.job[sid]},{names[self.fid[sid]]},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f},{self.parent[sid]}\n"
                )


# -- per-layer metrics -------------------------------------------------------------

_ENUMERATION = (
    "partitions.iter_overpartitions",
    "partitions.iter_bounded_gap",
    "partitions.iter_bounded_parts",
    "partitions.iter_bipartitions",
    "partitions.gf_from_enumeration",
    "partitions.enumerated_bounded_gap_gf",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, jobs: list[list[str]], bad_exits: int, bytes_out: int, overhead: float
) -> dict[str, float]:
    """Every per-layer metric from one traced pass over ``jobs``, by name."""
    own = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}

    def total(values, name):
        return values[index[name]] if name in index else 0

    def layer_sum(values, layer):
        return sum(values[i] for name, i in index.items() if name.startswith(layer + "."))

    def counted(key, only_jobs=None):
        return sum(
            value for (name, job), value in tracer.counts.items()
            if name == key and (only_jobs is None or job in only_jobs)
        )

    def yields(name, pulled_by=None):
        fid = index.get(name)
        return sum(
            n for (child, parent), n in tracer.yields.items()
            if child == fid and (pulled_by is None or parent == index.get(pulled_by))
        )

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_sum(own, layer)
        out[f"{layer}.errors"] = layer_sum(tracer.errors, layer)
    out["cli.errors"] += bad_exits
    out["qseries.calls"] = layer_sum(tracer.calls, "qseries")
    for fn in ("qs_mul", "qs_invert", "qs_mul_finite", "qs_div_one_minus",
               "pochhammer", "pochhammer_infinite"):
        out[f"qseries.{fn}.calls"] = total(tracer.calls, f"qseries.{fn}")
        out[f"qseries.{fn}.self_s"] = total(own, f"qseries.{fn}")
    out["qseries.qs_mul.term_pairs"] = counted("qseries.qs_mul.term_pairs")
    out["qseries.qs_mul.pairs_per_s"] = _ratio(
        out["qseries.qs_mul.term_pairs"], out["qseries.qs_mul.self_s"]
    )
    out["qseries.qs_invert.width"] = counted("qseries.qs_invert.width")
    out["qseries.qs_mul_finite.term_pairs"] = counted("qseries.qs_mul_finite.term_pairs")
    out["qseries.max_coeff_bits"] = tracer.max_coeff_bits
    out["hyper.eval_phi.calls"] = total(tracer.calls, "hyper.eval_phi")
    for fn in ("eval_phi", "chain_lines", "check_3phi2_transform"):
        out[f"hyper.{fn}.self_s"] = total(own, f"hyper.{fn}")

    out["partitions.enumeration.self_s"] = sum(total(own, name) for name in _ENUMERATION)
    swept = counted("partitions.sweep_visited")
    out["partitions.members_visited"] = yields("partitions.iter_overpartitions") + swept
    # bounded-gap members counted / overpartitions visited to find them; a
    # sweep over several bounds counts a member once per bound it meets
    out["partitions.census_yield"] = _ratio(
        yields("partitions.iter_bounded_gap") + counted("partitions.sweep_members"),
        yields("partitions.iter_overpartitions", "partitions.iter_bounded_gap") + swept,
    )

    out["maps.fold.calls"] = total(tracer.calls, "maps.fold")
    out["maps.fiber_members"] = counted("maps.fiber_members")
    out["maps.verify_fiber_identity.self_s"] = total(own, "maps.verify_fiber_identity")
    # under `preimages --check`: fiber members / candidates mapped by brute force
    checked = {i for i, argv in enumerate(jobs) if argv[0] == "preimages"}
    mapped = {index[name] for name in ("maps.fold", "maps.merge") if name in index}
    candidates = sum(
        1 for sid in range(len(tracer.fid))
        if tracer.fid[sid] in mapped and tracer.job[sid] in checked
    )
    out["maps.brute_fiber_yield"] = _ratio(counted("maps.fiber_members", checked), candidates)

    out["cli.bytes_out"] = bytes_out
    out["trace.spans"] = len(tracer.start)
    out["trace.overhead"] = overhead
    return out
