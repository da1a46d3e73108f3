"""In-process span tracing of the bzinfo layers, for the benchmark's traced run.

The tracer wraps the public functions of ``src/bzinfo`` from the outside:
the library itself is not edited.  Modules bind many of these names
directly (``from .measurements import verify``), so installing a wrapper
rebinds every module attribute of the ``bzinfo`` package that refers to
the original function, and ``uninstall`` puts every original back.

Spans (name, start, end, parent, size) live in flat arrays so that a
sweep of tens of thousands of states stays a few megabytes; they are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

ROOT_SPAN = "cli"


def _result_len(args, kwargs, result):
    return len(result)


def _input_len(args, kwargs, result):
    return len(args[0])


def _draws(args, kwargs, result):
    return result.shots_per_povm * len(result.counts)


# (module, attribute, span name, size recorded on the span)
FUNCTIONS = (
    ("bzinfo.measurements", "verify", "measurements.verify", None),
    ("bzinfo.measurements", "build_mum", "measurements.build", None),
    ("bzinfo.measurements", "build_gsm", "measurements.build", None),
    ("bzinfo.measurements", "build_mub", "measurements.build", None),
    ("bzinfo.measurements", "max_t_mum", "measurements.max_t", None),
    ("bzinfo.measurements", "max_t_gsm", "measurements.max_t", None),
    ("bzinfo.basis", "gell_mann_basis", "basis.gell_mann", None),
    ("bzinfo.serialize", "encode", "serialize.encode", _result_len),
    ("bzinfo.serialize", "decode", "serialize.decode", _input_len),
    ("bzinfo.linalg", "hermitian", "linalg.hermitian", None),
    ("bzinfo.states", "validate_state", "states.validate_state", None),
    ("bzinfo.states", "random_density", "states.random_density", None),
    ("bzinfo.invariants", "closed_forms", "invariants.closed_forms", None),
    ("bzinfo._kernels", "real_trace_batch", "kernels.trace_batch", None),
    ("bzinfo._kernels", "tally_inverse_cdf", "kernels.tally", None),
    ("bzinfo.sampler", "sample_outcomes", "sampler.sample_outcomes", _draws),
    ("bzinfo.sampler", "estimate_bz_info", "sampler.estimate_bz_info", None),
)

# (module, class, method, span name); methods are patched on the class
METHODS = (
    ("bzinfo.invariants", "DirectEvaluator", "__init__", "invariants.evaluator_init"),
    ("bzinfo.invariants", "DirectEvaluator", "report", "invariants.report"),
)

# per-layer metric -> (span name, aggregate, unit); "total" sums span
# durations, "self" sums durations minus direct children, "calls" counts
# spans and "size" sums the recorded sizes
LAYER_METRICS = {
    "measurements.verify_s": ("measurements.verify", "total", "s"),
    "measurements.verify_calls": ("measurements.verify", "calls", "count"),
    "measurements.build_s": ("measurements.build", "total", "s"),
    "measurements.max_t_s": ("measurements.max_t", "total", "s"),
    "basis.gell_mann_s": ("basis.gell_mann", "total", "s"),
    "serialize.encode_s": ("serialize.encode", "total", "s"),
    "serialize.bytes_written": ("serialize.encode", "size", "bytes"),
    "serialize.decode_self_s": ("serialize.decode", "self", "s"),
    "serialize.bytes_read": ("serialize.decode", "size", "bytes"),
    "linalg.hermitian_s": ("linalg.hermitian", "total", "s"),
    "invariants.evaluator_init_self_s": ("invariants.evaluator_init", "self", "s"),
    "invariants.report_s": ("invariants.report", "total", "s"),
    "invariants.report_calls": ("invariants.report", "calls", "count"),
    "invariants.closed_forms_s": ("invariants.closed_forms", "total", "s"),
    "states.random_density_s": ("states.random_density", "total", "s"),
    "states.random_density_calls": ("states.random_density", "calls", "count"),
    "states.validate_state_s": ("states.validate_state", "total", "s"),
    "kernels.trace_batch_s": ("kernels.trace_batch", "total", "s"),
    "kernels.tally_s": ("kernels.tally", "total", "s"),
    "kernels.tally_calls": ("kernels.tally", "calls", "count"),
    "sampler.sample_outcomes_self_s": ("sampler.sample_outcomes", "self", "s"),
    "sampler.sample_outcomes_calls": ("sampler.sample_outcomes", "calls", "count"),
    "sampler.bootstrap_self_s": ("sampler.estimate_bz_info", "self", "s"),
    "sampler.draws": ("sampler.sample_outcomes", "size", "count"),
    "cli.self_s": (ROOT_SPAN, "self", "s"),
}


class Tracer:
    """Records nested spans for CLI invocations run in this process."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.size = array("q")
        self.invocation = array("l")
        # one (pass index, argv) per invocation; pass -1 is the set-up
        self.invocations: list[tuple[int, tuple[str, ...]]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0)
        self.invocation.append(len(self.invocations) - 1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, size_of=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if size_of is not None:
                self.size[sid] = size_of(args, kwargs, result)
            return result

        return traced

    def call(self, pass_index: int, argv: list[str], main):
        """Run ``main(argv)`` as one invocation under a root span."""
        self.invocations.append((pass_index, tuple(argv)))
        sid = self._open(self._name_id(ROOT_SPAN))
        try:
            return main(argv)
        finally:
            self._close(sid)

    def install(self) -> None:
        """Wrap every traced function and rebind each name that refers to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bzinfo" or n.startswith("bzinfo."))
        ]
        for module_name, attr, name, size_of in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, size_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[sid] - self.start[sid]
        return own

    def layer_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced pass, keyed by pass index."""
        own = self._self_times()
        names = self.span_names
        passes = sorted({p for p, _ in self.invocations if p >= 0})
        sums = {p: {} for p in passes}
        for sid, name_id in enumerate(self.name):
            p = self.invocations[self.invocation[sid]][0]
            if p < 0:
                continue
            acc = sums[p].setdefault(names[name_id], [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += self.end[sid] - self.start[sid]
            acc[2] += own[sid]
            acc[3] += self.size[sid]
        column = {"calls": 0, "total": 1, "self": 2, "size": 3}
        return {
            p: {
                metric: sums[p].get(span, [0, 0.0, 0.0, 0])[column[how]]
                for metric, (span, how, _) in LAYER_METRICS.items()
            }
            for p in passes
        }

    def invocation_counts(self) -> list[tuple[tuple[str, ...], dict[str, int]]]:
        """(argv, span name -> call count) for every invocation, in order."""
        counts = [(argv, {}) for _, argv in self.invocations]
        for sid, name_id in enumerate(self.name):
            per = counts[self.invocation[sid]][1]
            name = self.span_names[name_id]
            per[name] = per.get(name, 0) + 1
        return counts

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,invocation,pass,verb,name,start_s,end_s,parent,size\n")
            for sid, name_id in enumerate(self.name):
                inv = self.invocation[sid]
                pass_index, argv = self.invocations[inv]
                fh.write(
                    f"{sid},{inv},{pass_index},{argv[0]},{self.span_names[name_id]},"
                    f"{self.start[sid] - self._epoch:.9f},{self.end[sid] - self._epoch:.9f},"
                    f"{self.parent[sid]},{self.size[sid]}\n"
                )
