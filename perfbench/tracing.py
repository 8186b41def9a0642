"""Span recording around calls into rampagg's modules, from outside them.

The tracer replaces module attributes (functions the program looks up by
name at call time, and methods on its classes) with wrappers that record a
span per call: its name, start, end, parent span and task id.  Spans are kept
in compact arrays while the benchmark runs and are written out at exit.  A
span's self time is its duration minus the part its child spans cover.

Wrappers are installed only for the duration of a traced task, so untraced
tasks run the program's own functions with no added cost.  A wrap target
that does not exist (a later refactor removed or renamed it) is recorded as
absent and its metrics read zero; it never stops the benchmark.
"""

import functools
import importlib
import inspect
import statistics
import time
from array import array
from collections import Counter

import numpy as np

PHASES = ("intra", "inter", "server")

# The span of the benchmark's own count hooks: tracing overhead, no layer.
HOOK_SPAN = "trace.count_hook"

# Exact counts per task read from each protocol run's return value.
PROTOCOL_COUNTS = (
    ["sharing.mul_adds", "protocol.transcript.records", "protocol.null_messages"]
    + [f"protocol.transcript.{ph}.messages" for ph in PHASES]
    + [f"protocol.transcript.{ph}.null" for ph in PHASES]
)


def protocol_counts(signature, args, kwargs, result) -> dict:
    """Exact work and transcript counts of one ``run_protocol`` call, from
    its arguments and the public ``Transcript.phase_counts()``.

    Share evaluations cost (K+T) multiply-adds per coordinate; every user
    that takes part in the intra phase evaluates one share per group slot.
    """
    bound = signature.bind(*args, **kwargs)
    params = bound.arguments["params"]
    plan = bound.arguments.get("dropout_plan")
    pre_dropped = len(plan.dropped) if plan is not None and plan.timing == "pre_intra" else 0
    counts = Counter({
        "sharing.mul_adds": (params.n_users - pre_dropped)
        * params.group_size
        * params.seg_len
        * (params.k_parts + params.t_max),
    })
    phase_counts = type(result.transcript).phase_counts
    # The program's own method, not the span wrapper a traced task installs.
    by_phase = getattr(phase_counts, "__wrapped__", phase_counts)(result.transcript)
    for phase, bucket in by_phase.items():
        counts[f"protocol.transcript.{phase}.messages"] += bucket["messages"]
        counts[f"protocol.transcript.{phase}.null"] += bucket["null"]
        counts["protocol.transcript.records"] += bucket["messages"]
        counts["protocol.null_messages"] += bucket["null"]
    return counts


# (module, attribute path, span name, count hook).  The module is the one
# whose code looks the name up, so the wrapper sees every call from there.
WRAPS = [
    ("rampagg.harness", "simulate", "harness.simulate", None),
    ("rampagg.harness", "RunConfig.resolve", "harness.resolve", None),
    ("rampagg.harness", "generate_models", "harness.generate_models", None),
    ("rampagg.harness", "run_protocol", "protocol.run_protocol", protocol_counts),
    ("rampagg.harness", "measure_loads", "harness.measure_loads", None),
    ("rampagg.harness", "build_tree", "topology.build_tree", None),
    ("rampagg.harness", "potential_links", "topology.potential_links", None),
    ("rampagg.harness", "total_delay", "topology.total_delay", None),
    ("rampagg.harness", "RunReport.to_json", "harness.report_json", None),
    ("rampagg.protocol", "sample_noise", "sharing.sample_noise", None),
    ("rampagg.protocol", "share_at", "sharing.share_at", None),
    ("rampagg.protocol", "intra_round", "protocol.intra_round", None),
    ("rampagg.protocol", "build_inter_message", "protocol.build_inter_message", None),
    ("rampagg.protocol", "server_recover", "protocol.server_recover", None),
    ("rampagg.protocol", "Transcript.to_csv", "protocol.transcript.to_csv", None),
    ("rampagg.protocol", "Transcript.active_links", "protocol.transcript.active_links", None),
    ("rampagg.protocol", "Transcript.phase_counts", "protocol.transcript.phase_counts", None),
    ("rampagg.sharing", "lagrange_coefficients", "field.lagrange_coefficients", None),
    ("rampagg.privacy", "privacy_bruteforce", "privacy.privacy_bruteforce", None),
    ("rampagg.privacy", "run_protocol", "privacy.run_protocol", protocol_counts),
    ("rampagg.privacy", "collect_adversary_view", "harness.collect_adversary_view", None),
    ("rampagg.privacy", "build_tree", "topology.build_tree", None),
]

# Per-layer time metrics: self seconds per task, summed over the named spans.
LAYER_TIMES = {
    "sharing.share_at.s": ["sharing.share_at"],
    "sharing.sample_noise.s": ["sharing.sample_noise"],
    "harness.generate_models.s": ["harness.generate_models"],
    "protocol.run_protocol.self_s": ["protocol.run_protocol", "privacy.run_protocol"],
    "protocol.intra_round.self_s": ["protocol.intra_round"],
    "protocol.build_inter_message.s": ["protocol.build_inter_message"],
    "protocol.server_recover.s": ["protocol.server_recover"],
    "field.lagrange_coefficients.s": ["field.lagrange_coefficients"],
    "protocol.transcript.to_csv.s": ["protocol.transcript.to_csv"],
    "protocol.transcript.active_links.s": ["protocol.transcript.active_links"],
    "protocol.transcript.phase_counts.s": ["protocol.transcript.phase_counts"],
    "topology.build_tree.s": ["topology.build_tree"],
    "topology.potential_links.s": ["topology.potential_links"],
    "topology.total_delay.s": ["topology.total_delay"],
    "harness.resolve.s": ["harness.resolve"],
    "harness.measure_loads.s": ["harness.measure_loads"],
    "harness.report_json.s": ["harness.report_json"],
    "harness.simulate.self_s": ["harness.simulate"],
    "harness.collect_adversary_view.s": ["harness.collect_adversary_view"],
    "privacy.privacy_bruteforce.self_s": ["privacy.privacy_bruteforce"],
}

# Per-layer call counts per task.
LAYER_CALLS = {
    "sharing.share_at.calls": "sharing.share_at",
    "field.lagrange_coefficients.calls": "field.lagrange_coefficients",
    "privacy.run_protocol.calls": "privacy.run_protocol",
}


class Tracer:
    """Records spans of the calls listed in ``wraps`` during traced tasks."""

    def __init__(self, wraps=WRAPS):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}  # task id -> exact counts
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.tasks: dict[int, float] = {}  # traced task id -> its duration
        self._stack: list[int] = []
        self._task = -1
        self._targets = []
        self._hook_id = self._name_id(HOOK_SPAN)
        for module, path, span, hook in wraps:
            target = _lookup(module, path)
            if target is None:
                self.absent.append(f"{module}:{path}")
                continue
            owner, attr, original = target
            self._targets.append(
                (owner, attr, original, attr in vars(owner),
                 self._wrapper(original, self._name_id(span), hook))
            )

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _open(self, name_id: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self._task)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name_id: int, hook):
        signature = inspect.signature(original) if hook else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                # A span of its own, so the caller's self time leaves it out.
                hook_idx = tracer._open(tracer._hook_id)
                try:
                    counts = hook(signature, args, kwargs, result)
                    tracer.counts.setdefault(tracer._task, Counter()).update(counts)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.hook_errors.append(f"{tracer.names[name_id]}: {exc!r}")
                finally:
                    tracer._close(hook_idx)
            return result

        return wrapper

    def begin_task(self, task_id: int) -> None:
        """Install the wrappers; spans recorded until end_task belong to task_id."""
        self._task = task_id
        self._stack.clear()
        for owner, attr, _, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def end_task(self, seconds=None) -> None:
        """Restore the program's own functions.  ``seconds`` is the task's
        measured duration, or None when the task raised."""
        for owner, attr, original, own_attr, _ in self._targets:
            if own_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        if seconds is not None:
            self.tasks[self._task] = seconds
        self._task = -1

    # -- aggregation ------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.task, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span: (duration, self time = duration minus child coverage)."""
        _, parent, _, start, end = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        cover = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration, duration - cover

    def summary(self, task_ids) -> dict:
        """Per-layer metrics per task, averaged over the completed traced
        tasks ``task_ids``."""
        task_ids = [t for t in task_ids if t in self.tasks]
        name, _, task, _, _ = self._arrays()
        _, own = self.self_times()
        keep = np.isin(task, task_ids)
        n_tasks = max(1, len(task_ids))
        counts = sum((self.counts.get(t, Counter()) for t in task_ids), Counter())
        by_name_s = np.bincount(name[keep], weights=own[keep], minlength=len(self.names))
        by_name_calls = np.bincount(name[keep], minlength=len(self.names))
        metrics = {}
        for metric, spans in LAYER_TIMES.items():
            ids = [self.names.index(s) for s in spans if s in self.names]
            metrics[metric] = float(sum(by_name_s[i] for i in ids)) / n_tasks
        for metric, span in LAYER_CALLS.items():
            calls = by_name_calls[self.names.index(span)] if span in self.names else 0
            metrics[metric] = int(calls) / n_tasks
        for metric in PROTOCOL_COUNTS:
            metrics[metric] = counts.get(metric, 0) / n_tasks
        hook = keep & (name == self._hook_id)
        metrics["_spans"] = int((keep & ~hook).sum()) / n_tasks
        metrics["_hook_s"] = float(own[hook].sum()) / n_tasks
        metrics["_accounted_s"] = float(own[keep & ~hook].sum()) / n_tasks
        metrics["_task_s"] = sum(self.tasks[t] for t in task_ids) / n_tasks
        return metrics

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (numpy .npz)."""
        name, parent, task, start, end = self._arrays()
        np.savez(
            path, names=np.array(self.names), name=name, parent=parent,
            task=task, start=start, end=end,
        )


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a span wrapper adds to one call: the median over ``repeats``
    batches of a wrapped minus a bare call of a three-argument no-op."""
    probe = Tracer(wraps=[])
    wrapped = probe._wrapper(_noop, probe._name_id("probe"), None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop(1, 2, 3)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(1, 2, 3)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _noop(a, b, c):
    return None


def _lookup(module: str, path: str):
    """(owner, attribute, current value) for ``module:path``, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value
