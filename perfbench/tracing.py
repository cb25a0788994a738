"""Spans and counts around the calls driftlab.experiment makes into each layer.

``Instrumentation(experiment)`` replaces the names that ``driftlab.experiment``
imports from the other modules (and its own ``collect`` and
``run_replication``) with wrappers that time each call and count the work it
reports.  Nothing under ``src/`` changes: the program calls the same
functions, only through a module attribute the benchmark has rebound.

Spans are aggregated as they close (calls, total and self time per name),
so a traced run keeps a few dicts, not one record per call.  Worker
processes of a ``workers=2`` config inherit the wrappers through fork; each
replication carries its own ``Tracer`` back to the parent on the returned
``Replication`` object, where the ``collect`` wrapper merges it.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    """Aggregated spans and counts of one process or one replication."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.replication_s: list[float] = []
        self.replays: list[tuple] = []  # bilinear calls to re-run with record=True
        self.streams: list = []
        self._open: list[float] = []  # child time of each open span

    def call(self, name: str, fn, args, kwargs):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dt
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - child

    def merge(self, other: "Tracer") -> None:
        for name, (calls, total, own) in other.spans.items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        self.counts.update(other.counts)
        self.replication_s.extend(other.replication_s)
        self.replays.extend(other.replays)


def _walk(counts, args, result):
    counts["walks.steps"] += result[0].stopping_time


def _sat2_walk(counts, args, result):
    counts["sat2.steps"] += result.iterations


def _recolour(counts, args, result):
    counts["recolour.steps"] += result.iterations
    counts["recolour.runs"] += 1


def _bilinear(counts, args, result):
    counts["bilinear.steps"] += result.iterations
    counts["bilinear.runs"] += 1
    counts["bilinear.censored"] += result.censored


def _rwab(counts, args, result):
    counts["rwab.rounds"] += result.rounds


def _drift(counts, args, result):
    counts["analysis.transitions"] += result.transitions


def _write(counts, args, result):
    counts["trajectory.bytes_written"] += len(args[1].encode())
    counts["trajectory.files_written"] += 1


def _read(counts, args, result):
    counts["experiment.bytes_read"] += len(args[0].encode())


# experiment attribute -> (span name, hook adding the call's work to the counts)
WRAPPED = {
    "build_report": ("experiment.build_report", None),
    "read_samples_csv": ("experiment.read_samples", _read),
    "read_trajectory_csv": ("experiment.read_trajectories", _read),
    "simulate_fair_walk": ("walks.run", _walk),
    "simulate_biased_walk": ("walks.run", _walk),
    "simulate_lazy_walk": ("walks.run", _walk),
    "generate_planted": ("sat2.generate", None),
    "random_assignment": ("sat2.generate", None),
    "run_walk": ("sat2.walk", _sat2_walk),
    "satisfies": ("sat2.verify", None),
    "generate_3colorable": ("recolour.generate", None),
    "random_colouring": ("recolour.generate", None),
    "run_recolour": ("recolour.run", _recolour),
    "seek_monochromatic_triangle": ("recolour.final_scan", None),
    "run_until_opt": ("bilinear.run", _bilinear),
    "run_forgetting": ("bilinear.run", _bilinear),
    "sample_change_times": ("rwab.change_times", None),
    "run_rwab": ("rwab.run", _rwab),
    "samples_to_csv": ("trajectory.samples_csv", None),
    "trajectory_to_csv": ("trajectory.trajectory_csv", None),
    "write_text": ("trajectory.write", _write),
    "summary_table": ("analysis.summary_table", None),
    "compare_bound": ("analysis.compare_bound", None),
    "estimate_drift": ("analysis.estimate_drift", _drift),
    "fit_step_tail": ("analysis.fit_step_tail", None),
    "histogram_export": ("analysis.histogram", None),
}

BILINEAR = ("run_until_opt", "run_forgetting")


class Instrumentation:
    """The wrappers installed into one driftlab.experiment module."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.current = Tracer()
        self.pool_capacity_s = 0.0  # sum over collect calls of workers x wall
        self.originals = {}
        for attr, (name, hook) in WRAPPED.items():
            self._wrap(attr, name, hook)
        self._wrap_stream()
        self._wrap_replication()
        self._wrap_collect()

    def _rebind(self, attr, wrapper):
        original = getattr(self.experiment, attr)
        self.originals[attr] = original
        setattr(self.experiment, attr, wrapper)
        return original

    def _wrap(self, attr, name, hook):
        original = None

        def wrapper(*args, **kwargs):
            tracer = self.current
            if attr in BILINEAR:
                stream = args[1]
                start = (stream.master_seed, stream.stream_id, stream.draw_counter)
            result = tracer.call(name, original, args, kwargs)
            if hook is not None:
                hook(tracer.counts, args, result)
            if attr in BILINEAR:
                tracer.replays.append(
                    (attr, args[0], args[2:], kwargs, start, result.iterations)
                )
            return result

        original = self._rebind(attr, wrapper)

    def _wrap_stream(self):
        original = None

        def wrapper(*args, **kwargs):
            stream = original(*args, **kwargs)
            self.current.streams.append(stream)
            return stream

        original = self._rebind("RngStream", wrapper)

    def _wrap_replication(self):
        original = None

        def wrapper(config, run_id):
            outer, tracer = self.current, Tracer()
            self.current = tracer
            try:
                t0 = perf_counter()
                rep = tracer.call("experiment.run_replication", original, (config, run_id), {})
                tracer.replication_s.append(perf_counter() - t0)
            finally:
                self.current = outer
            tracer.counts["rng.draws"] += sum(s.draw_counter for s in tracer.streams)
            tracer.streams = []
            # travels back from a worker process with the pickled result
            rep.perfbench = tracer
            return rep

        original = self._rebind("run_replication", wrapper)

    def _wrap_collect(self):
        original = None

        def wrapper(config):
            t0 = perf_counter()
            reps = self.current.call("experiment.collect", original, (config,), {})
            self.pool_capacity_s += config.workers * (perf_counter() - t0)
            for rep in reps:
                self.current.merge(rep.__dict__.pop("perfbench"))
            return reps

        original = self._rebind("collect", wrapper)

    def replay_accepts(self) -> int:
        """Accepted flips of every bilinear run, by re-running it with record=True.

        Each accepted flip moves the recorded Manhattan distance by exactly
        one, so accepted flips are the steps at which the trajectory changes.
        Runs outside every span, after the timed operation.
        """
        accepted = 0
        stream_cls = self.originals["RngStream"]
        for attr, params, rest, kwargs, start, iterations in self.current.replays:
            master, stream_id, counter = start
            stream = stream_cls(master_seed=master, stream_id=stream_id, draw_counter=counter)
            replay = self.originals[attr](params, stream, *rest, **dict(kwargs, record=True))
            if replay.iterations != iterations:
                raise RuntimeError(f"{attr} replay took {replay.iterations} steps, not {iterations}")
            values = replay.trajectory.values
            accepted += sum(1 for a, b in zip(values, values[1:]) if a != b)
        return accepted

    def summary(self) -> dict:
        tracer = self.current
        durations = sorted(tracer.replication_s)
        total_replication = sum(durations)
        return {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "replication_p50_s": _quantile(durations, 0.50),
            "replication_p99_s": _quantile(durations, 0.99),
            "replications": len(durations),
            "pool_efficiency": (
                total_replication / self.pool_capacity_s if self.pool_capacity_s else 0.0
            ),
            "bilinear_accepted": self.replay_accepts(),
        }


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
