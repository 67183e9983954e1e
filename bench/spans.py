"""In-memory span recorder and the per-layer table derived from it.

Spans come only from this directory: ``Tracer.install`` rebinds public names
of the ``influence_market`` package (module-level functions in every module
namespace that holds them, and methods on their classes) to timing wrappers,
and ``Tracer.uninstall`` puts the originals back.  No file of the package is
changed, and an untraced iteration runs with nothing rebound.

A span is (name, start, end, parent).  Spans nest because the benchmark runs
one caller on one thread, so a stack gives each span its parent, and a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

import influence_market
from influence_market import agents, dataio, influence, mechanism, mixture, regression

PACKAGE_MODULES = (
    influence_market,
    regression,
    influence,
    mechanism,
    mixture,
    agents,
    dataio,
)


def _rows(result, args, kwargs):
    return len(result)


def _bytes_written(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _run_mode(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.mode


# (owner, attributes, work count of one call or None).  The owner is a module
# (each name is rebound in every package module that holds the same object)
# or a class (the attribute is rebound on the class).
TARGETS = (
    (regression.Dataset, ("subset", "extended", "from_points"), _rows),
    (regression, ("fit", "risk"), None),
    (influence, ("exact_influences", "first_order_influences", "second_order_influences"), _rows),
    (mechanism, ("run_mechanism",), None),
    (
        mechanism.PaymentLedger,
        ("summary", "rows", "to_csv", "payments_by_agent", "batch_mean_influences"),
        None,
    ),
    (
        agents,
        (
            "generate_world",
            "build_population",
            "report_stream",
            "independent_test_set",
            "truthful_report",
            "heuristic_report",
            "best_response_check",
        ),
        None,
    ),
    (mixture, ("correction_inclusive", "correction_exclusive"), None),
    (dataio, ("load_csv",), _rows),
    (dataio, ("load_csv_with_stats", "read_results"), None),
    (dataio, ("write_results",), _bytes_written),
)


def span_name(owner, attr: str) -> str:
    """``<module>.<attr>`` or ``<module>.<Class>.<attr>``, e.g. ``regression.fit``."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


ITERATION = "iteration"


class Tracer:
    """Records spans into flat arrays; one instance per benchmark run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.iteration = array("l")
        self.notes: dict = {}  # span id -> extra counts of rare spans
        self._stack: list = []
        self._iteration = -1
        self._patches: list = []
        self._clock = time.perf_counter

    # -- recording -----------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0.0)
        self.iteration.append(self._iteration)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self._clock()
        self._stack.pop()

    def begin_iteration(self, index: int) -> int:
        self._iteration = index
        return self.open(ITERATION)

    # -- rebinding -----------------------------------------------------------

    def _wrap(self, fn, name, count, mode_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{mode_of(args, kwargs)}" if mode_of else name
            sid = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                tracer.count[sid] = count(result, args, kwargs)
            if mode_of is not None:
                tracer.notes[sid] = {
                    "batches": len(result.risk_trace) - 1,
                    "entries": len(result.entries),
                }
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attrs, count in TARGETS:
            for attr in attrs:
                self._rebind(owner, attr, count)

    def _rebind(self, owner, attr: str, count) -> None:
        name = span_name(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, count))
            else:
                wrapped = self._wrap(original, name, count)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        mode_of = _run_mode if attr == "run_mechanism" else None
        wrapped = self._wrap(original, name, count, mode_of)
        for module in PACKAGE_MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.float64),
            "iteration": np.frombuffer(self.iteration, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(path, **self.arrays())


# -- per-layer table -----------------------------------------------------------

DATASET_OPS = (
    "regression.Dataset.subset",
    "regression.Dataset.extended",
    "regression.Dataset.from_points",
)
LEDGER_OPS = (
    "mechanism.PaymentLedger.summary",
    "mechanism.PaymentLedger.rows",
    "mechanism.PaymentLedger.to_csv",
    "mechanism.PaymentLedger.payments_by_agent",
    "mechanism.PaymentLedger.batch_mean_influences",
)
GENERATE_OPS = (
    "agents.generate_world",
    "agents.build_population",
    "agents.report_stream",
    "agents.independent_test_set",
    "agents.truthful_report",
    "agents.heuristic_report",
)
REPORT_OPS = ("agents.truthful_report", "agents.heuristic_report")
KERNELS = (
    "influence.exact_influences",
    "influence.first_order_influences",
    "influence.second_order_influences",
)
CORRECTIONS = ("mixture.correction_inclusive", "mixture.correction_exclusive")
MODES = ("inclusive", "exclusive")

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = {
    "regression.dataset_s": "s",
    "regression.dataset_calls": "count",
    "regression.rows_built": "count",
    "regression.fit_s": "s",
    "regression.fit_calls": "count",
    "regression.risk_s": "s",
    "regression.risk_calls": "count",
    "influence.exact_s": "s",
    "influence.first_order_s": "s",
    "influence.second_order_s": "s",
    "influence.points_scored": "count",
    "influence.exact_points_per_s": "1/s",
    **{
        f"mechanism{scope}.{metric}": unit
        for scope in ("", ".inclusive", ".exclusive")
        for metric, unit in (
            ("run_s", "s"),
            ("self_s", "s"),
            ("batches", "count"),
            ("per_batch_ms", "ms"),
            ("fits_per_batch", "ratio"),
            ("rows_built_per_report", "ratio"),
        )
    },
    "mechanism.ledger_s": "s",
    "agents.generate_s": "s",
    "agents.best_response_s": "s",
    "agents.reports_built": "count",
    "mixture.correction_s": "s",
    "mixture.correction_calls": "count",
    "dataio.load_s": "s",
    "dataio.rows_loaded": "count",
    "dataio.write_s": "s",
    "dataio.bytes_written": "bytes",
    "dataio.read_s": "s",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _iteration_metrics(spans: dict, mask: np.ndarray, notes: dict) -> dict:
    """Layer metrics of one traced iteration (spans selected by ``mask``)."""
    names = list(spans["names"])
    ids = np.flatnonzero(mask)
    nid = spans["name_id"][ids]
    start = spans["start"][ids]
    end = spans["end"][ids]
    dur = end - start
    count = spans["count"][ids]
    parent = spans["parent"][ids]
    # Self time: subtract each span's duration from its parent's.
    self_t = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(self_t, np.searchsorted(ids, parent[has_parent]), dur[has_parent])

    def select(span_names):
        return np.isin(nid, [names.index(n) for n in span_names if n in names])

    def self_of(*span_names):
        return float(self_t[select(span_names)].sum())

    def calls(*span_names):
        return float(select(span_names).sum())

    def counted(*span_names):
        return float(count[select(span_names)].sum())

    out = {
        "regression.dataset_s": self_of(*DATASET_OPS),
        "regression.dataset_calls": calls(*DATASET_OPS),
        "regression.rows_built": counted(*DATASET_OPS),
        "regression.fit_s": self_of("regression.fit"),
        "regression.fit_calls": calls("regression.fit"),
        "regression.risk_s": self_of("regression.risk"),
        "regression.risk_calls": calls("regression.risk"),
        "influence.exact_s": self_of("influence.exact_influences"),
        "influence.first_order_s": self_of("influence.first_order_influences"),
        "influence.second_order_s": self_of("influence.second_order_influences"),
        "influence.points_scored": counted(*KERNELS),
        "mechanism.ledger_s": self_of(*LEDGER_OPS),
        "agents.generate_s": self_of(*GENERATE_OPS),
        "agents.best_response_s": self_of("agents.best_response_check"),
        "agents.reports_built": calls(*REPORT_OPS),
        "mixture.correction_s": self_of(*CORRECTIONS),
        "mixture.correction_calls": calls(*CORRECTIONS),
        "dataio.load_s": self_of("dataio.load_csv", "dataio.load_csv_with_stats"),
        "dataio.rows_loaded": counted("dataio.load_csv"),
        "dataio.write_s": self_of("dataio.write_results"),
        "dataio.bytes_written": counted("dataio.write_results"),
        "dataio.read_s": self_of("dataio.read_results"),
    }
    out["influence.exact_points_per_s"] = _ratio(
        counted("influence.exact_influences"), out["influence.exact_s"]
    )

    # Mechanism runs: a span lies inside a run when its interval does.
    fit_sel = select(("regression.fit",))
    dataset_sel = select(DATASET_OPS)
    runs = {}
    for mode in MODES:
        run = dict.fromkeys(("run_s", "self_s", "batches", "entries", "fits", "rows"), 0.0)
        for k in np.flatnonzero(select((f"mechanism.run_mechanism.{mode}",))):
            inside = (start >= start[k]) & (end <= end[k])
            inside[k] = False
            note = notes[int(ids[k])]
            run["run_s"] += float(dur[k])
            run["self_s"] += float(self_t[k])
            run["batches"] += note["batches"]
            run["entries"] += note["entries"]
            run["fits"] += float(np.sum(inside & fit_sel))
            run["rows"] += float(count[inside & dataset_sel].sum())
        runs[f".{mode}"] = run
    runs[""] = {key: runs[".inclusive"][key] + runs[".exclusive"][key] for key in run}
    for scope, run in runs.items():
        out[f"mechanism{scope}.run_s"] = run["run_s"]
        out[f"mechanism{scope}.self_s"] = run["self_s"]
        out[f"mechanism{scope}.batches"] = run["batches"]
        out[f"mechanism{scope}.per_batch_ms"] = 1e3 * _ratio(run["run_s"], run["batches"])
        out[f"mechanism{scope}.fits_per_batch"] = _ratio(run["fits"], run["batches"])
        out[f"mechanism{scope}.rows_built_per_report"] = _ratio(run["rows"], run["entries"])
    return out


def layer_table(spans: dict, notes: dict, overhead_frac: float) -> dict:
    """Per-layer metrics: the median over traced iterations of each
    per-iteration value, plus the tracing overhead."""
    iteration = spans["iteration"]
    per_iteration = [
        _iteration_metrics(spans, iteration == i, notes)
        for i in np.unique(iteration[iteration >= 0])
    ]
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_frac":
            value = overhead_frac
        else:
            value = float(np.median([m[name] for m in per_iteration]))
        out[name] = {"value": value, "unit": unit}
    return out
