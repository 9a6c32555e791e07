"""Traced run of one CLI job, and the per-layer metrics derived from it.

Run as a script, this module imports ``nbvoi.cli``, wraps the public
functions listed in ``TARGETS`` and calls ``nbvoi.cli.main(argv)`` in the
same process.  Each wrapped call records a span (name, start, end, parent)
in memory; the spans and a few derived counters are written to a file when
the job has finished::

    python3 bench/tracer.py SPANS_FILE -- evpi --data ... --output ...

Nothing under ``src/`` is changed: a wrapper replaces every binding of the
original function in the loaded ``nbvoi`` modules, because ``from .x import
f`` copies the name into the caller's module (``nbvoi.voi.moments`` calls
``nbvoi.voi.nb_model``, not ``nbvoi.netbenefit.nb_model``).

``layer_metrics`` turns a spans file into the per-layer metrics.  Self time
is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions timed per module (layer) of ``nbvoi``.  A name missing
# from the program is skipped and reported, so its metrics read 0.
TARGETS = {
    "cli": ("main",),
    "io": ("load_dataset", "render_csv", "voi_record", "voi_table", "write_json",
           "decision_curve_payload", "sweep_records"),
    "netbenefit": ("nb_model", "nb_all", "decision_curve"),
    "rng": ("substream",),
    "resample": ("bootstrap_nb_draws_grid",),
    "voi": ("evpi_threshold_sweep", "evpi_bootstrap", "moments", "evpi_asymptotic"),
    "bvn": ("e_max_zero_bvn", "p_first_positive_max"),
    "simlab": ("generate_synthetic", "synthetic_sweep"),
}
LAYERS = ("import",) + tuple(TARGETS)
WRITERS = ("render_csv", "voi_record", "voi_table", "write_json",
           "decision_curve_payload", "sweep_records")

# Replicates per weight block of the seed-commit bootstrap; used only to
# compute resample.bytes_computed from array shapes.
WEIGHT_BLOCK_ROWS = 512

# Per-layer metrics: name -> (unit, better).  The order is the print order.
PER_LAYER = {
    "import.nbvoi_s": ("s", "lower"),
    "import.scipy_stats_s": ("s", "lower"),
    "io.load_dataset.self_s": ("s", "lower"),
    "io.rows_parsed": ("count", "higher"),
    "io.rows_per_s": ("1/s", "higher"),
    "io.writers.self_s": ("s", "lower"),
    "netbenefit.nb_model.calls": ("count", "lower"),
    "netbenefit.nb_all.calls": ("count", "lower"),
    "netbenefit.point.self_s": ("s", "lower"),
    "netbenefit.rows_scanned": ("count", "lower"),
    "netbenefit.decision_curve.self_s": ("s", "lower"),
    "rng.substream.calls": ("count", "lower"),
    "rng.substream.self_s": ("s", "lower"),
    "resample.bootstrap_nb_draws_grid.calls": ("count", "lower"),
    "resample.bootstrap_nb_draws_grid.self_s": ("s", "lower"),
    "resample.variates_drawn": ("count", "lower"),
    "resample.matmul_flops": ("flop", "lower"),
    "resample.bytes_computed": ("B", "lower"),
    "voi.evpi_threshold_sweep.self_s": ("s", "lower"),
    "voi.evpi_bootstrap.calls": ("count", "lower"),
    "voi.evpi_bootstrap.self_s": ("s", "lower"),
    "voi.moments.calls": ("count", "lower"),
    "voi.moments.self_s": ("s", "lower"),
    "voi.evpi_asymptotic.calls": ("count", "lower"),
    "voi.evpi_asymptotic.self_s": ("s", "lower"),
    "bvn.e_max_zero_bvn.calls": ("count", "lower"),
    "bvn.e_max_zero_bvn.self_s": ("s", "lower"),
    "bvn.p_first_positive_max.calls": ("count", "lower"),
    "bvn.p_first_positive_max.self_s": ("s", "lower"),
    "bvn.us_per_call": ("us", "lower"),
    "simlab.generate_synthetic.self_s": ("s", "lower"),
    "simlab.synthetic_sweep.self_s": ("s", "lower"),
    "simlab.cells": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("fraction", "higher"),
}

_COUNTERS = ("io.rows_parsed", "netbenefit.rows_scanned", "resample.variates_drawn",
             "resample.matmul_flops", "resample.bytes_computed")


def _sample_n(args, kwargs) -> int:
    return (args[0] if args else kwargs["sample"]).n


def _count(name: str, args, kwargs, result, counters: dict) -> None:
    """Work counts read from a call's arguments and result."""
    if name == "io.load_dataset":
        counters["io.rows_parsed"] += result.n
    elif name in ("netbenefit.nb_model", "netbenefit.nb_all"):
        counters["netbenefit.rows_scanned"] += _sample_n(args, kwargs)
    elif name == "resample.bootstrap_nb_draws_grid":
        n = _sample_n(args, kwargs)
        reps, t, s = result.draws.shape
        counters["resample.variates_drawn"] += reps * n
        counters["resample.matmul_flops"] += 2 * reps * n * t * s
        # Computed, not measured: the (n, T, S) term tensor, one weight
        # block and the (N, T, S) draws, 8 bytes per float.
        counters["resample.bytes_computed"] += 8 * (
            n * t * s + min(WEIGHT_BLOCK_ROWS, reps) * n + reps * t * s
        )


_COUNTED = {"io.load_dataset", "netbenefit.nb_model", "netbenefit.nb_all",
            "resample.bootstrap_nb_draws_grid"}


class Tracer:
    """In-memory span recorder.  A span is ``[name_index, start, end, parent]``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.uncounted: set[str] = set()  # calls whose arguments or result had another shape
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = name in _COUNTED
        counters, uncounted = self.counters, self.uncounted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                try:
                    _count(name, args, kwargs, result, counters)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    uncounted.add(name)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target in every loaded ``nbvoi`` module; returns the
        targets the program does not have."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nbvoi" or key.startswith("nbvoi."))]
        missing = []
        for layer, funcs in TARGETS.items():
            home = sys.modules.get(f"nbvoi.{layer}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    missing.append(f"{layer}.{func}")
                    continue
                wrapped = self.wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapped)
        return missing


def _main(argv: list[str]) -> int:
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- CLI_ARGS...")
    t0 = time.perf_counter()
    import nbvoi.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = tracer.install()
    t1 = time.perf_counter()
    rc = nbvoi.cli.main(cli_argv)
    main_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    payload = json.dumps({
        "names": tracer.names, "spans": tracer.spans, "counters": tracer.counters,
        "missing": missing, "uncounted": sorted(tracer.uncounted),
        "import_s": import_s, "main_s": main_s, "rc": rc,
    }, separators=(",", ":"))
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
        fh.write(json.dumps({"dump_s": time.perf_counter() - t2}) + "\n")
    return rc


def read_spans(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.loads(fh.readline())
        record.update(json.loads(fh.readline()))
    return record


def aggregate(record: dict) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in record["names"]}
    for (name_id, start, end, _), child_s in zip(spans, covered):
        s = stats[record["names"][name_id]]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_s
    return stats


def layer_metrics(record: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job whose spawn-to-exit time was
    ``wall_s``; ``import.*`` and ``trace.overhead_s`` are filled in by the
    caller from other runs."""
    stats = aggregate(record)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return stats.get(name, zero)

    m = {name: 0.0 for name in PER_LAYER}
    for name, s in stats.items():
        m[f"layer.{name.split('.')[0]}.self_s"] += s["self_s"]
        for field in ("calls", "self_s"):
            if f"{name}.{field}" in m:
                m[f"{name}.{field}"] = s[field]
    m["layer.import.self_s"] = record["import_s"]
    m.update({k: float(v) for k, v in record["counters"].items()})

    load = get("io.load_dataset")
    m["io.rows_per_s"] = m["io.rows_parsed"] / load["total_s"] if load["total_s"] > 0 else 0.0
    m["io.writers.self_s"] = sum(get(f"io.{w}")["self_s"] for w in WRITERS)
    m["netbenefit.point.self_s"] = (get("netbenefit.nb_model")["self_s"]
                                    + get("netbenefit.nb_all")["self_s"])
    bvn = [get("bvn.e_max_zero_bvn"), get("bvn.p_first_positive_max")]
    bvn_calls = sum(s["calls"] for s in bvn)
    m["bvn.us_per_call"] = 1e6 * sum(s["self_s"] for s in bvn) / bvn_calls if bvn_calls else 0.0
    m["simlab.cells"] = get("simlab.generate_synthetic")["calls"]
    # Share of the traced job's wall time that its two top-level spans
    # (package import, cli.main) cover; the rest is interpreter start and
    # exit.  The span dump after main is excluded.
    m["trace.coverage"] = (record["import_s"] + record["main_s"]) / (wall_s - record["dump_s"])
    return {k: float(v) for k, v in m.items()}


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
