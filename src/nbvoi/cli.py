"""Command-line interface: ``nbvoi {dca, evpi, simulate, score}``.

Outputs are pure functions of the input files, flags, and seed; rerunning a
command reproduces its output byte for byte.  Exit codes: 0 success, 2
invalid input, 3 numeric failure.  Errors are written to stderr as single
JSON records.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys

from . import __version__
from .errors import InputError, NumericError
from .io import (
    decision_curve_payload,
    load_dataset,
    load_model_spec,
    render_csv,
    scored_sample,
    sweep_records,
    voi_record,
    voi_table,
    write_json,
)
from .netbenefit import (
    DEFAULT_MAX_THRESHOLD,
    Threshold,
    _whole,
    decision_curve,
    default_grid,
    make_thresholds,
)
from .resample import DEFAULT_N_REPS, bootstrap_nb_draws_grid, dump_draws
from .simlab import (
    LogisticDgm,
    SweepConfig,
    doubling_sizes,
    subsample_sweep,
    synthetic_sweep,
)
from .voi import ALL_METHODS, evpi_threshold_sweep

_CLI_METHODS = {"bayes": "bayesian", "ordinary": "ordinary", "asymptotic": "asymptotic"}
MAX_RANGE_THRESHOLDS = 100_000  # most thresholds in a 'start:stop:step' range: 500 default grids


def _parse_thresholds(spec: str | None, max_z: float) -> tuple[Threshold, ...]:
    """Parse '--thresholds': a comma list '0.01,0.02' or a range
    'start:stop:step' (inclusive)."""
    if spec is None:
        return default_grid()
    try:
        if ":" in spec:
            start, stop, step = (float(v) for v in spec.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step)) + 1
        else:
            values = [float(v) for v in spec.split(",") if v.strip()]
    except (ValueError, OverflowError):
        raise InputError(
            f"cannot parse thresholds {spec!r}; use 'a,b,c' or 'start:stop:step'"
        ) from None
    if ":" in spec:
        if count > MAX_RANGE_THRESHOLDS:
            raise InputError(f"threshold range {spec!r} spans {count} thresholds; "
                             f"at most {MAX_RANGE_THRESHOLDS} are allowed")
        values = [round(start + i * step, 12) for i in range(count)]
        values = [v for v in values if v <= stop + 1e-12]
    return make_thresholds(values, max_z=max_z)


def _load_sample(data, outcome, risk, model, delimiter=None):
    """The sample in the file ``data``: its ``outcome`` column with either
    the ``risk`` column or the risks the coefficient file ``model`` gives
    its features.  Exactly one of ``risk`` and ``model`` must be given."""
    if (risk is None) == (model is None):
        raise InputError("give exactly one of risk (a column of pre-computed risks) "
                         "and model (a coefficient file)")
    if risk is not None:
        return load_dataset(data, outcome_col=outcome, risk_col=risk, delimiter=delimiter)
    spec = load_model_spec(model)
    table = load_dataset(data, outcome_col=outcome, feature_cols=spec.columns,
                         delimiter=delimiter)
    return scored_sample(table, spec)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    import io as _io

    buf = _io.StringIO()
    write_json(payload, buf)
    return buf.getvalue()


def cmd_dca(args) -> int:
    sample = _load_sample(args.data, args.outcome, args.risk, args.model, args.delimiter)
    ts = _parse_thresholds(args.thresholds, args.max_threshold)
    curve = decision_curve(sample, ts, n_boot=args.n_reps, ci_level=args.ci_level,
                           method=_CLI_METHODS[args.method], seed=args.seed)
    if args.out == "json":
        payload = decision_curve_payload(curve)
        payload["n"] = sample.n
        payload["n_events"] = sample.n_events
        _emit(_json_text(payload), args.output)
    else:
        _emit(render_csv(curve.to_records()), args.output)
    return 0


def cmd_evpi(args) -> int:
    methods = ALL_METHODS if args.method == "all" else (_CLI_METHODS[args.method],)
    if args.dump_draws and methods == ("asymptotic",):
        raise InputError("--dump-draws needs a bootstrap method: bayes, ordinary or all")
    sample = _load_sample(args.data, args.outcome, args.risk, args.model, args.delimiter)
    ts = _parse_thresholds(args.thresholds, args.max_threshold)
    rows = evpi_threshold_sweep(sample, ts, methods, args.n_reps, args.seed)
    # EVPI holds no draws: a dump draws them again from the same substreams.
    for method in [m for m in methods if m != "asymptotic"] if args.dump_draws else []:
        draws = bootstrap_nb_draws_grid(sample, ts, args.n_reps, method, args.seed)
        for i, t in enumerate(ts):
            dump_draws(draws[:, i], f"{args.dump_draws}_{method}_z{t.z!r}.csv")
        del draws  # before the next method's draws are made
    records = [voi_record(t, r, population=args.population) for t, r in rows]

    if args.strict:
        for rec in records:
            se, evpi = rec.get("mc_se"), rec["evpi"]
            if se is not None and se > 0.1 * evpi:
                sys.stderr.write(json.dumps({
                    "warning": "mc_se_exceeds_10pct_of_evpi",
                    "threshold": rec["threshold"], "method": rec["method"],
                    "evpi": evpi, "mc_se": se,
                }, sort_keys=True) + "\n")

    if args.out == "json":
        payload = {
            "n": sample.n, "n_events": sample.n_events, "seed": args.seed,
            "n_reps": args.n_reps, "population": args.population, "rows": records,
        }
        _emit(_json_text(payload), args.output)
    elif args.out == "csv":
        _emit(render_csv(records), args.output)
    else:
        _emit(voi_table(records, population=args.population), args.output)
    return 0


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sweep_setup(raw: dict, workers: int | None):
    """The sweep a ``simulate`` config asks for: ``(cfg, dgm, dataset)``, with
    ``dgm`` None for a subsample sweep and ``dataset`` None otherwise."""
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in ("synthetic", "subsample"):
        raise InputError("config 'kind' must be 'synthetic' or 'subsample'")
    # Keys the config leaves out take SweepConfig's defaults.
    common = {k: raw[k] for k in ("n_sims", "n_reps", "seed") if k in raw}
    common["thresholds"] = make_thresholds(
        raw.get("thresholds", [0.1, 0.2, 0.3]),
        max_z=raw.get("max_threshold", DEFAULT_MAX_THRESHOLD),
    )
    if "methods" in raw:  # only a list's names get the aliases; SweepConfig checks the rest
        m = raw["methods"]
        common["methods"] = (tuple(_CLI_METHODS.get(k, k) if isinstance(k, str) else k for k in m)
                             if isinstance(m, list) else m)
    if workers is not None or "workers" in raw:
        common["n_workers"] = _whole(raw["workers"] if workers is None else workers,
                                     "config field 'workers'")
    sizes = raw.get("sizes")

    if kind == "synthetic":
        dgm_raw = raw.get("dgm")
        if not isinstance(dgm_raw, dict):
            raise InputError("synthetic config requires a 'dgm' object")
        dgm = LogisticDgm(intercept=dgm_raw.get("intercept", 0.0),
                          slopes=dgm_raw.get("slopes", ()))
        if sizes is None:
            raise InputError("synthetic config requires 'sizes'")
        return SweepConfig(sizes=sizes, **common), dgm, None

    if "data" not in raw or "outcome" not in raw:
        raise InputError("subsample config requires 'data' and 'outcome'")
    dataset = _load_sample(raw["data"], raw["outcome"], raw.get("risk"), raw.get("model"))
    if sizes is None:
        sizes = doubling_sizes(dataset.n)
    return SweepConfig(sizes=sizes, **common), None, dataset


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from None

    try:
        cfg, dgm, dataset = _sweep_setup(raw, args.workers)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid config value: {exc}") from None
    result = synthetic_sweep(dgm, cfg) if dgm is not None else subsample_sweep(dataset, cfg)

    comments = [
        f"nbvoi {__version__}",
        f"seed: {cfg.seed}",
        f"config sha256: {_config_hash(raw)}",
    ]
    _emit(render_csv(sweep_records(result), comments=comments), args.output)
    return 0


def cmd_score(args) -> int:
    sample = _load_sample(args.data, args.outcome, None, args.model, args.delimiter)
    records = [
        {args.outcome: int(y), "risk": float(r)}
        for y, r in zip(sample.outcomes, sample.risks)
    ]
    _emit(render_csv(records), args.output)
    return 0


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="delimited text file with a header row")
    p.add_argument("--outcome", required=True, help="binary 0/1 outcome column")
    p.add_argument("--risk", help="column of pre-computed predicted risks")
    p.add_argument("--model", help="JSON coefficient file used to score feature columns")
    p.add_argument("--delimiter", help="field delimiter (default: auto-detect comma/tab)")


def _add_analysis_args(p: argparse.ArgumentParser, methods: list[str], default: str,
                       outs: list[str]) -> None:
    p.add_argument("--thresholds", help="'a,b,c' or 'start:stop:step' (default 0.001:0.2:0.001)")
    p.add_argument("--max-threshold", type=float, default=DEFAULT_MAX_THRESHOLD,
                   help="reject thresholds at or above this value (default 0.99)")
    p.add_argument("--n-reps", type=int, default=DEFAULT_N_REPS,
                   help="bootstrap replicates (default 10000)")
    p.add_argument("--method", choices=methods, default=default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", choices=outs, default=outs[0])
    p.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbvoi",
        description="Net benefit, decision curves, and validation EVPI.",
    )
    parser.add_argument("--version", action="version", version=f"nbvoi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dca", help="decision curve with bootstrap confidence bands")
    _add_data_args(p)
    _add_analysis_args(p, ["bayes", "ordinary"], "ordinary", ["csv", "json"])
    p.add_argument("--ci-level", type=float, default=0.95)
    p.set_defaults(func=cmd_dca)

    p = sub.add_parser("evpi", help="expected value of perfect information per threshold")
    _add_data_args(p)
    _add_analysis_args(p, ["bayes", "ordinary", "asymptotic", "all"], "all",
                       ["table", "csv", "json"])
    p.add_argument("--population", type=float,
                   help="decisions per period; adds population-scaled TP/FP equivalents")
    p.add_argument("--dump-draws", metavar="PREFIX",
                   help="write per-replicate NB draws to PREFIX_<method>_z<z>.csv")
    p.add_argument("--strict", action="store_true",
                   help="warn on stderr when MC SE exceeds 10%% of EVPI")
    p.set_defaults(func=cmd_evpi)

    p = sub.add_parser("simulate", help="run a sample-size sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (overrides config; results are identical)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", help="apply a coefficient file to feature columns")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--delimiter")
    p.add_argument("--output")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        message, row = str(exc), exc.row
    except OSError as exc:
        if exc.filename is None:  # not a file the command line or a config named
            raise
        message, row = f"cannot open {exc.filename}: {exc.strerror}", None
    except NumericError as exc:
        sys.stderr.write(json.dumps(
            {"error": "numeric", "message": str(exc)}, sort_keys=True
        ) + "\n")
        return 3
    sys.stderr.write(json.dumps(
        {"error": "input", "message": message, "row": row}, sort_keys=True
    ) + "\n")
    return 2


def run() -> int:
    """The command line's entry, ``nbvoi`` and ``python -m nbvoi.cli``:
    :func:`main`, after which every object still alive is frozen out of the
    cyclic collector, so the interpreter's exit does not traverse them in
    its collections.  Flushing, atexit handlers, the exit code and
    tracebacks are those of :func:`main`."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
