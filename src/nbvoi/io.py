"""Dataset ingestion, model scoring from coefficient files, and writers.

Input datasets are delimited text files with a header row; the delimiter is
auto-detected between comma and tab (overridable).  A model is a small JSON
file of logistic coefficients:

    {"intercept": -2.084, "terms": {"age": 0.078, "pulse": 0.018}}

``terms`` may also be a list of ``[name, coefficient]`` pairs.  Nonlinear
transforms (caps, splines, interactions) are expected to be precomputed
into their own columns upstream; scoring applies the inverse logit to the
linear predictor, nothing more.

All writers emit full-precision floats (shortest round-trip repr) so that
identical analyses produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .netbenefit import DecisionCurve, Threshold, ValidationSample, _real
from .voi import population_scaled


@dataclass(frozen=True)
class ModelSpec:
    """Logistic model coefficients: intercept plus ordered (column,
    coefficient) terms; each coefficient is a finite int or float, not a bool."""

    intercept: float
    terms: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "intercept", _real(self.intercept, "model 'intercept'"))
        object.__setattr__(self, "terms", tuple(
            (str(c), _real(v, f"model coefficient of {c!r}")) for c, v in self.terms))
        names = [c for c, _ in self.terms]
        if len(set(names)) != len(names):
            raise InputError("model term column names must be unique")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.terms)


def load_model_spec(path) -> ModelSpec:
    """Read a ModelSpec from a JSON file (:class:`OSError` if it cannot be
    opened)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or "intercept" not in raw:
        raise InputError("model file must be a JSON object with an 'intercept' key")
    terms = raw.get("terms", {})
    pairs = list(terms.items()) if isinstance(terms, dict) else terms
    if not (isinstance(pairs, list)
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)):
        raise InputError("'terms' must be an object or a list of [name, coefficient] pairs")
    return ModelSpec(intercept=raw["intercept"], terms=tuple(pairs))


@dataclass(frozen=True)
class FeatureTable:
    """Numeric feature columns plus the outcome vector, pre-scoring."""

    columns: dict[str, np.ndarray]
    outcomes: np.ndarray

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _parse_outcome(value: str) -> int:
    v = value.strip()
    if v == "0" or v == "1":
        return int(v)
    try:
        f = float(v)
    except ValueError:
        raise InputError(f"outcome value {value!r} is not binary 0/1") from None
    if f == 0.0 or f == 1.0:
        return int(f)
    raise InputError(f"outcome value {value!r} is not binary 0/1")


def _parse_float(value: str, column: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise InputError(f"non-numeric value {value!r} in column {column!r}") from None
    if not math.isfinite(v):
        raise InputError(f"non-finite value {value!r} in column {column!r}")
    return v


def load_dataset(
    path,
    outcome_col: str,
    risk_col: str | None = None,
    feature_cols=None,
    delimiter: str | None = None,
):
    """Load a delimited text file into a ValidationSample or FeatureTable.

    Exactly one of ``risk_col`` (pre-computed predicted risks) or
    ``feature_cols`` (raw features to be scored with a ModelSpec) must be
    given.  Row numbers in error messages are 1-based file line numbers
    (the header is line 1; a record spanning lines has its last).  A leading
    UTF-8 byte-order mark is skipped, and the first line that is not UTF-8
    is an error.  A file that cannot be opened raises :class:`OSError`.
    """
    if (risk_col is None) == (feature_cols is None):
        raise InputError("provide exactly one of risk_col or feature_cols")
    if delimiter and len(delimiter) != 1:
        raise InputError(f"delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            first = fh.readline()
            if not first.strip():
                raise InputError(f"file {path} is empty")
            delim = delimiter or _sniff_delimiter(first)
            try:
                header = [h.strip() for h in next(csv.reader([first], delimiter=delim))]
            except csv.Error as exc:
                raise InputError(str(exc), row=1) from None
            wanted = [outcome_col] + ([risk_col] if risk_col is not None else list(feature_cols))
            for col in wanted:
                if col not in header:
                    raise InputError(
                        f"column {col!r} not found in header {header} of {path}"
                    )
            idx = {col: header.index(col) for col in wanted}
            outcomes: list[int] = []
            values: dict[str, list[float]] = {c: [] for c in wanted[1:]}
            reader = csv.reader(fh, delimiter=delim)
            try:
                for record in reader:
                    if not record or (len(record) == 1 and not record[0].strip()):
                        continue
                    if len(record) < len(header):
                        raise InputError(f"expected {len(header)} fields, found {len(record)}")
                    outcomes.append(_parse_outcome(record[idx[outcome_col]]))
                    for col in wanted[1:]:
                        v = _parse_float(record[idx[col]], col)
                        if col == risk_col and not 0.0 <= v <= 1.0:
                            raise InputError(f"risk {record[idx[col]]!r} outside [0, 1]")
                        values[col].append(v)
            except (InputError, csv.Error) as exc:  # line_num counts the lines after the header
                raise InputError(str(exc), row=reader.line_num + 1) from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # no UTF-8 sequence holds a newline byte
            row = next((i for i, line in enumerate(fh, start=1)
                        if line.decode("utf-8", "ignore").encode("utf-8") != line), None)
        raise InputError(f"file {path} is not UTF-8 text", row=row) from None
    if not outcomes:
        raise InputError(f"file {path} contains a header but no data rows")

    y = np.array(outcomes, dtype=np.int64)
    if risk_col is not None:
        return ValidationSample(y, np.array(values[risk_col]))
    return FeatureTable(
        columns={c: np.array(values[c]) for c in feature_cols}, outcomes=y
    )


def _expit(x: np.ndarray) -> np.ndarray:
    """The inverse logit 1 / (1 + exp(-x)), elementwise.  Below x = -708,
    where exp(-x) nears the largest double, it is exp(x), equal to the
    inverse logit in double precision, so nothing overflows."""
    x = np.asarray(x, dtype=float)
    low = x < -708.0
    out = 1.0 / (1.0 + np.exp(-np.where(low, 0.0, x)))
    out[low] = np.exp(x[low])
    return out


def score(features: FeatureTable, spec: ModelSpec) -> np.ndarray:
    """Predicted risks from a logistic coefficient spec: inverse-logit of
    the linear predictor.  Saturates smoothly at 0 and 1 for extreme
    predictors."""
    lp = np.full(features.n, spec.intercept, dtype=float)
    for col, coef in spec.terms:
        if col not in features.columns:
            raise InputError(f"model term column {col!r} is missing from the data")
        lp += coef * features.columns[col]
    return _expit(lp)


def scored_sample(features: FeatureTable, spec: ModelSpec) -> ValidationSample:
    return ValidationSample(features.outcomes, score(features, spec))


# --------------------------------------------------------------------------
# Writers.  Full-precision floats; '\n' line endings; key order fixed.

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_json(payload: dict, stream) -> None:
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def decision_curve_payload(curve: DecisionCurve) -> dict:
    return {
        "ci_level": curve.ci_level,
        "n_boot": curve.n_boot,
        "method": curve.method,
        "seed": curve.seed,
        "rows": curve.to_records(),
    }


def voi_record(t: Threshold, result, population: float | None = None) -> dict:
    """The output record of a one-threshold ``voi.VoiResult``: its threshold,
    then the result's fields in their declared order, then the
    population-scaled TP and FP equivalents when ``population`` is given."""
    rec = {"threshold": t.z, **vars(result)}
    if population is not None:
        rec["tp_equivalents"], rec["fp_equivalents"] = population_scaled(
            rec["evpi"], population, t)
    return rec


def voi_table(records: list[dict], population: float | None = None) -> str:
    """Human-readable table, values rounded to 4 decimals."""
    cols = ["threshold", "method", "evpi", "r_evpi", "p_useful", "best_strategy", "mc_se"]
    if population is not None:
        cols += ["tp_equivalents", "fp_equivalents"]
    header = {
        "threshold": "z", "method": "method", "evpi": "EVPI", "r_evpi": "rEVPI",
        "p_useful": "P(useful)", "best_strategy": "best", "mc_se": "MC-SE",
        "tp_equivalents": "pop TP", "fp_equivalents": "pop FP",
    }

    def cell(rec, c):
        v = rec.get(c)
        if v is None:
            return "-"
        if isinstance(v, (float, np.floating)):
            return f"{v:.4f}"
        return str(v)

    table = [[header[c] for c in cols]] + [[cell(r, c) for c in cols] for r in records]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def sweep_records(result) -> list[dict]:
    """One record per row of a ``simlab.SweepResult``, keyed by field."""
    return [asdict(r) for r in result.rows]


def render_csv(records: list[dict], comments: list[str] | None = None) -> str:
    """Homogeneous dict records as CSV text, after optional '#' header lines."""
    lines = [f"# {line}" for line in comments or []]
    if records:
        cols = list(records[0].keys())
        lines.append(",".join(cols))
        lines.extend(",".join("" if rec[c] is None else _fmt(rec[c]) for c in cols)
                     for rec in records)
    return "".join(f"{line}\n" for line in lines)
