"""Output checks for the benchmark's CLI jobs.

Each ``check_*`` function parses one job's output text and returns a list
of problems; an empty list means the output is correct.  The net-benefit
oracle is plain numpy over the generated inputs, independent of ``nbvoi``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Absolute tolerance on point net benefit.  A reordered float sum over
# n <= 2e5 rows moves NB by ~1e-12 at most; one miscounted row moves it by
# at least min(1, z/(1-z)) / n, which is 5e-9 for z = 0.001, n = 2e5.
NB_ATOL = 1e-10
# Bootstrap EVPI and expected NB must agree with the asymptotic route within
# this many of the bootstrap's own Monte Carlo standard errors.
MC_SE_BOUND = 6.0
# Golden sweep values: a relative tolerance, plus an absolute one on the
# scale of net benefit (~0.1 here).  Each EVPI is a difference of two
# expected NBs, so a 1e-15 relative change in the NB and moment values
# (reordered arithmetic) moves it by ~1e-16 absolute, which is a large
# relative change on the rows whose EVPI is ~1e-11 or less.
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-13
GOLDEN_PATH = Path(__file__).with_name("golden_sweep_seed0.json")

EVPI_COLUMNS = ["threshold", "method", "evpi", "enb_current", "enb_perfect", "p_useful",
                "best_strategy", "r_evpi", "mc_se", "seed", "n_reps"]
DCA_COLUMNS = ["threshold", "nb_model", "nb_all", "nb_none", "nb_model_lo", "nb_model_hi",
               "nb_all_lo", "nb_all_hi", "degenerate"]
SWEEP_COLUMNS = ["size", "threshold", "method", "mean_evpi", "mc_se", "n_sims"]
EVPI_METHODS = ("bayesian_bootstrap", "ordinary_bootstrap", "asymptotic")


def oracle_nb(y: np.ndarray, risks: np.ndarray, z: float) -> tuple[float, float]:
    """(NB_model, NB_all) at threshold z from integer counts."""
    n = y.shape[0]
    events = y == 1
    flagged = risks >= z
    c = z / (1.0 - z)
    tp = int(np.count_nonzero(flagged & events))
    fp = int(np.count_nonzero(flagged & ~events))
    n_events = int(np.count_nonzero(events))
    return (tp - c * fp) / n, (n_events - c * (n - n_events)) / n


def _rows(text: str, columns: list[str], problems: list[str]) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames != columns:
        problems.append(f"columns {reader.fieldnames} != expected {columns}")
        return []
    return list(reader)


def _float(row: dict, col: str, problems: list[str]) -> float:
    try:
        v = float(row[col])
    except (TypeError, ValueError):
        problems.append(f"{col}={row.get(col)!r} is not a number in row {row}")
        return math.nan
    if not math.isfinite(v):
        problems.append(f"{col}={v} is not finite in row {row}")
    return v


def check_evpi(text: str, y, risks, thresholds, n_reps: int) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, EVPI_COLUMNS, problems)
    expected = [(z, m) for z in thresholds for m in EVPI_METHODS]
    got = [(float(r["threshold"]), r["method"]) for r in rows]
    if got != expected:
        problems.append(f"rows (threshold, method) {got} != expected {expected}")
        return problems
    by_key = {}
    for r in rows:
        v = {c: _float(r, c, problems) for c in ("evpi", "enb_current", "enb_perfect", "p_useful")}
        if v["evpi"] < 0:
            problems.append(f"negative EVPI in row {r}")
        if not 0.0 <= v["p_useful"] <= 1.0:
            problems.append(f"P(useful) outside [0, 1] in row {r}")
        if r["method"] != "asymptotic":
            v["mc_se"] = _float(r, "mc_se", problems)
            if v["mc_se"] < 0:
                problems.append(f"negative mc_se in row {r}")
            if r["n_reps"] != str(n_reps):
                problems.append(f"n_reps {r['n_reps']!r} != {n_reps} in row {r}")
        by_key[(float(r["threshold"]), r["method"])] = v
    for z in thresholds:
        asym = by_key[(z, "asymptotic")]
        nb_m, nb_a = oracle_nb(y, risks, z)
        if abs(asym["enb_current"] - max(0.0, nb_m, nb_a)) > NB_ATOL:
            problems.append(f"z={z}: asymptotic enb_current {asym['enb_current']!r} != "
                            f"oracle max(0, NB) {max(0.0, nb_m, nb_a)!r}")
        for method in EVPI_METHODS[:2]:
            boot = by_key[(z, method)]
            bound = MC_SE_BOUND * boot["mc_se"]
            for col in ("evpi", "enb_current"):
                if abs(boot[col] - asym[col]) > bound:
                    problems.append(f"z={z}: {method} {col} {boot[col]!r} differs from "
                                    f"asymptotic {asym[col]!r} by more than {MC_SE_BOUND} mc_se")
    return problems


def check_dca(text: str, y, risks, thresholds) -> list[str]:
    problems: list[str] = []
    rows = _rows(text, DCA_COLUMNS, problems)
    got = [float(r["threshold"]) for r in rows]
    if got != list(thresholds):
        problems.append(f"{len(got)} threshold rows, expected {len(thresholds)} "
                        f"({thresholds[0]}..{thresholds[-1]})")
        return problems
    for r, z in zip(rows, thresholds):
        v = {c: _float(r, c, problems) for c in DCA_COLUMNS[1:-1]}
        nb_m, nb_a = oracle_nb(y, risks, z)
        if abs(v["nb_model"] - nb_m) > NB_ATOL or abs(v["nb_all"] - nb_a) > NB_ATOL:
            problems.append(f"z={z}: NB ({v['nb_model']!r}, {v['nb_all']!r}) != "
                            f"oracle ({nb_m!r}, {nb_a!r})")
        if v["nb_none"] != 0.0:
            problems.append(f"z={z}: nb_none {v['nb_none']!r} != 0")
        for s in ("nb_model", "nb_all"):
            if not v[f"{s}_lo"] <= v[f"{s}_hi"]:
                problems.append(f"z={z}: {s} band lo > hi")
        degenerate = not bool(np.any(risks >= z))
        if r["degenerate"] != ("true" if degenerate else "false"):
            problems.append(f"z={z}: degenerate flag {r['degenerate']!r}, expected {degenerate}")
    return problems


def load_golden() -> list[list[float]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rows"]


def check_sweep(text: str, config: dict, golden=None) -> list[str]:
    """``golden``: rows ``[size, threshold, mean_evpi, mc_se]`` recorded
    from the same config, or None to skip the golden comparison."""
    problems: list[str] = []
    if f"# seed: {config['seed']}" not in text.splitlines():
        problems.append(f"missing '# seed: {config['seed']}' header line")
    rows = _rows(text, SWEEP_COLUMNS, problems)
    expected = [(s, z) for s in config["sizes"] for z in config["thresholds"]]
    got = [(int(r["size"]), float(r["threshold"])) for r in rows]
    if got != expected or any(r["method"] != "asymptotic" for r in rows):
        problems.append(f"{len(rows)} (size, threshold, method) rows do not match the "
                        f"{len(expected)} expected")
        return problems
    for r in rows:
        mean, se = _float(r, "mean_evpi", problems), _float(r, "mc_se", problems)
        if mean < 0 or se < 0:
            problems.append(f"negative mean EVPI or mc_se in row {r}")
        if r["n_sims"] != str(config["n_sims"]):
            problems.append(f"n_sims {r['n_sims']!r} != {config['n_sims']} in row {r}")
    if golden is not None:
        for r, (size, z, g_mean, g_se) in zip(rows, golden):
            for col, ref in (("mean_evpi", g_mean), ("mc_se", g_se)):
                if not math.isclose(float(r[col]), ref, rel_tol=GOLDEN_RTOL,
                                    abs_tol=GOLDEN_ATOL):
                    problems.append(f"size={size} z={z}: {col} {r[col]} != golden {ref!r}")
    return problems

