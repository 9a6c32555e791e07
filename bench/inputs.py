"""Seeded input generation for the benchmark workloads.

Inputs are drawn with the benchmark's own numpy code from the reference
mechanism logit p = -1.55 + 0.77 x, x ~ N(0, 1), never through
``nbvoi.generate_synthetic``, so a change to the program cannot change what
it is fed.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

INTERCEPT = -1.55
SLOPE = 0.77

REGISTRY_ROWS = 200_000
DCA_ROWS = 2_000
SWEEP_SIZES = (250, 500, 1000, 2000, 4000, 8000)
SWEEP_THRESHOLDS = tuple(round(i / 100, 2) for i in range(1, 31))
SWEEP_N_SIMS = 100

# One independent stream per input file, keyed after the workload seed.
_STREAM_IDS = {"registry": 0, "dca": 1}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _STREAM_IDS[stream]])))


def synthetic_rows(seed: int, stream: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and true risks of ``n`` rows from the reference mechanism."""
    rng = _rng(seed, stream)
    x = rng.standard_normal(n)
    risks = 1.0 / (1.0 + np.exp(-(INTERCEPT + SLOPE * x)))
    y = (rng.random(n) < risks).astype(np.int64)
    return y, risks


def write_risk_csv(path: Path, y: np.ndarray, risks: np.ndarray) -> None:
    # repr(float(p)): under numpy 2 the repr of a numpy scalar is
    # 'np.float64(...)', which the CLI rejects as non-numeric.
    lines = ["y,p"]
    lines.extend(f"{int(v)},{float(p)!r}" for v, p in zip(y.tolist(), risks.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_config(seed: int) -> dict:
    return {
        "kind": "synthetic",
        "dgm": {"intercept": INTERCEPT, "slopes": [SLOPE]},
        "sizes": list(SWEEP_SIZES),
        "thresholds": list(SWEEP_THRESHOLDS),
        "n_sims": SWEEP_N_SIMS,
        "methods": ["asymptotic"],
        "workers": 1,
        "seed": seed,
    }


def golden_sweep_config() -> dict:
    """The small seed-0 sweep whose output ``golden_sweep_seed0.json`` records.

    Every sweep run checks one job of it against the golden values, whatever
    its own seed; its thresholds include ones whose EVPI is ~1e-11."""
    return dict(sweep_config(0), sizes=[250, 1000, 4000],
                thresholds=[0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3], n_sims=20)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(workload: str, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the input files of ``workload`` into ``workdir``; returns them by role."""
    if workload == "evpi_registry":
        path = workdir / "registry.csv"
        write_risk_csv(path, *synthetic_rows(seed, "registry", REGISTRY_ROWS))
        return {"data": path}
    if workload == "dca_grid":
        path = workdir / "dca.csv"
        write_risk_csv(path, *synthetic_rows(seed, "dca", DCA_ROWS))
        return {"data": path}
    if workload == "sweep_asymptotic":
        path = workdir / "sweep.json"
        path.write_text(json.dumps(sweep_config(seed), indent=2) + "\n", encoding="utf-8")
        return {"config": path}
    raise ValueError(f"unknown workload {workload!r}")
