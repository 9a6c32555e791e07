"""A sweep's asymptotic column comes from bounded kernel passes over fixed
chunks of each size's simulations.

The chunked sweep must give the rows of the per-cell path bit for bit: one
``_evpi_grid`` per cell's table, from the same substreams, with the mean
and SE taken along the simulation axis.  The chunks are sized from the grid
alone, so the worker count changes no byte, and a pass is bounded, so a
sweep's memory does not grow with the kernel entries of all its cells; nor
does ``_run_sweep`` hold anything per cell but the EVPI it keeps.
"""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from nbvoi import (
    InputError,
    LogisticDgm,
    SmallEffectiveSampleWarning,
    SweepConfig,
    generate_synthetic,
    make_thresholds,
    substream,
    synthetic_sweep,
)
from nbvoi.cli import main
from nbvoi.io import render_csv, sweep_records
from nbvoi.netbenefit import _CellTable, _Grid, default_grid
from nbvoi.resample import DATA_STREAM_ID
from nbvoi import simlab
from nbvoi.simlab import _PASS_ENTRIES, subsample_sweep
from nbvoi.voi import _METHOD_LABELS, ALL_METHODS, _evpi_grid, _thin_mask

DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))
DATASET = generate_synthetic(DGM, 400, substream(41, 2))
SIZES = (60, 120, 240)
# Grid length -> n_sims: each size's simulations end in a ragged chunk
# (175 of up to 512 cells, 7 of up to 17, 5 = 2 * 2 + 1).
GRIDS = {1: ([0.2], 175), 30: (np.round(np.arange(1, 31) / 100, 2).tolist(), 7),
         200: (default_grid(), 5)}


def _cell_tables(dgm, dataset, cfg):
    """Each cell's ``(si, sim, table)``, drawn as a sweep cell draws it."""
    for si, size in enumerate(cfg.sizes):
        for sim in range(cfg.n_sims):
            rng = substream((cfg.seed, si, sim), DATA_STREAM_ID)
            sample = generate_synthetic(dgm, size, rng) if dgm is not None else dataset
            rows = slice(None) if size == sample.n else rng.choice(sample.n, size, replace=False)
            yield si, sim, _CellTable(sample.outcomes[rows], sample.risks[rows], cfg.thresholds)


def _per_cell_rows(dgm, dataset, cfg):
    """The sweep's rows from one ``_evpi_grid`` call per cell."""
    evpi = np.empty((len(cfg.sizes), cfg.n_sims, len(cfg.methods), len(cfg.thresholds)))
    for si, sim, table in _cell_tables(dgm, dataset, cfg):
        columns, _ = _evpi_grid([table], cfg.methods, cfg.n_reps, [(cfg.seed, si, sim)])
        evpi[si, sim] = [c.evpi for c in columns]
    by_sim = np.ascontiguousarray(np.moveaxis(evpi, 1, -1))
    means = by_sim.mean(axis=-1)
    ses = by_sim.std(axis=-1, ddof=1) / np.sqrt(cfg.n_sims)
    return [(size, t.z, _METHOD_LABELS[m], means[si, k, j], ses[si, k, j])
            for si, size in enumerate(cfg.sizes)
            for j, t in enumerate(cfg.thresholds)
            for k, m in enumerate(cfg.methods)]


@pytest.mark.parametrize("methods", [("asymptotic", "bayesian"), ("bayesian", "asymptotic")],
                         ids=["asymptotic_first", "bayesian_first"])
@pytest.mark.parametrize("n_t", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["synthetic", "subsample"])
@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_chunked_sweep_equals_per_cell_path(kind, n_t, methods):
    grid, n_sims = GRIDS[n_t]
    cfg = SweepConfig(sizes=SIZES, thresholds=make_thresholds(grid), n_sims=n_sims, n_reps=20,
                      methods=methods, seed=9)
    assert n_sims % max(1, _PASS_ENTRIES // n_t) != 0  # each size ends in a ragged chunk
    dgm, dataset = (DGM, None) if kind == "synthetic" else (None, DATASET)
    result = synthetic_sweep(DGM, cfg) if kind == "synthetic" else subsample_sweep(DATASET, cfg)
    got = [(r.size, r.threshold, r.method, r.mean_evpi, r.mc_se) for r in result.rows]
    assert got == _per_cell_rows(dgm, dataset, cfg)


def _sweep_peak(n_sims: int) -> int:
    """tracemalloc's peak over an asymptotic-only sweep on the default grid."""
    cfg = SweepConfig(sizes=(50_000,), thresholds=default_grid(), n_sims=n_sims,
                      methods=("asymptotic",), seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallEffectiveSampleWarning)
        tracemalloc.start()
        try:
            synthetic_sweep(DGM, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_kernel_memory_does_not_grow_with_cells():
    """A kernel pass holds about 0.9 KB of temporaries per (cell, threshold)
    entry, so one pass over 256 cells of 200 thresholds would hold ~46 MB.
    What does grow with the cells is the EVPI the sweep keeps for its
    simulation-axis mean and SD: 8 bytes per entry, 0.4 MB over 256 cells.
    At 50,000 rows a cell's data draw (~2.6 MB) outweighs that, and the
    peak stays that of one cell and one pass."""
    assert _sweep_peak(256) <= 1.25 * _sweep_peak(16)


@pytest.mark.parametrize("methods", [("asymptotic",), ALL_METHODS], ids=["asymptotic", "all"])
@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_worker_count_changes_no_byte(methods, monkeypatch):
    """30 thresholds make chunks of 17 cells: each size's 20 simulations
    leave a last chunk of 3.  The process sees two CPUs on any machine, so
    two workers are a pool."""
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    grid, _ = GRIDS[30]
    out = [render_csv(sweep_records(synthetic_sweep(DGM, SweepConfig(
        sizes=(100, 200), thresholds=make_thresholds(grid), n_sims=20, n_reps=30,
        methods=methods, seed=12, n_workers=w)))) for w in (1, 2)]
    assert out[0] == out[1]


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_two_subsample_workers_give_the_bytes_of_one(monkeypatch):
    """Three sizes of 6 cells on 30 thresholds are three chunks, and the
    process sees two CPUs on any machine, so two workers are a real pool:
    each receives the dataset by pickle."""
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    grid, _ = GRIDS[30]
    out = [render_csv(sweep_records(subsample_sweep(DATASET, SweepConfig(
        sizes=SIZES, thresholds=make_thresholds(grid), n_sims=6, n_reps=30,
        methods=ALL_METHODS, seed=12, n_workers=w)))) for w in (1, 2)]
    assert out[0] == out[1]


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_a_chunk_builds_its_grid_once(monkeypatch):
    """Two sizes of 20 cells on 30 thresholds are four chunks (17 + 3 cells
    each), and each builds one grid for all its cells' tables; the output
    is the same at 1 and 2 workers."""
    builds = []
    init = _Grid.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(_Grid, "__init__", counting)
    cfg = SweepConfig(sizes=(100, 200), thresholds=make_thresholds(GRIDS[30][0]), n_sims=20,
                      n_reps=30, methods=ALL_METHODS, seed=12)
    one = render_csv(sweep_records(synthetic_sweep(DGM, cfg)))
    assert len(builds) == 4
    two = render_csv(sweep_records(synthetic_sweep(DGM, dataclasses.replace(cfg, n_workers=2))))
    assert one == two


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_a_pool_is_no_wider_than_the_chunks(monkeypatch):
    """Two sizes of 20 cells on 30 thresholds are four chunks, so a worker
    count of 1e308 asks for a pool of min(4, CPUs): none on one CPU, two on
    two and four on eight.  A stand-in pool records its width and runs the
    chunks in this process, so no process starts."""
    import concurrent.futures

    widths = []

    class InProcessPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = SweepConfig(sizes=(100, 200), thresholds=make_thresholds(GRIDS[30][0]), n_sims=20,
                      n_reps=30, methods=ALL_METHODS, seed=12)
    one = render_csv(sweep_records(synthetic_sweep(DGM, cfg)))
    wide = dataclasses.replace(cfg, n_workers=1e308)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(simlab, "_usable_cpus", lambda cpus=cpus: cpus)
        assert render_csv(sweep_records(synthetic_sweep(DGM, wide))) == one
    assert widths == [2, 4]


def test_run_sweep_holds_nothing_per_cell(monkeypatch):
    """A 10^6-cell asymptotic sweep (one size, one threshold) with its chunk
    work stubbed out: the traced peak is the 8 MB of EVPI ``_run_sweep`` keeps
    and one temporary of that size for the SD, not a Python object per
    cell."""
    cfg = SweepConfig(sizes=(250,), thresholds=make_thresholds([0.2]), n_sims=10**6,
                      methods=("asymptotic",), seed=3)
    monkeypatch.setattr(simlab, "_sweep_chunk", lambda chunk, dgm, dataset, cfg: (
        np.zeros((1, 1, len(chunk[1]))), np.zeros(1, dtype=bool)))
    tracemalloc.start()
    try:
        result = synthetic_sweep(DGM, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.mean_evpi, r.mc_se, r.n_sims) for r in result.rows] == [(0.0, 0.0, 10**6)]
    assert peak < 20e6


@pytest.mark.parametrize("methods", [("asymptotic",), ("bayesian", "asymptotic")],
                         ids=["asymptotic", "bayesian_first"])
def test_size_one_with_asymptotic_is_an_input_error(methods):
    cfg = SweepConfig(sizes=(1, 50), thresholds=make_thresholds([0.2, 0.3]), n_sims=3,
                      n_reps=20, methods=methods, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallEffectiveSampleWarning)
        with pytest.raises(InputError, match=r"^moment estimation requires n >= 2$"):
            synthetic_sweep(DGM, cfg)


def test_size_one_through_the_cli_exits_2(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "kind": "synthetic", "dgm": {"intercept": -1.55, "slopes": [0.77]},
        "sizes": [1, 50], "thresholds": [0.2, 0.3], "n_sims": 3,
        "methods": ["asymptotic"], "seed": 4}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallEffectiveSampleWarning)
        code = main(["simulate", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "input", "message": "moment estimation requires n >= 2", "row": None}


def test_one_thin_warning_names_the_cells_of_the_per_cell_masks():
    grid, _ = GRIDS[30]
    cfg = SweepConfig(sizes=SIZES, thresholds=make_thresholds(grid), n_sims=7,
                      methods=("asymptotic",), seed=9)
    thin = {(cfg.sizes[si], t.z) for si, _, table in _cell_tables(DGM, None, cfg)
            for t, m in zip(cfg.thresholds, _thin_mask(table.counts)) if m}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        synthetic_sweep(DGM, cfg)
    (w,) = [w for w in caught if issubclass(w.category, SmallEffectiveSampleWarning)]
    named = str(w.message).split("at (size, threshold) ", 1)[1]
    assert thin and named == ", ".join(f"({s}, {z:g})" for s, z in sorted(thin))
