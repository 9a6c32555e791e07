"""The bootstrap's helper threads: the number of blocks worked at once
changes no byte, a block's error surfaces at that block's turn, and no
helper thread outlives its block generator."""

import gc
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import nbvoi
from nbvoi import LogisticDgm, generate_synthetic, make_thresholds, substream
from nbvoi import resample
from nbvoi.cli import main
from nbvoi.netbenefit import _CellTable, default_grid
from nbvoi.resample import BLOCK_CELLS, BLOCK_REPS, _nb_blocks

N_REPS = 4 * BLOCK_REPS + 100  # five blocks: groups of 2 and 3 leave a short last group


@pytest.fixture(autouse=True)
def _collect_abandoned_blocks():
    """Close the block generators that an earlier failed test left behind,
    joining their helpers, so that this test counts only its own threads.
    Such a generator is kept by the failure's traceback, which pytest holds
    in ``sys.last_traceback`` until the next test's call (dropped here a
    step earlier), and then by a reference cycle, which ``gc.collect``
    frees."""
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()


@pytest.fixture(scope="module")
def sample():
    return generate_synthetic(LogisticDgm(intercept=-1.55, slopes=(0.77,)), 600, substream(31, 2))


def _outputs(tmp_path, sample) -> dict[str, bytes]:
    """The bytes of ``dca`` by both methods and ``evpi --method all`` on the
    default grid, with the dump of the draws, and of a bootstrap
    ``simulate`` at one and two workers."""
    data = tmp_path / "data.csv"
    data.write_text("y,p\n" + "".join(f"{y},{float(r)!r}\n"
                                      for y, r in zip(sample.outcomes, sample.risks)),
                    encoding="utf-8")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "kind": "synthetic", "dgm": {"intercept": -1.55, "slopes": [0.77]}, "sizes": [300, 600],
        "thresholds": [0.1, 0.2], "n_sims": 2, "n_reps": 3 * BLOCK_REPS - 1,
        "methods": ["bayesian", "ordinary", "asymptotic"], "seed": 8,
    }), encoding="utf-8")
    data_args = ["--data", str(data), "--outcome", "y", "--risk", "p",
                 "--n-reps", str(N_REPS), "--seed", "6"]
    runs = {
        "dca_bayes": ["dca", *data_args, "--method", "bayes"],
        "dca_ordinary": ["dca", *data_args, "--method", "ordinary"],
        "evpi_all": ["evpi", *data_args, "--method", "all", "--out", "csv",
                     "--dump-draws", str(tmp_path / "draws")],
        "sweep_1": ["simulate", "--config", str(config), "--workers", "1"],
        "sweep_2": ["simulate", "--config", str(config), "--workers", "2"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--output", str(tmp_path / name)]) == 0
    return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_the_width_changes_no_byte(tmp_path, monkeypatch, sample):
    outputs = []
    for width in (1, 2, 3):
        monkeypatch.setattr(resample, "_threads", lambda values, width=width: width)
        (tmp_path / str(width)).mkdir()
        outputs.append(_outputs(tmp_path / str(width), sample))
    assert len(outputs[0]) == 5 + 2 * 200 + 2  # 400 draw dumps
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["sweep_1"] == outputs[0]["sweep_2"]


def _patched_substream(monkeypatch, fail=None, pause=0.0):
    """Make block ``fail`` raise, and every block but the first sleep for
    ``pause`` seconds first."""
    real = resample.substream

    def patched(seed, method, block):
        if block == fail:
            raise RuntimeError(f"block {block} failed")
        if block:
            time.sleep(pause)
        return real(seed, method, block)

    monkeypatch.setattr(resample, "substream", patched)


@pytest.mark.parametrize("method", ["bayesian", "ordinary"])
@pytest.mark.parametrize("width", [2, 3])
def test_a_block_error_surfaces_at_its_turn_at_any_width(monkeypatch, sample, width, method):
    """Block 3 of 5 raises the same error after the same three blocks as at
    width 1, and every helper thread has ended by then."""
    table = _CellTable(sample.outcomes, sample.risks, default_grid())
    _patched_substream(monkeypatch, fail=3)
    threads = threading.active_count()
    seen = {}
    for w in (1, width):
        monkeypatch.setattr(resample, "_threads", lambda values, w=w: w)
        blocks = _nb_blocks(table, N_REPS, method, 4)
        seen[w] = []
        with pytest.raises(RuntimeError, match="^block 3 failed$"):
            for rows, *_ in blocks:
                seen[w].append(rows.start)
        assert threading.active_count() == threads
    assert seen[1] == seen[width] == [0, BLOCK_REPS, 2 * BLOCK_REPS]


@pytest.mark.parametrize("method", ["bayesian", "ordinary"])
def test_closing_the_blocks_early_joins_every_helper(monkeypatch, sample, method):
    table = _CellTable(sample.outcomes, sample.risks, default_grid())
    _patched_substream(monkeypatch, pause=0.2)
    monkeypatch.setattr(resample, "_threads", lambda values: 3)
    threads = threading.active_count()
    blocks = _nb_blocks(table, N_REPS, method, 4)
    rows, *_ = next(blocks)
    assert rows.start == 0 and threading.active_count() == threads + 2  # blocks 1 and 2
    blocks.close()
    assert threading.active_count() == threads


def test_the_width_is_the_usable_cpus_under_the_cap(monkeypatch):
    """Two threads at most, one for a pass of fewer than ``BLOCK_CELLS``
    values, and one in a process set to a single thread."""
    assert resample._threads(BLOCK_CELLS - 1) == 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert resample._threads(BLOCK_CELLS) == min(2, cpus)
    monkeypatch.setattr(resample, "_thread_cap", resample._thread_cap)
    resample._single_thread()
    assert resample._threads(BLOCK_CELLS) == 1


@pytest.mark.parametrize("method", ["bayesian", "ordinary"])
def test_small_requests_start_no_helper(monkeypatch, method):
    """Four blocks of eight cells, as in an ``evpi`` at three thresholds,
    stay on the calling thread."""
    s = generate_synthetic(LogisticDgm(intercept=-1.55, slopes=(0.77,)), 2000, substream(3, 2))
    table = _CellTable(s.outcomes, s.risks, make_thresholds((0.1, 0.2, 0.3)))
    assert table.cell_counts.size <= 8
    _patched_substream(monkeypatch, pause=0.05)
    threads = threading.active_count()
    blocks = _nb_blocks(table, 4 * BLOCK_REPS, method, 4)
    for _ in blocks:
        assert threading.active_count() == threads


def test_an_abandoned_map_does_not_hold_up_the_exit():
    """A generator left unclosed at exit (say, its frame kept by the
    traceback of an interrupt) leaves a helper waiting for its turn; the
    interpreter still exits at once."""
    code = ("from nbvoi import resample\n"
            "items = resample._ordered_map(lambda x: x, range(9), 2)\n"
            "print(next(items), next(items))\n")
    src = str(Path(nbvoi.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 1\n")


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_ordered_map_keeps_item_order_for_any_length(width):
    """Also with more threads than CPUs, switching as often as they can."""
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(8):
            assert list(resample._ordered_map(lambda x: x * x, range(n), width)) == [
                x * x for x in range(n)]
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
