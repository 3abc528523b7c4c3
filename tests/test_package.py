import re
from pathlib import Path

import perceptpool
from perceptpool.config import parse_config

from oracles import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_export_is_an_attribute():
    assert len(set(perceptpool.__all__)) == len(perceptpool.__all__)
    assert [name for name in perceptpool.__all__ if not hasattr(perceptpool, name)] == []


def test_import_starts_no_thread():
    # Walker threads exist only during a walk.
    out = run_python("import threading\n"
                     "before = threading.active_count()\n"
                     "import perceptpool, perceptpool.models\n"
                     "print(threading.active_count() - before)\n")
    assert out.split() == ["0"]


def test_import_sets_no_allocator_option():
    # The walkers' single malloc arena is set when the first walk starts.
    out = run_python("import perceptpool.layers as layers\n"
                     "print(layers._one_malloc_arena.cache_info().currsize)\n")
    assert out.split() == ["0"]


def test_benchmark_builds_every_workload(tmp_path, monkeypatch):
    # perfbench imports and calls perceptpool by name; a rename fails here
    # rather than only in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    harness.write_cifar_inputs(tmp_path, seed=1)
    for name, wl in harness.WORKLOADS.items():
        st = harness.new_state(wl, harness.make_config(wl, 1, tmp_path), {})
        assert st.model.layers, name
        if wl.train:
            xb, yb = harness.next_batch(st)
            assert len(xb) == len(yb) == wl.batch, name


def test_readme_config_example_parses():
    # the documented keys and values are the ones parse_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = parse_config(block)
    assert (cfg.model, cfg.pooling_kind, cfg.schedule_epochs) == ("model_c_like", "nn_4_1", (50, 100))
