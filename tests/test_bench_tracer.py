"""The bench's span tracer (bench/tracer.py) wraps sr2kit functions by
owner and attribute name.  A renamed or deleted name would only show when
the bench runs traced, so these tests load the tracer as it is and check
that every name it wraps exists, that it installs and records, and that it
puts every original back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sr2kit import baselines, sr2
from sr2kit.problems import make_least_squares
from sr2kit.regularizers import L1

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sr2kit_bindings():
    """Every module-level name of every loaded sr2kit module."""
    return {(mod_name, key): value
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "sr2kit" or mod_name.startswith("sr2kit.")
            for key, value in vars(mod).items()}


def test_every_target_resolves(tracer):
    for owner, attr, name, _ in tracer.TARGETS:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])


def test_installs_records_and_restores(tracer):
    targets = {(owner, attr): vars(owner)[attr]
               for owner, attr, _, _ in tracer.TARGETS}
    before = sr2kit_bindings()
    p = make_least_squares(np.random.default_rng(0), 30, 5, 0.1)
    with tracer.Tracer() as tr:
        for (owner, attr), original in targets.items():
            assert vars(owner)[attr] is not original
        sr2.run(p, L1(0.05), np.zeros(5),
                sr2.SolverConfig(batch_size=10, max_iter=5, epsilon=1e-12))
        baselines.run_proxgen(p, L1(0.05), np.zeros(5),
                              baselines.BaselineConfig(batch_size=10,
                                                       max_iter=3))
        baselines.run_proxsgd(p, L1(0.05), np.zeros(5),
                              baselines.BaselineConfig(alpha=0.5,
                                                       batch_size=10,
                                                       max_iter=4))
    # the bench divides sr2.run's time by SR2's iterations and
    # baselines.run's by the calls of the update rules: all three methods
    # share one step, but each SR2 iteration is one sr2_step call and each
    # baseline iteration one update rule call, never both
    calls = tr.summary()[2]
    assert calls["sr2.run"] == 1 and calls["sr2.sr2_step"] == 5
    assert calls["baselines.run"] == 2 and calls["baselines.step"] == 3 + 4
    for (owner, attr), original in targets.items():
        assert vars(owner)[attr] is original
    after = sr2kit_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
