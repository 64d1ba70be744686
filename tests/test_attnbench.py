"""tools/attnbench.py: one timed pass of each kind runs on this checkout's
seqcore, at the train_small workload's calls on a short sequence."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("attnbench", ROOT / "tools" / "attnbench.py")
attnbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(attnbench)


@pytest.mark.parametrize("backward", [False, True], ids=["fwd", "fwd+bwd"])
def test_one_pass_runs_on_this_checkout(backward):
    sc = attnbench.load_seqcore(ROOT, "seqcore_attnbench_test")
    _, cfg, _ = attnbench.WORKLOADS[0]
    T = 64
    rng = np.random.default_rng(0)
    for ops in attnbench.calls(cfg, T):
        arrays = [[rng.normal(size=shape).astype(np.float32)
                   for shape in ((T, cfg.attn_dim),) * 3 + ((T * cfg.attn_dim, 1),)]
                  for _ in ops]
        assert attnbench.one_pass(sc, cfg.heads, ops, arrays, backward) >= 0.0
