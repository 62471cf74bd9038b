"""The README's python examples run as written, in order."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    names: dict = {}
    for block in blocks:
        # solve_boundary_system builds K(0, T) from the propagator it takes
        assert ".matrix()" not in block
        exec(compile(block, str(README), "exec"), names)
    solution = names["solution"]
    assert names["rho_mid"].time_label == 0.5
    np.testing.assert_array_equal(names["b_mid"].values,
                                  solution.b.values[5])
    assert names["b_at"].shape == (3,)
    assert names["positions_at_half"].shape == (10_000,)
    assert names["bridge_paths"].n_paths == 10_000
