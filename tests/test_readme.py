"""The README's Python example runs, and the claims in its comments hold."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs_and_its_comments_hold():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    root2 = math.sqrt(2.0)
    assert ns["opt"].n_star == pytest.approx([root2, root2], abs=1e-9)
    assert ns["opt"].objective == pytest.approx(2.0 * root2, abs=1e-9)
    assert ns["v"] == pytest.approx([0.4 - 5.0 / 6.0, 0.6], abs=1e-12)
    # the drift's rows are those the integrator starts from
    assert np.array_equal(ns["x"], ns["traj"].routings[0])
    assert ns["cert"].ok
