"""Each demo script runs to the end and prints its key figure.

The demos call the library the way a user would, so a change to what the
input types accept shows up here first.  Figures drawn from a seeded
stream are checked against the model's bands, not against the digits of
one seed.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import citecopy

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, pattern, holds",
    [
        ("reader_fraction.py", r"corrected read fraction .* = (\S+)", lambda x: x == 0.2214),
        ("renowned_papers.py", r"chance of >= 500 citations: 10\^(\S+)", lambda x: x == -558.6),
        # within 4 sd of the estimate on the expected tally, 0.2523 with a
        # delta-method spread of 0.0142 over 200 chains (test_copychain)
        ("copy_chain_validation.py", r"pooled corrected\s+(\S+)", lambda x: abs(x - 0.2523) <= 4 * 0.0142),
        # criterion 10's band for two runs of the same growth process
        ("distribution_comparison.py", r"same-parameter runs: (\S+)", lambda x: x < 0.05),
    ],
)
def test_demo_runs(script, pattern, holds):
    src = str(pathlib.Path(citecopy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    figure = re.search(pattern, result.stdout)
    assert figure is not None, result.stdout
    assert holds(float(figure.group(1)))
