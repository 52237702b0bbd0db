"""
CLI tour
========

Everything in the library is reachable from scenario files through the
``hypodp`` command. This script drives the CLI in-process over the
bundled scenario files and shows the machine reports it emits.

Run:  python demos/06_cli_tour.py
"""

import io
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from hypodp.cli import main

# Scenario paths are relative to demos/, so the output is the same in any checkout.
os.chdir(pathlib.Path(__file__).resolve().parent)
SCENARIOS = pathlib.Path("scenarios")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    print(f"$ hypodp {' '.join(argv)}   (exit {code})")
    print("\n".join("  | " + line for line in out.getvalue().splitlines()))
    print()


# %% Classic composition of the hospital scenario.
run("compose", "--scenario", str(SCENARIOS / "hospitals.yaml"), "--quiet")

# %% The constraint-derived bound plus the parallel-composition baseline.
run("constrain", "--scenario", str(SCENARIOS / "hospitals.yaml"), "--quiet")

# %% The hypothesis-pair guarantee for the uniform-prior scenario.
run("hdp", "--scenario", str(SCENARIOS / "uniform_prior.yaml"), "--quiet")

# %% The uniform-prior pipeline next to its closed form.
run("subsample", "--scenario", str(SCENARIOS / "uniform_prior.yaml"), "--quiet")

# %% Exact verification: exit code 0 means the claim survived
# enumeration, 3 would mean it was refuted.
run("verify", "--scenario", str(SCENARIOS / "verify_rr.yaml"), "--quiet")

# %% Monte-Carlo consistency of the simulated experiment.
run("simulate", "--scenario", str(SCENARIOS / "uniform_prior.yaml"),
    "--seed", "99", "--quiet")
