"""Golden outputs: the ``--format json`` output of every subcommand on one
fixed config each, compared byte for byte with ``tests/golden/<name>.json``
after masking the wall-time fields.

A refactor that leaves the package's behaviour alone must leave these files
unchanged.  To re-capture them after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import re

import pytest

from mathieucf.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> (argv, expected exit code)
CASES = {
    "eval": (["eval", "--r", "0.5,2", "--k", "3",
              "--methods", "cf,direct,trigamma,integral,asymptotic"], 0),
    "bounds": (["bounds", "--r", "0.3,1,5", "--k", "3", "--l", "2"], 0),
    "compare": (["compare", "--r", "0.5,2"], 0),
    "bench": (["bench", "--r", "1", "--tol", "1e-8", "--k-values", "1,3",
               "--repeats", "1"], 0),
    "apery": (["apery", "--n-terms", "12"], 0),
    "selftest": (["selftest"], 0),
}

_TIMING = re.compile(r'("(?:time_ns|median_seconds|seconds)": )[^,\n]+')


def mask(text):
    return _TIMING.sub(r"\1null", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    assert main(argv + ["--format", "json"]) == expected_code
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fp:
        assert mask(capsys.readouterr().out) == fp.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (argv, _) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv + ["--format", "json"])
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w") as fp:
            fp.write(mask(buf.getvalue()))
        print(f"wrote {name}.json")
