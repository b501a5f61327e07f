"""Byte-exact golden outputs of the CLI verbs the README lists.

Each case runs one command through `cubalg.cli.dispatch` and compares
its stdout, or the file it writes under a temporary $CUBALG_OUTPUT_DIR,
with a file in tests/golden/, byte for byte.  The corpus was written by
the code before the compiled kernel backend was deleted; the two Q cover
fibers were added from the code before `cover_fiber` moved onto
`curves.transform` and `intlinalg.RowSpace`, and the `hopf h0` kernel
basis from the code before `integer_kernel` stopped tracking U.  The
Steenrod coproduct, conjugate and primitives and the `mqd` and
`z2_group` presentations were added from the code before the dual
Steenrod algebra became a `hopf.HopfAlgebroidPresentation`.  A change
that alters any of these bytes has to say so and why.

Regenerate the corpus from the code on PYTHONPATH with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import tempfile

import pytest

from cubalg import emit
from cubalg.cli import EXIT_OK, dispatch

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

# (golden file, argv).  JSON for every verb, TSV where the verb has a
# tabular form.  `steenrod verify` runs at cutoff 32: the cutoff-64 stdout
# is pinned by its digest in the benchmark's workload list.
STDOUT_CASES = (
    ("curve_nseries.json",
     ["curve", "nseries", "--curve", "a1,0,a3,0,0", "--n", "2",
      "--order", "4"]),
    ("curve_nseries.tsv",
     ["curve", "nseries", "--curve", "a1,0,a3,0,0", "--n", "2",
      "--order", "4", "--format", "tsv"]),
    ("curve_landweber.json",
     ["curve", "landweber", "--curve", "0,a2,0,a4,0", "--prime", "3",
      "--cutoff", "24"]),
    ("cover_fiber.json",
     ["cover", "fiber", "--cusp", "--prime", "2", "--field", "F2"]),
    ("cover_fiber.tsv",
     ["cover", "fiber", "--cusp", "--prime", "2", "--field", "F2",
      "--format", "tsv"]),
    ("cover_fiber_p2_q.json",
     ["cover", "fiber", "--curve", "1,2,3,4,5", "--prime", "2",
      "--field", "Q"]),
    ("cover_fiber_p3_q.json",
     ["cover", "fiber", "--curve", "1,2,3,4,5", "--prime", "3",
      "--field", "Q"]),
    ("descent.json", ["descent", "--weights", "1,3", "--degrees", "0..12"]),
    ("descent.tsv",
     ["descent", "--weights", "1,3", "--degrees", "0..12",
      "--format", "tsv"]),
    ("tmf_mu.json",
     ["tmf-mu", "--specialize", "--window=-40..8", "--validate"]),
    ("hopf_synthesize.json",
     ["hopf", "synthesize", "--algebroid", "weierstrass"]),
    ("hopf_h0.json",
     ["hopf", "h0", "--algebroid", "weierstrass", "--twists=0..8"]),
    ("hopf_cobar.tsv",
     ["hopf", "cobar", "--algebroid", "z2_group", "--twists=-4..4",
      "--smax", "6", "--format", "tsv"]),
    ("hopf_synthesize_mqd.json",
     ["hopf", "synthesize", "--algebroid", "mqd"]),
    ("hopf_synthesize_z2_group.json",
     ["hopf", "synthesize", "--algebroid", "z2_group"]),
    ("steenrod_verify.json", ["steenrod", "verify", "--cutoff", "32"]),
    ("steenrod_verify.tsv",
     ["steenrod", "verify", "--cutoff", "32", "--format", "tsv"]),
    ("steenrod_coproduct.json",
     ["steenrod", "coproduct", "--k", "3", "--cutoff", "16"]),
    ("steenrod_conjugate.json",
     ["steenrod", "conjugate", "--k", "4", "--cutoff", "32"]),
    ("steenrod_primitives.json",
     ["steenrod", "primitives", "--window", "1..16", "--cutoff", "16",
      "--quotient", "squares"]),
)

# (golden file, argv, file the command writes).  Run in this order in one
# output directory: `chart render` reads the chart `hopf cobar` wrote.
FILE_CASES = (
    ("hopf_cobar.json",
     ["hopf", "cobar", "--algebroid", "z2_group", "--twists=-4..4",
      "--smax", "6", "--output", "chart.json"], "chart.json"),
    ("chart_render.svg",
     ["chart", "render", "--input", "chart.json", "--x-range=-8..8",
      "--s-range", "0..6", "--output", "chart.svg"], "chart.svg"),
)


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dispatch(argv)
    return rc, buf.getvalue().encode("utf-8")


def run_file_cases(out_dir):
    """Yield (golden file, exit status, stdout bytes, written bytes)."""
    for name, argv, written in FILE_CASES:
        rc, out = run(argv)
        with open(os.path.join(out_dir, written), "rb") as fh:
            yield name, rc, out, fh.read()


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv", STDOUT_CASES,
                         ids=[c[0] for c in STDOUT_CASES])
def test_stdout_matches_golden(name, argv):
    rc, out = run(argv)
    assert rc == EXIT_OK
    assert out == golden(name)


def test_written_files_match_golden(tmp_path, monkeypatch):
    monkeypatch.setenv(emit.OUTPUT_DIR_ENV, str(tmp_path))
    for name, rc, out, written in run_file_cases(str(tmp_path)):
        assert rc == EXIT_OK, name
        assert out == b"", name
        assert written == golden(name), name


def write_corpus():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    results = [(name,) + run(argv) for name, argv in STDOUT_CASES]
    with tempfile.TemporaryDirectory() as tmp:
        os.environ[emit.OUTPUT_DIR_ENV] = tmp
        results += [(name, rc, written)
                    for name, rc, _, written in run_file_cases(tmp)]
    for name, rc, data in results:
        if rc != EXIT_OK:
            raise SystemExit("%s: exit status %d" % (name, rc))
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(data)
        print("%s: %d bytes" % (name, len(data)))


if __name__ == "__main__":
    write_corpus()
