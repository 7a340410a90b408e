"""The README's library Quickstart and its full-key config block run as
written, so the examples cannot drift from the package."""

import os
import re

from sfradar import PulseShape, SolverOptions, SyntheticSparse, load_experiment_spec
from sfradar.harness import _SCHEMA

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def readme_block(lang):
    """The one fenced block of the README in the given language."""
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(rf"^```{lang}\n(.*?)^```", f.read(), re.S | re.M)
    assert len(blocks) == 1, f"expected one ```{lang} block, found {len(blocks)}"
    return blocks[0]


def test_readme_quickstart_runs(capsys):
    exec(compile(readme_block("python"), README, "exec"), {})
    sparse, ls = (float(v) for v in capsys.readouterr().out.split())
    # the paper's point: with 12 of 32 pulses missing, sparse recovery
    # keeps the profile and least squares loses it
    assert 0.95 < sparse <= 1.0
    assert 0.0 <= ls < sparse


def test_readme_config_block_loads(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(readme_block("ini"))
    spec = load_experiment_spec(path)
    assert (spec.radar.n_pulses, spec.radar.l_bins) == (32, 12)
    assert spec.shape == PulseShape.ideal_sinc(24e6)
    assert spec.target == SyntheticSparse(24)
    assert spec.sweep == (0, 4, 8, 12, 16, 20)
    assert spec.solvers == ("sparse_l1", "least_squares")
    assert spec.solver_opts == SolverOptions()
    # section by section, the keys the block names, commented out or not,
    # are exactly the keys the loader reads
    named, keys = {}, None
    for line in readme_block("ini").splitlines():
        if section := re.match(r"\[(\w+)\]", line):
            keys = named.setdefault(section[1], set())
        elif key := re.match(r"#?\s*(\w+) = ", line):
            keys.add(key[1])
    schema = {
        name: set().union(*(reads for reads, _ in kinds.values()))
        | (set() if None in kinds else {"kind"})
        for name, kinds in _SCHEMA.items()
    }
    assert named == schema
