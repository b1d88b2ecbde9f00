"""Golden digests: every output file of the shipped commands, byte for byte.

The golden set is what ``optimize`` and ``scenario s1`` ... ``s11`` write at
default settings, each scenario in ``--format csv`` and ``--format json``,
what ``sample`` writes at default settings, and what ``fit`` writes from that
``samples.csv`` in both formats: 43 files. ``tests/golden_digests.json``
holds the sha256 of each, keyed by ``<command>/<file name>``, and the test
regenerates them through ``CliRunner`` in process and compares. One more
entry pins the solver beyond the baseline: a sha256 over ``optimize`` on
the 120 problems of perfbench's ``solve_problems(7)`` (2 to 6 suppliers,
demand windows in both tails), each problem's alpha*, Q*, expected profit,
mean fill rate, fill CVaR10 and KKT max_residual written with ``float.hex``.

The digests pin numpy's random streams and its summation order as they are
on the machine that wrote them, as well as the model's numbers: a numpy
upgrade or another platform can move the last bit of a Monte Carlo column
without a defect in the code. Changing a digest is changing a check, so a
change that moves one lists each changed file and the reason.

Rewrite the digests and print each file whose digest changed, with its
first differing line against the outputs of the committed ``src/`` (HEAD,
extracted with ``git archive``):

    PYTHONPATH=src python tests/test_golden.py --update
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from click.testing import CliRunner

from procurekit.cli import main
from procurekit.optimizer import optimize
from procurekit.scenarios import PRESET_IDS

from helpers import perfbench_solve_problems

DIGESTS = Path(__file__).with_name("golden_digests.json")
SOLVER_SEED = 7
SOLVER_KEY = f"solver/perfbench-solve-{SOLVER_SEED}"

COMMANDS = {
    "optimize": ("optimize",),
    **{
        f"{preset_id}-{fmt}": ("scenario", preset_id, "--format", fmt)
        for preset_id in PRESET_IDS
        for fmt in ("csv", "json")
    },
    "sample": ("sample",),
    # ``{root}`` is the directory the commands write under; ``sample`` runs first.
    **{
        f"fit-{fmt}": ("fit", "{root}/sample/samples.csv", "--format", fmt)
        for fmt in ("csv", "json")
    },
}


def solver_lines() -> str:
    """The optimize results of perfbench's solve problems of SOLVER_SEED, one
    line per problem: alpha*, Q*, expected profit, mean fill rate, fill
    CVaR10 and KKT max_residual, written with float.hex."""
    lines = []
    for cell in perfbench_solve_problems(SOLVER_SEED):
        result = optimize(*cell)
        b = result.breakdown
        values = (result.alpha_star, result.q_star, b.expected_profit, b.fill_rate_mean, b.fill_rate_cvar10,
                  result.kkt.max_residual)
        lines.append(" ".join(float(v).hex() for v in values) + "\n")
    return "".join(lines)


def produce(root: Path) -> dict[str, str]:
    """Run every golden command under ``root``, and write the solver lines to
    ``root / SOLVER_KEY``; sha256 of each file written."""
    runner = CliRunner()
    for name, args in COMMANDS.items():
        result = runner.invoke(main, [*(a.format(root=root) for a in args), "--out", str(root / name)])
        if result.exit_code != 0:
            raise AssertionError(f"{name} exited {result.exit_code}: {result.output}")
    (root / SOLVER_KEY).parent.mkdir()
    (root / SOLVER_KEY).write_text(solver_lines())
    return {
        f"{out.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for out in sorted(root.iterdir())
        for path in sorted(out.iterdir())
    }


def changed(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Files whose digest differs, or that only one side has."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def test_outputs_match_golden_digests(tmp_path):
    assert changed(json.loads(DIGESTS.read_text()), produce(tmp_path)) == []


def first_difference(old: Path, new: Path) -> str:
    """The first line where two output files differ, as 'line N: old -> new'."""
    old_lines, new_lines = (path.read_text().splitlines() if path.exists() else [] for path in (old, new))
    for number, (before, after) in enumerate(zip(old_lines + [""], new_lines + [""]), 1):
        if before != after:
            return f"line {number}: {before or '(none)'} -> {after or '(none)'}"
    return "same lines"


def produce_committed(root: Path, scratch: Path) -> None:
    """Write under ``root`` what the golden commands write with ``src/`` as
    committed at HEAD, in a child process that imports that tree."""
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", "HEAD", "src"], cwd=repo, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    env = dict(os.environ, PYTHONPATH=str(scratch / "src"))
    subprocess.run([sys.executable, __file__, "--produce", str(root)], env=env, check=True)


def update() -> None:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        new_root, old_root = Path(scratch, "new"), Path(scratch, "old")
        new_root.mkdir()
        new = produce(new_root)
        moved = changed(old, new)
        if moved:
            old_root.mkdir()
            produce_committed(old_root, Path(scratch, "tree"))
        for name in moved:
            print(f"{name}: {first_difference(old_root / name, new_root / name)}")
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--update"]:
        update()
    elif args[:1] == ["--produce"] and len(args) == 2:
        produce(Path(args[1]))
    else:
        sys.exit("usage: python tests/test_golden.py --update")
