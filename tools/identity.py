"""Byte-identity manifest of the CLI's outputs for one source tree.

Runs a fixed recipe of `gen-data`, `train`, `eval` and `predict` from the
`src/` of a source tree (by default this repository), each command in a
subprocess with that tree's `src/` on PYTHONPATH and one BLAS/OpenMP thread,
inside a temporary directory. It prints one `sha256 name` line per artifact:
the two datasets, each arch's `train_log.csv` and four checkpoints, the
stdout of `eval` with and without `--pp`, and the PGMs of `predict` plain,
with `--pp` and with `--depth`.

    python3 tools/identity.py /path/to/parent/tree > parent.txt
    python3 tools/identity.py --against parent.txt
    python3 tools/identity.py --train-tree /path/to/parent/tree --against parent.txt

With `--against FILE`, a manifest saved from an earlier run, it also names
on stderr each artifact whose hash differs, that is missing or that is new,
and exits 1 if there is any. With `--train-tree TREE`, `gen-data` and
`train` run from TREE's `src/` and only `eval` and `predict` from the tree
under test, so a change that moves training bits can show that, given the
same checkpoints, its inference outputs match TREE's manifest. That needs
both trees to share a checkpoint format, so `--train-tree` cannot span a
format change; across one, a plain `--against` run shows identity by naming
only the `.fdpt` artifacts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# directory: gen-data flags; scenes at 32x32 feed the small arch, 64x64 the default-width ones
DATASETS = {
    "data32": ["--count", "3", "--width", "32", "--height", "32"],
    "data64": ["--count", "2", "--width", "64", "--height", "64"],
}

# checkpoint directory: (dataset, config lines beyond the shared ones)
ARCHS = {
    "small": ("data32", ["arch.num_levels = 3", "arch.widths = 4, 6, 8"]),
    "default": ("data64", []),
    "no_fusion": ("data64", ["arch.fusion = false"]),
    "no_coordconv": ("data64", ["arch.coordconv = false"]),
    "no_refinement": ("data64", ["arch.refinement = false"]),
}

# every stage runs, so each arch writes stage1-3.fdpt and final.fdpt
STAGE_EPOCHS = "2, 1, 1"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(tree, workdir, args):
    """Run `python -m fusiondepth.cli args` from `tree`'s src/ in `workdir`; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src"), **{v: "1" for v in THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-m", "fusiondepth.cli", *args], cwd=workdir, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"identity: `fusiondepth {' '.join(args)}` exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_recipe(workdir, run, train):
    """Write every artifact of the recipe into `workdir`. `train(workdir, args)`
    runs gen-data and train, `run(workdir, args)` eval and predict; each runs
    one CLI command and returns its stdout."""
    for out, flags in DATASETS.items():
        train(workdir, ["gen-data", "--out", out, "--seed", "0", *flags])
    for arch, (data, lines) in ARCHS.items():
        config = [*lines, f"train.stage_epochs = {STAGE_EPOCHS}",
                  f"train.dataset_dir = {data}", f"train.checkpoint_dir = {arch}"]
        Path(workdir, f"{arch}.cfg").write_text("\n".join(config) + "\n")
        train(workdir, ["train", "--config", f"{arch}.cfg"])
        checkpoint = ["--checkpoint", f"{arch}/final.fdpt"]
        for suffix, extra in (("", []), ("_pp", ["--pp"])):
            report = run(workdir, ["eval", *checkpoint, "--data", data, *extra])
            Path(workdir, arch, f"eval{suffix}.csv").write_text(report)
        for suffix, extra in (("", []), ("_pp", ["--pp"]), ("_depth", ["--depth"])):
            run(workdir, ["predict", *checkpoint, "--image", f"{data}/000000_left.ppm",
                          "--out", f"{arch}/predict{suffix}.pgm", *extra])


def manifest(workdir):
    """{name: sha256} of every file the recipe wrote, named relative to `workdir`."""
    root = Path(workdir)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file() and path.suffix != ".cfg"}


def read_manifest(path):
    digests = {}
    for line in Path(path).read_text().splitlines():
        digest, name = line.split(" ", 1)
        digests[name] = digest
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(REPO), help="source tree to run (default: this repository)")
    parser.add_argument("--against", help="manifest of an earlier run to compare with")
    parser.add_argument("--train-tree", help="source tree to run gen-data and train from (default: the tree)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fusiondepth-identity-") as workdir:
        run_recipe(workdir, functools.partial(run_cli, args.tree),
                   functools.partial(run_cli, args.train_tree or args.tree))
        digests = manifest(workdir)
    for name, digest in digests.items():
        print(f"{digest} {name}")
    print(f"identity: {len(digests)} artifacts in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.against is None:
        return 0
    expected = read_manifest(args.against)
    differing = [name for name in sorted(expected.keys() | digests.keys()) if expected.get(name) != digests.get(name)]
    for name in differing:
        state = "missing" if name not in digests else "new" if name not in expected else "differs"
        print(f"{state}: {name}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
