"""List the lines of src/fusiondepth's functions that the CLI never runs.

Runs `tools/identity.py`'s recipe (`gen-data`, `train`, `eval` and `predict`
over its datasets and archs) in this process, calling `cli.main` where
identity starts a subprocess, under `sys.settrace`. It then prints every line
of a function body in `src/fusiondepth` that never ran, as
`file:line function: source`, and the count on stderr. Lines are those of the
compiled code objects (`co_lines`), so a statement that spans two lines counts
twice. Class and module bodies are left out: they run at import.

    python3 tools/linetrace.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import time
import types

import identity

PACKAGE = identity.REPO / "src" / "fusiondepth"
sys.path.insert(0, str(PACKAGE.parent))

from fusiondepth import cli  # noqa: E402  (after the path insert)


def run_in_process(workdir, args):
    """Run `fusiondepth args` by cli.main in this process, in `workdir`; returns its stdout."""
    out = io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(args)
    finally:
        os.chdir(home)
    if code != 0:
        sys.exit(f"linetrace: `fusiondepth {' '.join(args)}` exited {code}")
    return out.getvalue()


def function_lines(code):
    """{line: innermost function name} of every function body compiled into `code`."""
    found = {}
    if code.co_flags & inspect.CO_OPTIMIZED:
        found.update((line, code.co_qualname) for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found.update(function_lines(const))
    return found


def traced_recipe():
    """{(file, line)} that ran in src/fusiondepth while identity's recipe ran."""
    ran = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory(prefix="fusiondepth-linetrace-") as workdir:
        sys.settrace(calls)
        try:
            identity.run_recipe(workdir, run_in_process, run_in_process)
        finally:
            sys.settrace(None)
    return ran


def main():
    start = time.perf_counter()
    ran = traced_recipe()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line, name in sorted(function_lines(compile(source, str(path), "exec")).items()):
            if (str(path), line) not in ran:
                missed += 1
                print(f"{path.relative_to(identity.REPO)}:{line} {name}: {text[line - 1].strip()}")
    print(f"linetrace: {missed} function-body lines never ran, {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
