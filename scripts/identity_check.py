"""Byte-identity check of the diffing scripts' outputs against a git ref.

    python3 scripts/identity_check.py [REF] [script ...]

Extracts REF (default ``HEAD``) with ``git archive`` into a temporary
directory, which writes nothing under ``.git``, and runs each named script of
``scripts/`` (default ``cli_sweep.py``, ``lp_capture.py`` and
``degenerate_scan.py``) in that tree and in this working tree, the two side
by side, with ``OPENBLAS_NUM_THREADS=1``.  Prints ``<script>: identical`` or
a unified diff of the two outputs per script, and exits 1 on any difference,
a nonzero exit of either run, or a script missing from either tree.

    python3 scripts/identity_check.py HEAD~1
    python3 scripts/identity_check.py main cli_sweep.py
"""

import difflib
import io
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT = ("cli_sweep.py", "lp_capture.py", "degenerate_scan.py")


def extract(ref: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def compare(name: str, ref: str, ref_root: pathlib.Path) -> bool:
    """Run ``scripts/name`` in both trees and print the verdict; True if identical."""
    trees = {ref: ref_root, "working tree": ROOT}
    missing = [label for label, root in trees.items() if not (root / "scripts" / name).is_file()]
    if missing:
        print(f"{name}: missing in {', '.join(missing)}")
        return False
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    runs = {
        label: subprocess.Popen([sys.executable, str(root / "scripts" / name)], cwd=root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        for label, root in trees.items()
    }
    outputs = {label: run.communicate()[0] for label, run in runs.items()}
    failed = [f"{label} exited {run.returncode}" for label, run in runs.items() if run.returncode]
    if failed:
        print(f"{name}: {'; '.join(failed)}")
        return False
    if outputs[ref] == outputs["working tree"]:
        print(f"{name}: identical")
        return True
    print(f"{name}: differs")
    sys.stdout.writelines(difflib.unified_diff(
        outputs[ref].splitlines(keepends=True), outputs["working tree"].splitlines(keepends=True),
        f"{ref}/scripts/{name}", f"working tree/scripts/{name}"))
    return False


def main(argv: list) -> int:
    ref = "HEAD" if not argv or argv[0].endswith(".py") else argv.pop(0)
    with tempfile.TemporaryDirectory() as tmp:
        extract(ref, pathlib.Path(tmp))
        verdicts = [compare(name, ref, pathlib.Path(tmp)) for name in argv or DEFAULT]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
