"""Regenerate ``golden.json``: per-draw output digests for the default seed.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs every draw of each named workload (all by default) once with the
default seed and stores its outcome and digest.  A draw that fails its own
oracles (report ``pass``, local check) is not stored; the script then exits
non-zero.  Regenerate only when a change is meant to alter outputs, and say
so in the change.
"""

import json
import shutil
import sys

import run
import workloads as wl


def main(names) -> int:
    wl.import_relumorse()
    import relumorse.cli as cli_module

    stored = json.loads(wl.GOLDEN.read_text()) if wl.GOLDEN.exists() else {}
    status = 0
    for name in names or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        workdir = wl.BENCH_DIR / "out" / f"golden-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        draws, _ = wl.prepare(workload, wl.DEFAULT_SEED, workdir)
        entries = {}
        for draw in draws:
            record = run.run_draw(cli_module, draw, workdir)
            if record["outcome"] == "failed":
                print(f"{name} draw {draw.index} failed: {record['why']}", file=sys.stderr)
                status = 1
                continue
            entries[str(draw.index)] = {"outcome": record["outcome"], "kind": record["kind"],
                                        "digest": record["digest"]}
        stored[name] = {"seed": wl.DEFAULT_SEED, "draws": entries}
        shutil.rmtree(workdir)
        print(f"{name}: {len(entries)} draws stored")
    wl.GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
