"""Benchmark of the relumorse pipeline: ``dgvf --local-check`` on random draws.

    python3 perfbench/run.py --workload wide2d --seed 0 --seconds 30 --trace 0

Set-up writes one weight file per draw (see ``workloads.py``).  Each draw is
then run in-process, single-threaded, through the user-facing CLI:
``relumorse.cli.main(["dgvf", "-i", W, "-o", M, "--report", R, "--local-check"])``.
The first pass over the draws always completes; further passes repeat the
draws until ``--seconds`` have gone by.  A draw's time is the median over
its warm passes of its wall time adjusted to a common host speed (see
``gauge.py``); the unadjusted figures go to ``result.json`` and stdout.

A draw is *accepted* (exit 0, report and local check pass), *rejected*
(exit 2 with a structured-error JSON line on stderr: correct behaviour for a
network outside the theory) or *failed* (anything else, including an output
digest that differs from the stored golden or from the draw's first pass).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` two untraced passes are followed by
one traced pass (see ``tracing.py``) and the last line holds the per-layer
metrics.  Everything else, with an environment stamp and the coverage table,
goes to ``perfbench/out/<workload>-seed<seed>-trace<t>/result.json``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One process, one thread: the matrices are tiny, and an idle BLAS worker
# spinning on the second core of a small machine adds noise to every timing.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 15
HARD_LIMIT_S = 150.0  # stop starting draws here, well inside the 180 s exit limit
P90_MIN_DRAWS = 100


def _read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def gauge_kernel_s() -> float:
    """Median time of the gauge kernel: host speed, which loadavg in a VM does not show."""
    samples = []
    for _ in range(50):
        t0 = time.perf_counter()
        gauge.kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def environment_stamp(when: str) -> dict:
    import numpy

    return {
        f"loadavg_{when}": _read_loadavg(),
        f"gauge_kernel_s_{when}": gauge_kernel_s(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(workload, seed: int, workdir: Path) -> tuple:
    """Wall and adjusted times of SETUP_PROBES fresh processes that each do the whole set-up.

    The gauge samples in this process while it waits for each probe, so a
    probe's adjusted time is its wall time scaled by the host speed around it.
    """
    wall, starts = [], []
    with gauge.HostGauge() as host:
        for k in range(SETUP_PROBES):
            probe_dir = workdir / f"setup-probe-{k}"
            t0 = time.perf_counter()
            # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
            subprocess.run(
                [sys.executable, str(wl.BENCH_DIR / "workloads.py"), workload.name, str(seed),
                 str(probe_dir)],
                check=True,
            )
            wall.append(time.perf_counter() - t0)
            starts.append(t0)
            shutil.rmtree(probe_dir)
    return wall, [seconds * host.speed(t0, t0 + seconds) for t0, seconds in zip(starts, wall)]


def run_draw(cli_module, draw, workdir: Path) -> dict:
    """One ``dgvf --local-check`` call; returns outcome, digest and wall time."""
    matching, report = workdir / "matching.json", workdir / "report.json"
    for path in (matching, report):
        path.unlink(missing_ok=True)
    argv = ["dgvf", "-i", str(draw.weights), "-o", str(matching), "--report", str(report), "--local-check"]
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli_module.main(argv)
    except Exception:
        return {"start": t0, "seconds": time.perf_counter() - t0, "outcome": "failed",
                "why": traceback.format_exc(limit=3), "digest": None, "kind": None}
    seconds = time.perf_counter() - t0
    record = {"start": t0, "seconds": seconds, "outcome": "failed", "why": None, "digest": None, "kind": None}
    err = stderr.getvalue()
    if code == 0:
        out = matching.read_bytes()
        rep = report.read_bytes()
        parsed = json.loads(rep)
        record["digest"] = hashlib.sha256(out + b"\0" + rep).hexdigest()
        if parsed.get("pass") is not True:
            record["why"] = "report pass is not true"
        elif parsed.get("local_check", {}).get("pass") is not True:
            record["why"] = "local check mismatch"
        else:
            record["outcome"] = "accepted"
    elif code == 2:
        record["digest"] = hashlib.sha256(f"2\n{err}".encode()).hexdigest()
        try:
            record["kind"] = json.loads(err.splitlines()[0])["error"]
            record["outcome"] = "rejected"
        except (IndexError, KeyError, TypeError, json.JSONDecodeError):
            record["why"] = f"exit 2 without structured error: {err[:200]!r}"
    else:
        record["why"] = f"exit code {code}: {err[:200]!r}"
    return record


def check_against(record: dict, expected: dict | None, label: str) -> None:
    """Mark ``record`` failed when its outcome or digest differs from ``expected``."""
    if expected is None or record["outcome"] == "failed":
        return
    if (record["outcome"], record["digest"]) != (expected["outcome"], expected["digest"]):
        record["outcome"] = "failed"
        record["why"] = f"output differs from the {label}"


def run_pass(cli_module, draws, workdir, golden, first, deadline, tracer=None) -> list:
    """Run each draw once; ``first`` holds the first pass's records (or None)."""
    records = []
    for draw in draws:
        # A repeat pass starts no draw that its first pass says would overrun.
        expected = first[draw.index]["seconds"] if first is not None else 0.0
        if time.perf_counter() + expected >= deadline:
            break
        if tracer is not None:
            tracer.draw_id = draw.index
        record = run_draw(cli_module, draw, workdir)
        check_against(record, golden.get(draw.index), "stored golden")
        if first is not None:
            check_against(record, first[draw.index], "draw's first pass")
        if tracer is not None and record["outcome"] == "rejected":
            tracer.counters[f"cli.rejected.{record['kind']}"] += 1
        records.append(record)
    return records


def coverage_table(draws, first) -> dict:
    """Per architecture: draws attempted, accept_frac, rejections by kind."""
    table = {}
    for draw, record in zip(draws, first):
        row = table.setdefault(
            ",".join(map(str, draw.arch)),
            {"attempted": 0, "accepted": 0, "failed": 0, "rejected": Counter()},
        )
        row["attempted"] += 1
        if record["outcome"] == "accepted":
            row["accepted"] += 1
        elif record["outcome"] == "rejected":
            row["rejected"][record["kind"]] += 1
        else:
            row["failed"] += 1
    for row in table.values():
        row["accept_frac"] = row["accepted"] / row["attempted"]
        row["rejected"] = dict(sorted(row["rejected"].items()))
    return table


def fastest(passes) -> list:
    """Each draw's fastest wall time over the passes that ran it."""
    return [min(p[i]["seconds"] for p in passes if i < len(p)) for i in range(len(passes[0]))]


def typical(passes) -> list:
    """Each draw's median adjusted time over its warm passes.

    The first pass is cold (first calls, lazy set-up, page faults) and counts
    only for a draw that no later pass reached.
    """
    out = []
    for i, record in enumerate(passes[0]):
        warm = [p[i]["adjusted"] for p in passes[1:] if i < len(p)]
        out.append(statistics.median(warm or [record["adjusted"]]))
    return out


def end_to_end(per_draw, first, setup_samples) -> dict:
    accepted = [t for t, r in zip(per_draw, first) if r["outcome"] == "accepted"]
    return {
        "setup_s": statistics.median(setup_samples),
        "draws_per_s": len(per_draw) / sum(per_draw),
        "draw_s_p50": statistics.median(per_draw),
        "accepted_s_p50": statistics.median(accepted) if accepted else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_spans(tracer, path: Path, t0: float) -> None:
    with open(path, "w") as handle:
        for span_id, name, start, end, parent, draw in tracer.spans:
            handle.write(json.dumps({"id": span_id, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "draw": draw}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl.import_relumorse()
    import relumorse.cli as cli_module

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    workload = wl.WORKLOADS[args.workload]
    workdir = wl.BENCH_DIR / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
              "environment": environment_stamp("start"),
              "waiting": "single-threaded and no queues: no layer waits, so no wait times"}

    draws, golden = wl.prepare(workload, args.seed, workdir)
    result["setup_in_process_s"] = time.perf_counter() - T_START
    setup_wall, setup_samples = measure_setup(workload, args.seed, workdir)
    result["setup_samples_s"] = {"wall": setup_wall, "adjusted": setup_samples}

    t_measure = time.perf_counter()
    deadline = T_START + HARD_LIMIT_S
    if args.trace:
        # The first pass is cold, so a second untraced pass runs before the
        # traced one, and the tracing overhead is taken against each draw's
        # faster untraced pass.
        first = run_pass(cli_module, draws, workdir, golden, None, deadline)
        passes = [first, run_pass(cli_module, draws, workdir, golden, first, deadline)]
        per_draw = fastest(passes)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(cli_module, draws, workdir, golden, first, deadline, tracer)
        passes.append(traced)
        write_spans(tracer, workdir / "spans.jsonl", t_measure)
        values = tracer.metrics()
        values["trace.overhead_frac"] = (
            sum(r["seconds"] for r in traced) / sum(per_draw[: len(traced)]) - 1.0
        )
        reported = spec["per_layer"]
    else:
        # The first pass always completes; further passes repeat the draws
        # until the run's time is up.
        end = min(t_measure + args.seconds, deadline)
        with gauge.HostGauge() as host:
            first = run_pass(cli_module, draws, workdir, golden, None, deadline)
            passes = [first]
            while len(passes[-1]) == len(draws):
                passes.append(run_pass(cli_module, draws, workdir, golden, first, end))
        for record in (r for p in passes for r in p):
            record["adjusted"] = host.adjust(record["start"], record["seconds"])
        per_draw = typical(passes)
        values = end_to_end(per_draw, first, setup_samples)
        result["unadjusted"] = end_to_end(fastest(passes), first, setup_wall)
        result["gauge"] = {"period_s": gauge.PERIOD_S, "ref_s": gauge.REF_S,
                           "samples": len(host.durations),
                           "median_sample_s": host.median_sample_s()}
        reported = spec["end_to_end"]
    result["measured_s"] = time.perf_counter() - t_measure

    executed = [r for p in passes for r in p]
    failed = [r for r in executed if r["outcome"] == "failed"]
    result["draws"] = [
        {"index": d.index, "arch": list(d.arch), "outcome": r["outcome"], "kind": r["kind"],
         "why": r["why"], "digest": r["digest"],
         "seconds": [p[d.index]["seconds"] for p in passes if d.index < len(p)],
         "adjusted": [p[d.index].get("adjusted") for p in passes if d.index < len(p)]}
        for d, r in zip(draws, first)
    ]
    result["coverage"] = coverage_table(draws, first)
    result["accept_frac"] = sum(r["outcome"] == "accepted" for r in first) / len(first)
    result["fail_frac"] = len(failed) / len(executed)
    # One figure per distinct draw, never repeats of the same draw, so that
    # at least ten draws lie beyond the p90.
    result["draw_s_p90"] = (
        statistics.quantiles(per_draw, n=10)[-1] if len(per_draw) >= P90_MIN_DRAWS else None
    )
    result["draw_s_p90_samples"] = len(per_draw)
    metrics = {}
    for entry in reported:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    result["metrics"] = metrics
    result["environment"].update(environment_stamp("end"))
    complete = len(first) == len(draws)
    correct = complete and not failed and all(m["value"] is not None for m in metrics.values())
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    shutil.rmtree(workdir / "weights")
    for name in ("matching.json", "report.json"):
        (workdir / name).unlink(missing_ok=True)

    env = result["environment"]
    print(f"workload {workload.name}  seed {args.seed}  draws {len(first)}/{len(draws)}"
          f"  executions {len(executed)}  failed {len(failed)}  trace {args.trace}"
          f"  gauge kernel {env['gauge_kernel_s_start']:.6f}/{env['gauge_kernel_s_end']:.6f} s")
    for arch, row in result["coverage"].items():
        print(f"coverage ({arch}): attempted {row['attempted']}  accept_frac {row['accept_frac']:.3f}"
              f"  failed {row['failed']}  rejected {row['rejected']}")
    print(f"accept_frac {result['accept_frac']:.4f} ratio  fail_frac {result['fail_frac']:.4f} ratio"
          f"  draw_s_p90 {result['draw_s_p90']} s over {len(per_draw)} draws"
          f" (given from {P90_MIN_DRAWS} draws)")
    for record in failed[:5]:
        print(f"failed draw: {record['why']}")
    if "unadjusted" in result:
        print("unadjusted (fastest pass, wall time): " + "  ".join(
            f"{k} {v}" for k, v in result["unadjusted"].items() if k != "peak_rss_mb"))
        print(f"gauge: {result['gauge']['samples']} samples,"
              f" median {result['gauge']['median_sample_s']} s, ref {gauge.REF_S} s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(executed), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
