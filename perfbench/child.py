"""One benchmark process; run.py starts a fresh one for each role.

    python3 perfbench/child.py setup   <workload> <seed>
    python3 perfbench/child.py measure <workload> <seed> <seconds>
    python3 perfbench/child.py trace   <workload> <seed>

with PYTHONPATH pointing at the checkout's ``src``.  The last line of
standard output is one JSON object.

setup    times import of ptnls, input generation from the seed and one
         warm-up call, from the first line of this process.
measure  runs whole batches, untraced, for at most ``seconds`` (but at
         least one batch), and reports job and batch times and its own
         peak RSS.
trace    runs one batch untraced and the same batch under the span
         recorder; for sweep, an untraced --workers 1 pass, an untraced
         --workers 2 pass and a traced --workers 1 pass.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import ptnls  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _emit(obj):
    print(json.dumps(obj))


def _make(workload: str, fingerprint: dict, **kwargs):
    return wl.WORKLOADS[workload](fingerprint, **kwargs)


def run_batch(w, jobs: list, rec=None) -> dict:
    """Run the jobs in order; answers, per-job times, batch wall, problems."""
    answers, job_s, problems = [], [], []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if rec is not None:
            rec.job = index
        span = contextlib.nullcontext() if rec is None else rec.span("benchmark.job")
        t = time.perf_counter()
        try:
            with span:
                answer = w.run(job)
        except Exception:  # a job that raises is counted as failed
            answer = None
            problems.append(f"{job}: {traceback.format_exc(limit=3)}")
        job_s.append(time.perf_counter() - t)
        answers.append(answer)
    wall = time.perf_counter() - start
    failed = len(problems)
    for job, answer in zip(jobs, answers):
        if answer is not None:
            bad = w.check(job, answer)
            failed += bool(bad)
            problems += bad
    return {"answers": answers, "job_s": job_s, "wall_s": wall,
            "failed": failed, "problems": problems}


def setup(workload: str, seed: int):
    w = _make(workload, wl.load_fingerprint())
    w.draw(seed, 0)
    w.warm_up()
    _emit({"setup_s": time.perf_counter() - START})


def measure(workload: str, seed: int, seconds: float):
    w = _make(workload, wl.load_fingerprint())
    job_s, walls, attempted, failed, problems = [], [], 0, 0, []
    begin = time.perf_counter()
    batch = 0
    while True:
        jobs = w.draw(seed, batch)
        res = run_batch(w, jobs)
        job_s += res["job_s"]
        walls.append(res["wall_s"])
        attempted += len(jobs)
        failed += res["failed"]
        problems += res["problems"]
        batch += 1
        # Start no batch that would end after `seconds`, judged by this one.
        if time.perf_counter() - begin + res["wall_s"] > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"job_s": job_s, "wall_s": walls, "attempted": attempted,
           "failed": failed, "problems": problems[:5],
           "peak_rss_mb": peak_kb / 1024.0})


def trace(workload: str, seed: int):
    fingerprint = wl.load_fingerprint()
    rec = tracer.Recorder()
    passes = []
    if workload == "sweep":
        serial = _make(workload, fingerprint, workers=1)
        jobs = serial.draw(seed, 0)
        passes.append(run_batch(serial, jobs))
        passes.append(run_batch(_make(workload, fingerprint, workers=2), jobs))
        with rec.installed():
            passes.append(run_batch(serial, jobs, rec))
        untraced, traced = passes[0], passes[2]
        files, nbytes = serial.files_written, serial.bytes_written
        serial_wall = passes[0]["wall_s"]
        speedup = serial_wall / passes[1]["wall_s"]
    else:
        w = _make(workload, fingerprint)
        jobs = w.draw(seed, 0)
        passes.append(run_batch(w, jobs))
        with rec.installed():
            passes.append(run_batch(w, jobs, rec))
        untraced, traced = passes
        files = nbytes = 0
        serial_wall = speedup = 0.0
    problems = [p for res in passes for p in res["problems"]]
    if traced["answers"] != untraced["answers"]:
        problems.append("traced answers differ from untraced answers")
    metrics = tracer.layer_metrics(rec)
    metrics.update({
        "cli.bytes_written": nbytes,
        "cli.files_written": files,
        "cli.sweep.serial_wall_s": serial_wall,
        "cli.sweep.speedup": speedup,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    rec.write(wl.WORK / f"spans-{workload}-seed{seed}.csv")
    _emit({"metrics": metrics,
           "attempted": sum(len(jobs) for _ in passes),
           "failed": sum(res["failed"] for res in passes)
           + (traced["answers"] != untraced["answers"]),
           "problems": problems[:5], "missing": rec.missing})


def main(argv) -> int:
    role, workload, seed = argv[0], argv[1], int(argv[2])
    src = (wl.ROOT / "src").resolve()
    if src not in Path(ptnls.__file__).resolve().parents:
        print(f"ptnls was imported from {ptnls.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if role == "setup":
        setup(workload, seed)
    elif role == "measure":
        measure(workload, seed, float(argv[3]))
    elif role == "trace":
        trace(workload, seed)
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
