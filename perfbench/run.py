"""Cold-request benchmark of chordlab.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

runs the seeded job list of one workload (see jobs.py) from the root of a
checkout, against the sources under src/.  Load is one closed-loop client:
each job runs in a fresh child forked from this process, which has only
imported chordlab, so nothing computed by one job is reused by the next.
Rounds of jobs run until --seconds have passed; the round in progress is
finished.  Every output is checked against a reference that no timed job
produced.

Every gated time is scaled to a reference host speed measured around each
job (speed.py), because the host's own speed drifts by up to 1.6x; the
wall-clock figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs each job twice,
plain and with spans recorded around the public functions of every layer
(spans.py), and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Run details, per-job records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

try:
    import chordlab  # noqa: E402
except ModuleNotFoundError:
    sys.exit(f"perfbench: no chordlab sources under {ROOT / 'src'}")
import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

JOB_TIMEOUT = 90.0  # seconds; a job still running then is killed and failed
SETUP_PROBES = 11
ISOLATION_JOB = ("cli", ("series", "C2", "--order", "48"))

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import jobs
jobs.job_list(sys.argv[3], int(sys.argv[4]))
print("ready", flush=True)
import speed
print(speed.kernel_s(), flush=True)
"""


# -- one child per job -------------------------------------------------------------


def _child(body, fd: int) -> None:
    """Body of the forked child: time the speed kernel, run, time the kernel
    again, report as JSON on fd, never return."""
    status = 1
    try:
        forked = time.perf_counter()
        before = speed.kernel_s()
        started = time.perf_counter()
        try:
            reply = {"value": body(), "error": None}
        except (Exception, SystemExit):
            reply = {"value": None, "error": traceback.format_exc(limit=-4)}
        finished = time.perf_counter()
        after = speed.kernel_s()
        reply["forked"] = forked
        reply["kernel_s"] = (before + after) / 2
        reply["calibration_s"] = started - forked + time.perf_counter() - finished
        reply["rss_kb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        view = memoryview(json.dumps(reply).encode())
        while view:
            view = view[os.write(fd, view):]
        status = 0
    finally:
        os._exit(status)


def _read_reply(fd: int, deadline: float) -> bytes | None:
    """Everything the child writes, or None if it is not done by deadline."""
    chunks = []
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_child(body, timeout: float = JOB_TIMEOUT):
    """Run body() in a child forked from this process.  Returns the child's
    reply (None if it died or timed out), the fork time and the time the
    reply was complete, both on the perf_counter clock; the reply's
    calibration_s is the part of that interval spent timing the kernel."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    t_fork = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(body, write_fd)
    os.close(write_fd)
    data = None
    try:
        data = _read_reply(read_fd, t_fork + timeout)
        t_done = time.perf_counter()
    finally:
        os.close(read_fd)
        if data is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    try:
        reply = json.loads(data) if data else None
    except json.JSONDecodeError:  # the child died while writing
        reply = None
    return reply, t_fork, t_done


def job_body(job, traced: bool):
    def body():
        if not traced:
            output = jobs.execute(job)
            return {"output": output, "memo": spans.memo_state()}
        tracer = spans.Tracer()
        tracer.install()
        output = tracer.wrap("job", jobs.execute)(job)
        if job[0] == "roundtrip":
            tracer.counters["bijections.roundtrips"] = len(output["inputs"])
        return {
            "output": output,
            "memo": spans.memo_state(),
            "spans": tracer.spans,
            "counters": tracer.counters,
            "fps": tracer.fps_stats(),
        }

    return body


def summarize(job_id: int, record: dict) -> None:
    """Fold a traced job's spans into per-name self times and call counts;
    keep the spans themselves gzip-compressed until the run ends."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    job_s = census_s = 0.0
    span_list = record.pop("spans")
    for (name, start, end, parent), own in zip(span_list, spans.self_times(span_list)):
        self_s[name] += own
        calls[name] += 1
        if parent < 0:
            job_s += (end - start) / 1e9
        if name == "chord.census":
            census_s += (end - start) / 1e9
    line = json.dumps({"job": job_id, "label": record["job"], "spans": span_list}) + "\n"
    record.update(self_s=self_s, calls=calls, job_s=job_s, census_s=census_s,
                  spans_gz=gzip.compress(line.encode()))


def run_job(job, refs: dict, traced: bool = False, job_id: int = -1) -> dict:
    """Run and check one job; the record holds no output, only its verdict."""
    reply, t_fork, t_done = run_child(job_body(job, traced))
    t_check = time.perf_counter()
    if reply is None:
        error = "child died or timed out without a reply"
    elif reply["error"]:
        error = reply["error"]
    else:
        try:
            error = jobs.check(job, reply["value"].pop("output"), refs)
        except (KeyError, ValueError, TypeError) as exc:
            error = f"malformed output: {exc!r}"
    record = {
        "job": jobs.label(job),
        "latency_s": t_done - t_fork,
        "speed": 1.0,
        "check_s": time.perf_counter() - t_check,
        "error": error,
    }
    if reply is not None:
        record["latency_s"] -= reply["calibration_s"]
        record["speed"] = speed.REF_S / reply["kernel_s"]
        record["fork_s"] = reply["forked"] - t_fork
        record["rss_kb"] = reply["rss_kb"]
        if reply["value"]:
            record.update(reply["value"])
    record["ref_s"] = record["latency_s"] * record["speed"]
    if "spans" in record:
        summarize(job_id, record)
    return record


# -- the run -------------------------------------------------------------------------


def load_references() -> tuple[dict, float]:
    """references.json plus the series coefficients the census, enumeration
    and roundtrip checks need, computed in a cold child of their own."""
    reply, t_fork, t_done = run_child(jobs.series_references)
    if reply is None or reply["error"]:
        raise RuntimeError(f"reference child failed: {reply and reply['error']}")
    refs = json.loads((HERE / "references.json").read_text())
    refs["series"] = reply["value"]
    return refs, t_done - t_fork


def isolation_check(refs: dict) -> str | None:
    """Run one job twice: both cold children must miss the gfseries memo
    equally often, or state leaked from one job to the next."""
    misses = []
    for _ in range(2):
        record = run_job(ISOLATION_JOB, refs)
        if record["error"]:
            return f"isolation job failed: {record['error']}"
        misses.append(record["memo"]["misses"])
    if misses[0] != misses[1] or not misses[0]:
        return f"gfseries memo misses differ between cold jobs: {misses}"
    return None


def run_rounds(rounds, refs: dict, seconds: float, trace: bool):
    """Run whole rounds until `seconds` have passed.  With trace, every job
    also runs traced right after its plain run, under key "traced"."""
    records = []
    start = time.perf_counter()
    for round_jobs in rounds:
        if records and time.perf_counter() - start >= seconds:
            break
        for job in round_jobs:
            record = run_job(job, refs)
            if trace:
                record["traced"] = run_job(job, refs, traced=True, job_id=len(records))
            records.append(record)
    return records, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Fresh interpreter to ready-to-fork (import chordlab, build the job
    list): the wall time and the host speed, from the kernel timed here just
    before and in the probe just after."""
    before = speed.kernel_s()
    argv = [sys.executable, "-c", PROBE, str(ROOT / "src"), str(HERE), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        after = proc.stdout.read()
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError("setup probe failed")
    return ready, speed.REF_S / ((before + float(after)) / 2)


def failed(record: dict) -> bool:
    return bool(record["error"] or record.get("traced", {}).get("error"))


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69:635, 1982):
    every order statistic weighted by the Beta((n+1)p, (n+1)(1-p)) mass over
    its rank interval.  A run holds few of the jobs its 90th percentile
    falls between, so the single order statistic there jumps with the sizes
    the seed drew; the weighted mean over the neighbouring ones does not."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32  # midpoint rule inside each rank interval
    log_density = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((k + 0.5) / (n * steps) for k in range(n * steps))
    ]
    peak = max(log_density)
    mass = [math.exp(d - peak) for d in log_density]
    weights = [sum(mass[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def timing(latency: list[float], prefix: str = "") -> dict:
    """Jobs per second of job time, median and 90th percentile latency."""
    return {
        prefix + "jobs_per_s": len(latency) / sum(latency),
        prefix + "job_s_p50": quantile(latency, 0.5),
        prefix + "job_s_p90": quantile(latency, 0.9),
    }


def end_to_end_metrics(records, setup: list[tuple[float, float]]) -> dict:
    """Times at the reference speed; setup holds the probes' (wall, speed)."""
    return {
        **timing([r["ref_s"] for r in records]),
        "setup_s": statistics.median(wall * factor for wall, factor in setup),
        "peak_rss_mb": max(r.get("rss_kb", 0) for r in records) / 1024,
        "ok_frac": 1 - sum(map(failed, records)) / len(records),
    }


def layer_metrics(records, check_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced twins, as means per job, and their
    units.  Span times are scaled to the reference speed like job times;
    host.speed and the wall.* metrics show the plain twins unscaled.  check_s
    is the run's reference cost spread over the jobs."""
    traced = [r["traced"] for r in records if "self_s" in r.get("traced", {})]
    n = max(len(traced), 1)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    census_s = job_s = 0.0
    bits = ints = coeffs = hits = misses = entries = 0
    for t in traced:
        for name, own in t["self_s"].items():
            self_s[name] += own * t["speed"]
        for name, count in t["calls"].items():
            calls[name] += count
        for key, value in t["counters"].items():
            counters[key] += value
        job_s += t["job_s"] * t["speed"]
        census_s += t["census_s"] * t["speed"]
        bits = max(bits, t["fps"]["bits_max"])
        ints += t["fps"]["int_coeffs"]
        coeffs += t["fps"]["coeffs"]
        hits += t["memo"]["hits"]
        misses += t["memo"]["misses"]
        entries += t["memo"]["entries"]

    m, units = {}, {}

    def put(name, value, unit):
        m[name] = value
        units[name] = unit

    for op in spans.FPS_OPS:
        put(f"fps.{op}.calls", calls[f"fps.{op}"] / n, "count")
    for op in spans.FPS_OPS:
        put(f"fps.{op}.self_s", self_s[f"fps.{op}"] / n, "s")
    put("fps.coeff_bits_max", bits, "bits")
    put("fps.int_coeff_share", ints / coeffs if coeffs else 0.0, "ratio")
    put("gfseries.build.calls", calls["gfseries.build"] / n, "count")
    put("gfseries.build.self_s", self_s["gfseries.build"] / n, "s")
    put("gfseries.identity.self_s", self_s["gfseries.identity"] / n, "s")
    put("gfseries.memo.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("gfseries.memo.entries", entries / n, "count")
    put("chord.census.calls", calls["chord.census"] / n, "count")
    put("chord.census.self_s", self_s["chord.census"] / n, "s")
    put("chord.census.diagrams_per_s",
        counters["chord.census.diagrams"] / census_s if census_s else 0.0, "1/s")
    put("chord.enumerate.diagrams", counters["chord.enumerate.diagrams"] / n, "count")
    put("chord.enumerate.self_s", self_s["chord.enumerate"] / n, "s")
    put("chord.connectivity.self_s", self_s["chord.connectivity"] / n, "s")
    put("bijections.roundtrips", counters["bijections.roundtrips"] / n, "count")
    for name in ("bijections.phi", "bijections.nabla", "bijections.theta",
                 "yukawa.tadpoles", "yukawa.lambda", "yukawa.green",
                 "bell.partial", "bell.partitions"):
        put(f"{name}.self_s", self_s[name] / n, "s")
    put("diffeo.amplitude.calls", calls["diffeo.amplitude"] / n, "count")
    for name in ("diffeo.amplitude", "diffeo.series", "asymptotics.alien",
                 "asymptotics.fit", "cli"):
        put(f"{name}.self_s", self_s[name] / n, "s")
    layer_s = defaultdict(float)
    for name, own in self_s.items():
        layer_s[name.split(".")[0]] += own
    for layer in spans.LAYERS:
        put(f"{layer}.self_frac", layer_s[layer] / job_s if job_s else 0.0, "ratio")
    put("unwrapped.self_frac", layer_s["job"] / job_s if job_s else 0.0, "ratio")
    put("bench.check_s", check_s + sum(r["check_s"] for r in records) / n, "s")
    put("bench.fork_s", statistics.mean(r.get("fork_s", 0.0) for r in records), "s")
    # Unscaled: each traced twin runs right after its plain one, on a host in
    # much the same state, and two speed factors would add their noise.
    plain = sum(r["latency_s"] for r in records)
    twin = sum(r["traced"]["latency_s"] for r in records)
    put("trace.overhead_frac", twin / plain - 1, "ratio")
    put("host.speed", statistics.median(r["speed"] for r in records), "ratio")
    for name, value in timing([r["latency_s"] for r in records], "wall.").items():
        put(name, value, END_TO_END_UNITS[name[len("wall."):]])
    return m, units


# -- reporting -----------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def metadata(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": _loadavg(),
    }


def write_outputs(name: str, meta: dict, metrics: dict, records: list) -> None:
    """The run's metadata, metrics and per-job records; the spans of traced
    jobs as gzipped JSON lines of job id, label and span list."""
    OUT.mkdir(exist_ok=True)
    blobs = [r["traced"].pop("spans_gz") for r in records if "spans_gz" in r.get("traced", {})]
    if blobs:
        (OUT / f"{name}-spans.jsonl.gz").write_bytes(b"".join(blobs))
    body = {"meta": meta, "metrics": metrics, "jobs": records}
    (OUT / f"{name}.json").write_text(json.dumps(body, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(chordlab.__file__).resolve().parent != ROOT / "src" / "chordlab":
        print(f"perfbench: chordlab imported from {chordlab.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    setup = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    refs, ref_s = load_references()
    isolation = isolation_check(refs)
    rounds = jobs.job_list(args.workload, args.seed)
    records, wall_s = run_rounds(rounds, refs, args.seconds, bool(args.trace))
    meta["loadavg_end"] = _loadavg()

    n_failed = sum(map(failed, records))
    if args.trace:
        metrics, units = layer_metrics(records, ref_s / len(records))
    else:
        metrics, units = end_to_end_metrics(records, setup), END_TO_END_UNITS
        meta["unscaled"] = {
            **timing([r["latency_s"] for r in records]),
            "setup_s": statistics.median(wall for wall, _ in setup),
        }
    meta.update(workload=args.workload, trace=args.trace, wall_s=wall_s, isolation=isolation or "ok",
                host_speed=statistics.median(r["speed"] for r in records))
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "unscaled"))
    for name, value in meta.get("unscaled", {}).items():
        print(f"{'wall-clock ' + name:32} {value:.6g} {units[name]} (not scaled to the reference speed)")
    samples = f"({len(records)} jobs)"
    for name, value in metrics.items():
        print(f"{name:32} {value:.6g} {units[name]}" + (f" {samples}" if "job_s" in name else ""))
    print(f"{'failed_frac':32} {n_failed / len(records):.6g} ratio ({n_failed} of {len(records)} jobs)")
    for r in records:
        if failed(r):
            print(f"FAILED {r['job']}: {r['error'] or r['traced']['error']}")
    if isolation:
        print(f"FAILED isolation: {isolation}")
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", meta, metrics, records)
    result = {
        "correct": n_failed == 0 and isolation is None,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
