"""Train-and-serve benchmark for hbayes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide|deep|serve --seed N --seconds S --trace 0|1

One run writes the workload's inputs from the seed, then makes REPEATS
repeats of: one ``hbayes train`` subprocess, one start of the ranking server
on the checkpoint it wrote, and requests to that server from one client,
one request in flight, in whole rounds of the workload's request list.  The
requests of all repeats last at least S seconds and number at least
MIN_REQUESTS.  A host-speed reference point (see hostspeed.py) is taken
before and after each train, each server start and each chunk of about
CHUNK_S seconds of requests, and every timing is reported in
reference-host seconds.
It then checks every output apart from hbayes (see checks.py) and prints
one JSON object as its last line.  With ``--trace 0`` that object holds
the end-to-end metrics; with ``--trace 1`` the same run is made with spans
around hbayes' layers and the object holds the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

# One BLAS thread per process: the client, the server and the trainer run
# one at a time, on one CPU (see main).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

REPEATS = 6
MIN_REQUESTS = 200
CHUNK_S = 1.0
CHILD_TIMEOUT_S = 150.0

SWEEP_MS = {
    "inference.update_user_ms": "hbayes.inference.update_user",
    "inference.update_brand_ms": "hbayes.inference.update_brand",
    "linalg.spd_inverse_ms": "hbayes.inference.spd_inverse",
    "model.state_copy_ms": "hbayes.model.VariationalState.copy",
    "inference.update_xi_ms": "hbayes.inference.update_xi",
    "model.elbo_ms": "hbayes.inference.elbo",
    "inference.update_responsibilities_ms": "hbayes.inference.update_responsibilities",
    "inference.update_theta_ms": "hbayes.inference.update_theta",
    "inference.update_style_ms": "hbayes.inference.update_style",
    "inference.update_w_ms": "hbayes.inference.update_w",
    "inference.update_precisions_ms": "hbayes.inference.update_precisions",
    "inference.cavi_sweep_ms": "hbayes.inference.cavi_sweep",
}
SWEEP_CALLS = {"linalg.spd_inverse_calls": "hbayes.inference.spd_inverse"}
TRAIN_CALL_S = {"io.load_events_s": "hbayes.io.load_events",
                "io.save_checkpoint_s": "hbayes.io.save_checkpoint"}
SETUP_S = {"hbayes.import_s": "hbayes.import",
           "io.load_checkpoint_s": "hbayes.io.load_checkpoint",
           "io.load_candidates_s": "hbayes.io.load_candidates"}
REQUEST_CALLS = {"predictor.predictive_moments_calls": "hbayes.predictor.predictive_moments",
                 "predictor.brand_prior_calls": "hbayes.predictor.brand_prior",
                 "predictor.user_prior_calls": "hbayes.predictor.user_prior"}


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def run_child(cmd, log_path):
    """Run a command to its end; return (exit code, wall seconds, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_trace_csv(path):
    lines = Path(path).read_text(encoding="utf-8").split()
    if not lines or lines[0] != "iteration,elbo":
        raise ValueError(f"{path}: not an ELBO trace")
    return [float(line.split(",")[1]) for line in lines[1:]]


def train(w, inputs, seed, workdir, run, trace):
    """One ``hbayes train`` subprocess, with its outputs and check errors."""
    ckpt = workdir / f"model{run}.json"
    elbo_csv = workdir / f"trace{run}.csv"
    spans = workdir / f"train{run}.spans.json"
    args = ["train", "--events", str(inputs.events_path), "--styles", str(w.styles),
            "--max-iters", str(w.sweeps), "--seed", str(seed),
            "--checkpoint-out", str(ckpt), "--trace-out", str(elbo_csv)]
    if trace:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *args]
    else:
        cmd = [sys.executable, "-m", "hbayes.cli", *args]
    code, wall, rss = run_child(cmd, workdir / f"train{run}.log")
    result = {"ok": code == 0, "wall_s": wall, "rss_mb": rss, "checkpoint": ckpt,
              "spans": spans if trace else None, "errors": []}
    if code != 0:
        result["errors"].append(f"hbayes train exited with {code}")
        return result
    result["errors"] += checks.check_trace(read_trace_csv(elbo_csv), w.sweeps)
    result["errors"] += checks.check_checkpoint(json.loads(ckpt.read_text(encoding="utf-8")))
    return result


class Server:
    """The ranking server process, started and made ready in the constructor."""

    def __init__(self, checkpoint, pool, spans, log_path, lifetime_s):
        self.log = open(log_path, "wb")
        cmd = [sys.executable, str(HERE / "server.py"), str(checkpoint), str(pool)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd + ([str(spans)] if spans else []),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(), cwd=ROOT)
        self.timer = threading.Timer(lifetime_s, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise RuntimeError(f"server exited before it was ready; see {log_path}")
        hbayes_file = Path(json.loads(line)["hbayes_file"])
        if hbayes_file.resolve().parent.parent != SRC.resolve():
            self.close()
            raise RuntimeError(f"server imported hbayes from {hbayes_file}")

    def ask(self, payload):
        self.proc.stdin.write(payload)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server closed its output")
        return line

    def close(self):
        try:
            self.proc.stdin.close()
            code = self.proc.wait(CHILD_TIMEOUT_S)
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
        return code


def serve(server, requests, seconds, min_requests):
    """Closed loop over whole rounds of requests for at least ``seconds`` and
    ``min_requests``; return (latencies, [(request index, answer line)])."""
    payloads = [json.dumps(r).encode() + b"\n" for r in requests]
    latencies, answers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for j, payload in enumerate(payloads):
            start = time.perf_counter()
            line = server.ask(payload)
            latencies.append(time.perf_counter() - start)
            answers.append((j, line))
        if time.perf_counter() >= deadline and len(latencies) >= min_requests:
            return latencies, answers


def check_answers(model, inputs, answers):
    """Check every answer; return (failed requests, failed checks, errors, rankings).

    Answers to the same request must be byte-identical in every round, so
    each distinct answer is checked in full once and its verdict applies to
    every round.
    """
    first, rankings, errors_of = {}, {}, {}
    for j, line in answers:
        if j in first:
            if line != first[j]:
                errors_of[j].append(f"request {j}: answer differs between rounds")
            continue
        first[j] = line
        resp, req = json.loads(line), inputs.requests[j]
        if "ranking" not in resp:
            rankings[j] = None
            errors_of[j] = [f"request {j}: {resp.get('error')}"]
            continue
        rankings[j] = [(int(i), float(p)) for i, p in resp["ranking"]]
        errors_of[j] = (checks.check_shape(rankings[j], req["items"], req["k"])
                        + checks.check_scores(model, req, rankings[j],
                                              inputs.pool_x, inputs.pool_brand))
    failed_requests = sum(rankings[j] is None for j, _ in answers)
    failed_checks = sum(bool(errors_of[j]) for j, _ in answers)
    errors = [e for j in sorted(errors_of) for e in errors_of[j]]
    return failed_requests, failed_checks, errors, rankings


def quality(inputs, rankings):
    """Mean NDCG@k against true click probabilities: (model, brand click rate)."""
    model_scores, base_scores = [], []
    for j, req in enumerate(inputs.requests):
        if rankings.get(j) is None:
            continue
        items, k = req["items"], req["k"]
        user = inputs.true_user[req["user"]]
        true_h = [inputs.pool_x[i] @ (inputs.true_brand[inputs.pool_brand[i]] + user)
                  for i in items]
        gain = dict(zip(items, 1.0 / (1.0 + np.exp(-np.array(true_h)))))
        rate = {i: inputs.brand_rate.get(inputs.pool_brand[i], inputs.global_rate)
                for i in items}
        baseline = sorted(items, key=lambda i: (-rate[i], i))
        model_scores.append(checks.ndcg([i for i, _ in rankings[j]], gain, k))
        base_scores.append(checks.ndcg(baseline, gain, k))
    if not model_scores:
        return 0.0, 0.0
    return statistics.fmean(model_scores), statistics.fmean(base_scores)


def end_to_end(trains, setups, latencies, tail_latencies):
    """Timings are in reference-host seconds: setups and latencies arrive
    scaled, and each train carries its own factor.  The median latency is
    scaled by the reference's median call and the 95th percentile, which
    lies among the long requests, by its mean call (see hostspeed.py)."""
    ckpt = trains[-1]["checkpoint"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (statistics.median(t["wall_s"] * t["scale"] for t in trains), "s"),
        "peak_rss_mb": (statistics.median(t["rss_mb"] for t in trains), "MB"),
        "checkpoint_mb": (ckpt.stat().st_size / 2**20, "MB"),
        "rank_ms": (1e3 * statistics.median(latencies), "ms"),
        "rank_p95_ms": (1e3 * statistics.quantiles(tail_latencies, n=20)[18], "ms"),
    }


def per_layer(trains, server_spans, n_requests):
    """Per-sweep, per-call and per-request figures from the span files."""
    train_rows = [tracing.summarize(t["spans"]) for t in trains]
    server_rows = [tracing.summarize(p) for p in server_spans]

    def total(rows, name, key="total"):
        return sum(r.get(name, {}).get(key, 0.0) for r in rows)

    sweeps = total(train_rows, "hbayes.inference.cavi_sweep", "count")
    per_sweep = 1.0 / sweeps if sweeps else 0.0
    out = {name: (1e3 * total(train_rows, target) * per_sweep, "ms/sweep")
           for name, target in SWEEP_MS.items()}
    out["inference.cavi_sweep_self_ms"] = (
        1e3 * total(train_rows, "hbayes.inference.cavi_sweep", "self") * per_sweep, "ms/sweep")
    for name, target in SWEEP_CALLS.items():
        out[name] = (total(train_rows, target, "count") * per_sweep, "calls/sweep")
    out["inference.sweeps"] = (sweeps / len(trains), "sweeps/train")
    for name, target in TRAIN_CALL_S.items():
        out[name] = (statistics.median(total([r], target) for r in train_rows), "s")
    for name, target in SETUP_S.items():
        out[name] = (statistics.median(total([r], target) for r in server_rows), "s")
    out["predictor.rank_top_k_ms"] = (
        1e3 * total(server_rows, "hbayes.predictor.rank_top_k") / n_requests, "ms/request")
    for name, target in REQUEST_CALLS.items():
        out[name] = (total(server_rows, target, "count") / n_requests, "calls/request")
    return out


def run(w, seed, seconds, trace, workdir):
    """One benchmark run; returns the result object printed as the last line."""
    inputs = workloads.generate(w, seed, workdir)
    attempted, failed, errors = 0, 0, []

    # Each repeat trains, starts a server and serves a slice of the run, so
    # every metric samples the whole run and not one stretch of host speed.
    # Reference points bracket every timed step (see hostspeed.py).
    trains, setups, server_spans, latencies, answers = [], [], [], [], []
    tail_latencies, raw_setups, raw_latencies, refs = [], [], [], []
    slice_s = seconds / REPEATS
    chunks = max(1, round(slice_s / CHUNK_S))
    chunk_requests = -(-MIN_REQUESTS // (REPEATS * chunks))
    for r in range(REPEATS):
        refs.append(hostspeed.Point())
        result = train(w, inputs, seed, workdir, r, trace)
        refs.append(hostspeed.Point())
        result["scale"] = hostspeed.step_scale(refs[-2], refs[-1])
        attempted += 2  # the train command and the check of its outputs
        failed += (not result["ok"]) + bool(result["errors"])
        errors += result["errors"]
        trains.append(result)
        if not result["ok"]:
            raise RuntimeError("; ".join(errors))
        checkpoint = result["checkpoint"]

        spans = workdir / f"server{r}.spans.json" if trace else None
        log = workdir / f"server{r}.log"
        server = Server(checkpoint, inputs.pool_path, spans, log, seconds + CHILD_TIMEOUT_S)
        try:
            refs.append(hostspeed.Point())
            raw_setups.append(server.setup_s)
            setups.append(server.setup_s * hostspeed.step_scale(refs[-2], refs[-1]))
            for _ in range(chunks):
                lat, ans = serve(server, inputs.requests, slice_s / chunks, chunk_requests)
                refs.append(hostspeed.Point())
                factor = hostspeed.latency_scale(refs[-2], refs[-1])
                tail_factor = hostspeed.step_scale(refs[-2], refs[-1])
                raw_latencies += lat
                latencies += [t * factor for t in lat]
                tail_latencies += [t * tail_factor for t in lat]
                answers += ans
        finally:
            code = server.close()
        if code != 0:
            raise RuntimeError(f"server exited with {code}: {log.read_text()[-500:]}")
        if spans:
            server_spans.append(spans)

    attempted += 1  # same seed, same inputs: byte-identical checkpoints
    first = trains[0]["checkpoint"].read_bytes()
    if any(t["checkpoint"].read_bytes() != first for t in trains[1:]):
        failed += 1
        errors.append("train runs with one seed wrote different checkpoints")

    model = checks.Model(json.loads(checkpoint.read_text(encoding="utf-8")))
    failed_requests, failed_checks, answer_errors, rankings = check_answers(
        model, inputs, answers)
    attempted += 2 * len(answers)  # each request and the check of its answer
    failed += failed_requests + failed_checks
    errors += answer_errors

    model_ndcg, base_ndcg = quality(inputs, rankings)
    attempted += 1
    if not model_ndcg > base_ndcg:
        failed += 1
        errors.append(f"model NDCG@k {model_ndcg:.4f} not above brand-rate {base_ndcg:.4f}")

    if trace:
        metrics = per_layer(trains, server_spans, len(latencies))
    else:
        metrics = end_to_end(trains, setups, latencies, tail_latencies)
    summary = {
        "workload": w.name, "seed": seed, "trace": trace, "requests": len(latencies),
        "reference_mean_ms": [round(1e3 * p.mean, 4) for p in refs],
        "reference_median_ms": [round(1e3 * p.median, 4) for p in refs],
        "raw_train_s": [round(t["wall_s"], 4) for t in trains],
        "raw_setup_s": [round(s, 4) for s in raw_setups],
        "raw_rank_ms": round(1e3 * statistics.median(raw_latencies), 4),
        "raw_rank_p95_ms": round(1e3 * statistics.quantiles(raw_latencies, n=20)[18], 4),
        "ndcg_model": round(model_ndcg, 4), "ndcg_brand_rate": round(base_ndcg, 4),
        "errors": errors[:10],
    }
    print(json.dumps(summary), flush=True)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at the self-test size")
    args = parser.parse_args(argv)

    if not (SRC / "hbayes" / "cli.py").is_file():
        print(f"error: no hbayes sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Client, server and trainer take turns, never run at once, so one CPU
    # serves them all; children inherit the mask.  On a VM a wake-up on
    # another vCPU costs more, and more again while that vCPU is preempted.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(w, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
