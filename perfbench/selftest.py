"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs at the tiny size, untraced and traced, with every
   check passing and exactly the metrics BENCHMARK.json names.
2. Each check rejects a corrupted output: a swapped pair in a ranking, a
   perturbed probability, a better candidate left out, a cold-start
   probability on the wrong side of 1/2, a covariance that is not positive
   definite, and an ELBO trace that decreases.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.

Exits 0 when every case passes.
"""

import copy
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
failures = []


def expect(label, ok):
    print(("PASS " if ok else "FAIL ") + label, flush=True)
    if not ok:
        failures.append(label)


def tiny_runs():
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"tiny {name} trace={trace}"
            if proc.returncode != 0:
                expect(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}", False)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            spec = BENCH["per_layer" if trace else "end_to_end"]
            expect(f"{label}: correct, none failed",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0)
            expect(f"{label}: metrics and units as in BENCHMARK.json",
                   {k: v["unit"] for k, v in result["metrics"].items()}
                   == {m["name"]: m["unit"] for m in spec})


def corrupted_outputs():
    w = workloads.tiny(workloads.WORKLOADS["serve"])
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sys.path.insert(0, str(run.SRC))
    try:
        inputs = workloads.generate(w, 11, workdir)
        trained = run.train(w, inputs, 11, workdir, 0, trace=False)
        server = run.Server(trained["checkpoint"], inputs.pool_path, None,
                            workdir / "server.log", 120)
        try:
            _, answers = run.serve(server, inputs.requests, 0.0, 1)
        finally:
            server.close()
        doc = json.loads(trained["checkpoint"].read_text(encoding="utf-8"))
        elbos = run.read_trace_csv(workdir / "trace0.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expect("trainer outputs pass", trained["ok"] and not trained["errors"])
    model = checks.Model(doc)
    _, _, errors, rankings = run.check_answers(model, inputs, answers)
    expect("server answers pass", not errors)

    def scores(j, ranking):
        req = inputs.requests[j]
        return (checks.check_shape(ranking, req["items"], req["k"])
                + checks.check_scores(model, req, ranking, inputs.pool_x, inputs.pool_brand))

    def is_known(i):
        return inputs.pool_brand[i] in model.brand_index

    # A known user's request whose top k holds known and cold brands and
    # leaves out a known one.
    j = next(j for j, r in enumerate(inputs.requests)
             if r["user"] in model.user_index
             and any(is_known(i) for i, _ in rankings[j])
             and not all(is_known(i) for i, _ in rankings[j])
             and any(is_known(i) and i not in dict(rankings[j]) for i in r["items"]))
    req, ranking = inputs.requests[j], rankings[j]

    swapped = list(ranking)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    expect("swapped pair is rejected", bool(scores(j, swapped)))

    perturbed = list(ranking)
    n = next(n for n, (i, _) in enumerate(ranking) if is_known(i))
    perturbed[n] = (perturbed[n][0], perturbed[n][1] * (1.0 - 1e-7))
    expect("perturbed probability is rejected", bool(scores(j, perturbed)))

    # Drop the best item and add a left-out known one at its true probability.
    returned = {i for i, _ in ranking}
    i = next(i for i in req["items"] if i not in returned and is_known(i))
    u, b, x = model.user_index[req["user"]], model.brand_index[inputs.pool_brand[i]], \
        inputs.pool_x[i]
    p = float(checks.probit_sigmoid(x @ (model.brand_mean[b] + model.user_mean[u]),
                                    x @ (model.brand_cov[b] + model.user_cov[u]) @ x))
    worse = sorted(ranking[1:] + [(i, p)], key=lambda pair: (-pair[1], pair[0]))
    expect("better candidate left out is rejected",
           any("left out" in e for e in scores(j, worse)))

    flipped = list(ranking)
    n = next(n for n, (i, _) in enumerate(ranking) if not is_known(i))
    flipped[n] = (flipped[n][0], 1.0 - flipped[n][1])
    expect("cold-start probability on the wrong side of 1/2 is rejected",
           any("sign" in e for e in scores(j, flipped)))

    bad_doc = copy.deepcopy(doc)
    d = len(bad_doc["state"]["brands"][0]["mean"])
    bad_doc["state"]["brands"][0]["cov"] = [[-1.0 if r == c else 0.0 for c in range(d)]
                                            for r in range(d)]
    expect("checkpoint as written passes", not checks.check_checkpoint(doc))
    expect("covariance that is not positive definite is rejected",
           bool(checks.check_checkpoint(bad_doc)))

    expect("ELBO trace as written passes", not checks.check_trace(elbos, w.sweeps))
    falling = elbos + [elbos[-1] - 1e-6 * abs(elbos[-1])]
    expect("decreasing ELBO trace is rejected", bool(checks.check_trace(falling, w.sweeps + 1)))
    expect("ELBO trace over budget is rejected", bool(checks.check_trace(elbos, len(elbos) - 1)))


def without_sources():
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect("without hbayes sources: non-zero exit, no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)


def main():
    tiny_runs()
    corrupted_outputs()
    without_sources()
    try:
        (run.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
