#!/usr/bin/env python3
"""Build and run the benchmark, or check how steady it is.

One run (what the harness calls):

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

builds `perfbench` from source (release, offline; target directory
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload in its own
process, and passes its output through. The last line of standard output
is the JSON result. The program's own log lines (standard error) are kept
back and shown only if the run fails.

Steadiness mode:

    python3 perfbench/run.py --steady --workload service-mix --runs 10

runs the workload once per seed (1, 2, ...) and prints, for every
end-to-end metric, the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json. A spread below a third of the bound is the target.

Run from the root of the repository checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        sys.exit("error: cannot build perfbench (is this a full checkout of the repository?)")
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "perfbench")
    if not os.path.exists(exe):
        sys.exit(f"error: build left no executable at {exe}")
    return exe


def run_once(exe, args):
    """Run the benchmark binary; returns (exit code, stdout, stderr)."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return 124, out, err + f"\nerror: run exceeded {RUN_TIMEOUT_S} s\n"
    return proc.returncode, out, err


def steady(exe, opts):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(opts.first_seed, opts.first_seed + opts.runs):
        code, out, err = run_once(exe, ["--workload", opts.workload, "--seed", str(seed),
                                        "--seconds", str(opts.seconds), "--trace", "0"])
        if code != 0:
            sys.stderr.write(err[-4000:])
            sys.exit(f"error: seed {seed} exited with {code}")
        result = json.loads(out.strip().splitlines()[-1])
        line = [f"seed {seed:>3}", f"correct={result['correct']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print("  ".join(line), flush=True)
    print(f"\n{opts.workload}: {opts.runs} runs, seconds {opts.seconds}")
    print(f"{'metric':<14}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>8}  verdict")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ("no bound" if bound is None else
                   "steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:<14}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.4f}"
              f"{bound if bound is not None else '-':>8}  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--steady", action="store_true", help="repeat over seeds and report spreads")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    opts = p.parse_args()

    exe = build()
    if opts.steady:
        steady(exe, opts)
        return
    seconds = f"{opts.seconds:g}"
    code, out, err = run_once(exe, ["--workload", opts.workload, "--seed", str(opts.seed),
                                    "--seconds", seconds, "--trace", opts.trace])
    sys.stdout.write(out)
    if code != 0:
        sys.stderr.write("".join(err.splitlines(keepends=True)[-40:]))
    sys.exit(code)


if __name__ == "__main__":
    main()
