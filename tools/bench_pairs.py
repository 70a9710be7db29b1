"""Run the benchmark in alternating parent/change pairs and pool the runs
into a BENCH_<n>.json.

Two checkouts are compared: the parent commit (for example a `git archive`
of it) and the change (a copy of the working tree).  Each pair runs
`perfbench/run.py` once in each checkout, back to back on the same seed,
and the pairs alternate which side runs first.

    python3 tools/bench_pairs.py run --parent P --change C --workload audio-cli \\
        --seed 1 --pairs 10 --seconds 25 --log pairs.jsonl
    python3 tools/bench_pairs.py pool --log pairs.jsonl --claim audio-cli:process_s:lower \\
        --recheck-seed 2 --parent-commit SHA --description "..." --out BENCH_<n>.json

`run` appends one JSON line per benchmark run to the log.  `pool` groups the
log by workload and seed: the first seed of a workload fills `workloads`,
and a `--recheck-seed` run of the claimed workload fills `recheck`.  Per
metric it gives each side's median and quartiles (linear interpolation) and
the comparison the benchmark gate reads: the pairs the change wins and
loses, the difference and ratio of the medians, and the parent's
interquartile range.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in a checkout: its result line and detail record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    detail_line, result_line = out.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(detail_line)["detail"]


def run_pairs(args) -> None:
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    with open(args.log, "a", encoding="utf-8") as log:
        for pair in range(args.pairs):
            first = SIDES[pair % 2]
            for side in (first, SIDES[1 - pair % 2]):
                result, detail = run_once(checkouts[side], args.workload, args.seed, args.seconds)
                record = {"workload": args.workload, "seed": args.seed, "pair": pair + 1,
                          "first": first, "side": side, "result": result, "detail": detail}
                log.write(json.dumps(record, sort_keys=True) + "\n")
                log.flush()
                metrics = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(args.workload, args.seed, pair + 1, side, metrics, flush=True)


def summarise(values: list[float], unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values), "unit": unit}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if better == "lower" else (c < p) for p, c in zip(parent, change))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    delta = float(np.median(change) - median)
    return {"change_wins": int(wins), "change_losses": int(losses), "median_delta": delta,
            "median_ratio": float(np.median(change) / median) if median else 1.0,
            "parent_iqr": float(q3 - q1)}


def pool_group(records: list[dict], better: dict[str, str]) -> dict:
    """The pairs of one workload and seed, in BENCH_34.json's layout."""
    records = sorted(records, key=lambda r: r["pair"])
    block = {"pairs": len({r["pair"] for r in records}),
             "first": {str(r["pair"]): r["first"] for r in records}}
    runs = {side: [r for r in records if r["side"] == side] for side in SIDES}
    if [r["pair"] for r in runs["parent"]] != [r["pair"] for r in runs["change"]]:
        raise SystemExit("every pair needs one run of each side")
    for side in SIDES:
        block[side] = {
            "attempted": sum(r["result"]["attempted"] for r in runs[side]),
            "failed": sum(r["result"]["failed"] for r in runs[side]),
            "runs": [{"seed": r["seed"], "pair": r["pair"], "result": r["result"],
                      "failed_frac": r["detail"]["failed_frac"],
                      "rate_ok_frac": r["detail"]["rate_ok_frac"]} for r in runs[side]],
            "summary": {},
        }
    names = sorted(runs["parent"][0]["result"]["metrics"])
    block["comparison"] = {}
    for name in names:
        series = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        unit = runs["parent"][0]["result"]["metrics"][name]["unit"]
        for side in SIDES:
            block[side]["summary"][name] = summarise(series[side], unit)
        block["comparison"][name] = compare(series["parent"], series["change"], better[name])
    return block


def pool(args) -> None:
    records = [json.loads(line) for line in open(args.log, encoding="utf-8") if line.strip()]
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim_workload, claim_metric, claim_better = args.claim.split(":")
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    sides = {}
    for side in SIDES:
        identity = next(r["detail"]["identity"] for r in records if r["side"] == side)
        commit = args.parent_commit if side == "parent" else None
        sides[side] = {"git_commit": commit or identity["git_commit"], "identity": identity}
    bench = {
        "description": args.description,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {records[0]['detail']['seconds']:g} --trace 0",
        "claim": {"workload": claim_workload, "metric": claim_metric, "better": claim_better},
        "sides": sides,
        "workloads": {},
        "recheck": {},
    }
    for (workload, seed), group in groups.items():
        key = "recheck" if seed == args.recheck_seed and workload == claim_workload else "workloads"
        if key == "workloads" and workload in bench["workloads"]:
            raise SystemExit(f"{workload} was run on more than one seed; give --recheck-seed")
        bench[key][workload] = {"seed": seed, **pool_group(group, better)}
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    for key in ("workloads", "recheck"):
        for workload, block in bench[key].items():
            for name, cmp in block["comparison"].items():
                print(f"{key:9s} {workload:11s} seed {block['seed']} {name:12s} "
                      f"wins {cmp['change_wins']:2d} losses {cmp['change_losses']:2d} "
                      f"ratio {cmp['median_ratio']:.3f} delta {cmp['median_delta']:+.4f} "
                      f"parent IQR {cmp['parent_iqr']:.4f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating pairs and append them to a log")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=25)
    r.add_argument("--log", required=True)
    p = sub.add_parser("pool", help="pool a log into a BENCH_<n>.json")
    p.add_argument("--log", required=True)
    p.add_argument("--claim", required=True, help="workload:metric:better")
    p.add_argument("--recheck-seed", type=int)
    p.add_argument("--parent-commit", help="the parent's commit, which a git archive does not record")
    p.add_argument("--description", default="")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    (run_pairs if args.command == "run" else pool)(args)


if __name__ == "__main__":
    main()
