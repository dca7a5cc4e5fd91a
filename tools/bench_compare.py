#!/usr/bin/env python3
"""Compare perfbench results against the checked-in performance history.

    bench_compare.py --workload <name> RESULT.json [RESULT.json ...]
    bench_compare.py --workload <name> --append --commit <id> RESULT.json ...
    bench_compare.py --selftest

RESULT.json is the last stdout line of `python3 perfbench/run.py`. With
several results, each gated metric is their median. The medians are
diffed against the newest line for the workload in
docs/perf_history.jsonl, one metric per output line, using the
end-to-end metrics, directions and relative bounds of BENCHMARK.json
(read only). A metric worse than the history by more than its bound is a
regression.

--append adds the medians as a new history line instead of comparing.
A history line is one JSON object:

    {"commit": <id>, "workload": <name>, "seeds": [...], "nproc": <n>,
     "metrics": {<gated metric>: <median>, ...}}

`commit` is the short hash of the commit the results were measured at.
perfbench results do not name their seed, so pass --seeds to record
them.

Exit codes: 0 no regression (or line appended), 1 regression, 2 usage
error or missing data. --selftest checks the comparison logic on
synthetic data and that the checked-in history covers every workload.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "docs", "perf_history.jsonl")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class UsageError(Exception):
    pass


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise UsageError("cannot read %s: %s" % (path, e))


def load_history(path):
    lines = []
    try:
        with open(path) as f:
            for n, text in enumerate(f, 1):
                if text.strip():
                    try:
                        lines.append(json.loads(text))
                    except ValueError as e:
                        raise UsageError("%s:%d: %s" % (path, n, e))
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e))
    return lines


def median_metrics(results, gated):
    """Median of each gated metric over perfbench result objects."""
    out = {}
    for spec in gated:
        values = [r["metrics"][spec["name"]]["value"] for r in results
                  if spec["name"] in r.get("metrics", {})]
        if len(values) != len(results):
            raise UsageError("metric %s missing from a result" % spec["name"])
        out[spec["name"]] = float("%.12g" % statistics.median(values))
    return out


def last_line(history, workload):
    for line in reversed(history):
        if line.get("workload") == workload:
            return line
    raise UsageError("no history line for workload %s" % workload)


def compare(current, baseline, gated):
    """Returns (report lines, regressed metric names)."""
    report, regressed = [], []
    for spec in gated:
        name, bound = spec["name"], spec["bound"]
        new, old = current[name], baseline["metrics"].get(name)
        if old is None:
            report.append("%-16s %12.6g  (no history)" % (name, new))
            continue
        change = (new - old) / abs(old) if old else 0.0
        worse = -change if spec["better"] == "higher" else change
        bad = worse > bound
        if bad:
            regressed.append(name)
        report.append("%-16s %12.6g -> %12.6g  %+7.1f%%  bound %.0f%%%s" % (
            name, old, new, 100 * change, 100 * bound,
            "  REGRESSION" if bad else ""))
    return report, regressed


def run(args):
    bench = load_json(BENCHMARK)
    gated = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        raise UsageError("unknown workload %s; known: %s" %
                         (args.workload, ", ".join(workloads)))
    if not args.results:
        raise UsageError("no result files given")
    results = [load_json(p) for p in args.results]
    current = median_metrics(results, gated)
    if args.append:
        if not args.commit:
            raise UsageError("--append needs --commit")
        line = {"commit": args.commit, "workload": args.workload,
                "seeds": args.seeds or [], "nproc": os.cpu_count(),
                "metrics": current}
        with open(args.history, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
        return 0
    baseline = last_line(load_history(args.history), args.workload)
    report, regressed = compare(current, baseline, gated)
    print("%s vs %s (%d run(s))" % (args.workload, baseline["commit"],
                                   len(results)))
    print("\n".join(report))
    return 1 if regressed else 0


def selftest():
    bench = load_json(BENCHMARK)
    gated = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    history = load_history(HISTORY)
    for w in workloads:
        line = last_line(history, w)
        for key in ("commit", "seeds", "nproc", "metrics"):
            assert key in line, "history line for %s lacks %s" % (w, key)
        for spec in gated:
            assert spec["name"] in line["metrics"], (w, spec["name"])

    def result(**metrics):
        return {"metrics": {k: {"value": v} for k, v in metrics.items()}}

    base_metrics = {"max_qps_at_slo": 100.0, "ok_frac": 1.0,
                    "rwr_smape": 0.5, "peak_rss_mb": 80.0, "setup_s": 4.0}
    baseline = {"commit": "base", "metrics": base_metrics}
    names = [s["name"] for s in gated]
    assert sorted(names) == sorted(base_metrics), names

    def regressions(**changes):
        runs = [result(**dict(base_metrics, **changes))] * 3
        return compare(median_metrics(runs, gated), baseline, gated)[1]

    assert regressions() == []
    # Better in every direction is never a regression.
    assert regressions(max_qps_at_slo=200.0, peak_rss_mb=40.0,
                       setup_s=1.0) == []
    # Within the bound in the worse direction passes; beyond it fails.
    assert regressions(peak_rss_mb=80.0 * 1.19) == []
    assert regressions(peak_rss_mb=80.0 * 1.21) == ["peak_rss_mb"]
    assert regressions(max_qps_at_slo=79.0) == ["max_qps_at_slo"]
    assert regressions(ok_frac=0.98) == ["ok_frac"]
    # The median decides: one bad run of three does not regress.
    runs = [result(**base_metrics), result(**base_metrics),
            result(**dict(base_metrics, setup_s=100.0))]
    assert compare(median_metrics(runs, gated), baseline, gated)[1] == []
    # The newest line for a workload is the baseline.
    lines = [{"workload": "w", "commit": "a"}, {"workload": "v"},
             {"workload": "w", "commit": "b"}]
    assert last_line(lines, "w")["commit"] == "b"
    try:
        last_line(lines, "missing")
        raise AssertionError("missing workload not reported")
    except UsageError:
        pass

    # --append then compare round-trips through a history file.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        with open(path, "w") as f:
            json.dump(result(**base_metrics), f)
        hist = os.path.join(tmp, "h.jsonl")
        parser = make_parser()
        common = ["--history", hist, "--workload", workloads[0], path]
        assert run(parser.parse_args(
            ["--append", "--commit", "x", "--seeds", "1"] + common)) == 0
        assert load_history(hist)[0]["seeds"] == [1]
        assert run(parser.parse_args(common)) == 0
    print("bench_compare selftest: ok")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="*", help="perfbench result JSONs")
    parser.add_argument("--workload")
    parser.add_argument("--history", default=HISTORY)
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--commit")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--selftest", action="store_true")
    return parser


def main():
    args = make_parser().parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            raise UsageError("--workload is required")
        return run(args)
    except UsageError as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
