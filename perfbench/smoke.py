"""Smoke test of the benchmark at its smallest size.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at the smallest
sizes, and fails unless every end-to-end and per-layer metric is
reported with a unit, the result object has the keys of BENCHMARK.json,
and a deliberately corrupted output is counted as failed.
"""

import json
import shutil
import sys

import run

# End-to-end metrics each workload must report, beyond those on every workload.
ALL = {"setup_s", "wall_s", "fail_ratio", "peak_rss_mb"}
E2E = {
    "cli_small": ALL | {"ops_per_s", "op_p50_ms", "op_tail_ms"},
    "grid_large": ALL | {"rows_per_s"},
    "solver_sweep": ALL | {"ops_per_s", "op_p50_ms", "op_tail_ms"},
}
PER_LAYER_ALSO = {"trace.overhead_s"}


def expect(ok, message):
    if not ok:
        raise SystemExit(f"smoke test failed: {message}")


def check_metrics(metrics, names, where):
    missing = names - metrics.keys()
    expect(not missing, f"{where}: missing metrics {sorted(missing)}")
    for name in names:
        value, unit = metrics[name]
        expect(isinstance(value, (int, float)) and unit, f"{where}: {name} has no value or unit")


def check_result(result, names, where):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(set(result["metrics"]) == set(names), f"{where}: result metrics differ from BENCHMARK.json")
    expect(result["correct"] and result["attempted"] >= 1, f"{where}: not correct")
    json.dumps(result)


def corrupted_outputs(seed):
    """A CLI output and a library result that must fail their checks."""
    import numpy as np
    import workloads

    workdir = run.WORK / "smoke-corrupt"
    workdir.mkdir(parents=True, exist_ok=True)
    grid_op = workloads.make_pass("grid_large", seed, 0, workdir, small=True)[0]
    coeffs_path = grid_op.argv[grid_op.argv.index("--coeffs") + 1]
    coeffs = json.loads(open(coeffs_path).read())
    coeffs["q"][0] += 0.5  # the program now reads other coefficients than the check expects
    with open(coeffs_path, "w") as fh:
        json.dump(coeffs, fh)
    spectrum_op = workloads.make_pass("solver_sweep", seed, 0, workdir, small=True)[-1]
    call = spectrum_op.call
    spectrum_op.call = lambda: np.concatenate([call()[:-1], [1e3]])
    try:
        samples = [run.run_cli_cold(grid_op), run.run_call(spectrum_op)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = run.report("corrupted", seed, 0, {k: (1.0, "s") for k in run.CONTRACT_METRICS},
                        {}, samples, {})
    expect([s.status for s in samples] == ["wrong", "wrong"],
           f"corrupted outputs passed their checks: {samples}")
    expect(result["failed"] == 2 and not result["correct"], "corrupted outputs not counted as failed")


def main():
    blas = run.pin_threads()
    run.use_checkout_source()
    run.WORK.mkdir(exist_ok=True)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    contract_e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    expect(contract_e2e == list(run.CONTRACT_METRICS), "BENCHMARK.json end_to_end != run.CONTRACT_METRICS")
    machine = run.machine_info(blas)
    for workload in run.PASS_SECONDS:
        metrics, notes, samples = run.measure(workload, 1, 1, small=True)
        check_metrics(metrics, E2E[workload], workload)
        check_result(run.report(workload, 1, 0, metrics, notes, samples, machine),
                     contract_e2e, workload)
        metrics, notes, samples = run.measure_traced(workload, 1, small=True)
        check_metrics(metrics, set(per_layer) | PER_LAYER_ALSO, f"{workload} traced")
        check_result(run.report(workload, 1, 1, metrics, notes, samples, machine),
                     per_layer, f"{workload} traced")
    corrupted_outputs(1)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
