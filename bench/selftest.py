"""Self-test of the benchmark: tiny workloads pass, corrupted outputs are caught.

    python3 bench/selftest.py

Runs one round of each workload at the TINY size and expects every check to
pass, runs the tiny grid once under tracing (with its two pool workers), and
then corrupts outputs on purpose: a perturbed checkpoint value, a dropped row
in an embeddings CSV, and a batch plan with a cross-class donor.  Each
corruption must be reported.  Exits non-zero if any expectation fails.
"""

import os
import shutil
import sys

from run import OUT, import_pgad, run_rounds


def main() -> int:
    import_pgad()
    import checks
    import tracing
    import workloads
    from pgad.ams import build_batch
    from pgad.synthdata import generate_dataset

    root = os.path.join(OUT, "selftest")
    shutil.rmtree(root, ignore_errors=True)
    failed = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failed.append(what)

    built = {}
    for name, build in workloads.BUILDERS.items():
        wl = build(7, os.path.join(root, name), workloads.TINY)
        _, _, digests, _ = run_rounds(wl, rounds=2)
        errors = wl.check()
        expect(not errors and len(set(digests)) == 1,
               f"{name}: tiny run passes its checks and repeats its bytes {errors[:3]}")
        built[name] = wl

    grid = built["ablation_grid"]
    spans = os.path.join(root, "spans")
    tracer = tracing.Tracer(spans)
    tracer.install()
    try:
        run_rounds(grid, rounds=1)
        tracer.flush()
    finally:
        tracer.uninstall()
    layer, failures, _ = tracing.collect(spans, grid.jobs)
    expect(not failures, f"traced grid: every batch plan passes {failures[:3]}")
    expect(layer["harness.worker_busy_s"][0] > 0.0
           and layer["harness.run_one.calls"][0] == grid.ops_per_round,
           "traced grid: spans come back from the pool workers")
    expect(layer["ams.build_batch.calls"][0] > 0 and layer["losses.ce_loss.calls"][0] > 0,
           "traced grid: names imported by trainer are traced")
    expect(not grid.check(), "traced grid: outputs still pass after uninstall")

    ckpt = os.path.join(grid.outputs[0], "checkpoints", "full_rate0.5_fold0_student.txt")
    with open(ckpt) as fh:
        lines = fh.readlines()
    lines[-1] = repr(float(lines[-1]) + 100.0) + "\n"  # bias of the class-1 logit
    with open(ckpt, "w") as fh:
        fh.writelines(lines)
    expect(any("full_rate0.5_fold0" in e for e in grid.check()),
           "a perturbed checkpoint value is caught")

    embed = built["embed_export"]
    emb = os.path.join(embed.outputs[0], "embeddings-0.csv")
    with open(emb) as fh:
        lines = fh.readlines()
    with open(emb, "w") as fh:
        fh.writelines(lines[:5] + lines[6:])
    expect(any("embeddings-0.csv" in e for e in embed.check()),
           "a dropped embeddings row is caught")

    samples = generate_dataset(workloads.dataset_config(30, 0.5, 7))
    paired = [s for s in samples if s.paired]
    unpaired = [s for s in samples if not s.paired]
    labels = ({s.id: s.label for s in paired}, {s.id: s.label for s in unpaired})
    plan = build_batch(paired, unpaired, 16, 0.5, 11)
    expect(plan.pseudo and not checks.check_plan(plan, *labels, 16),
           "a real batch plan passes the plan check")
    rec, _, cls = plan.pseudo[0]
    other = next(s.id for s in paired if s.label != cls)
    bad = type(plan)(genuine=plan.genuine, pseudo=((rec, other, cls),) + plan.pseudo[1:],
                     unpaired_student_only=plan.unpaired_student_only,
                     shortfall=plan.shortfall)
    expect(any("class" in e for e in checks.check_plan(bad, *labels, 16)),
           "a cross-class donor is caught")

    shutil.rmtree(root, ignore_errors=True)
    print(f"{len(failed)} expectation(s) failed" if failed else "self-test passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
