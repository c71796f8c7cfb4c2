"""Self-test of the benchmark's checks: each must reject a corrupted result.

    python3 perfbench/selftest.py

Runs one case of each kl leg and a cheap CLI config, confirms
the checks accept the genuine results, then corrupts each result in one
place and confirms the matching check rejects it.  Exits 1 if any
corruption goes unnoticed.  Takes a few seconds.
"""

import copy
import json
import os
import shutil
import sys

import run  # noqa: F401  (pins BLAS before numpy loads)

import numpy as np


def main():
    run.import_qschur()
    import cli_mix
    import kl
    import oracle
    from qschur.factorcheck import Budget

    results = []

    def expect(label, problems, rejected):
        ok = bool(problems) == rejected
        results.append(ok)
        print("%-4s %s%s" % ("ok" if ok else "FAIL", label,
                             (": " + problems[0]) if problems else ""))

    def kl_op(workload):
        op = kl.build(workload, 1, None)[3]
        rep = op.run(0)
        return op, rep, op.digest(rep, 0)

    op, rep, digest = kl_op("kl-sample")
    expect("genuine sampling report accepted", op.check(rep, digest), False)

    moved = copy.deepcopy(rep)
    eigs = moved.witness_eigenvalues
    worst = int(np.argmax(np.abs(eigs)))
    eigs[worst] *= 1.0 + 1e-6
    expect("witness eigenvalue moved by 1e-6 relative", op.check(moved, digest), True)

    off = copy.deepcopy(rep)
    off.kappa_hat += 1
    expect("kappa-hat off by one", op.check(off, digest), True)

    op, rep, digest = kl_op("kl-identity")
    expect("genuine identity report accepted", op.check(rep, digest), False)

    off = copy.deepcopy(rep)
    off.max_coeff_dev = 0.96
    expect("identity deviation 0.96 with status ok", op.check(off, digest), True)

    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 4))
    pts *= 0.2 / np.linalg.norm(pts, axis=1, keepdims=True)
    ball = op.ball
    svals = ball.s.rational.eval_many(pts)[:, 0, 0]
    bvals = ball.b0.inverse().rational.eval_many(pts)[:, 0, 0]
    expect("K_B - K_S (sign flipped) is not positive",
           oracle.check_difference_kernel(pts, bvals, svals), True)

    workdir = os.path.join(run.OUT, "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        ops = cli_mix.build("cli-light", 0x5C05, workdir)
        transport = next(o for o in ops if o.command == "transport" and not o.to_file)
        outs = [transport.run(r) for r in range(2)]
        texts = [transport.digest(out, r) for r, out in enumerate(outs)]
        expect("genuine transport report accepted", transport.check(outs[0], texts[0]), False)

        doc = json.loads(texts[0])
        doc["mapped_points"][0]["image"][1] += 1e-9
        expect("Cayley image nudged by 1e-9", transport.check(outs[0], json.dumps(doc)), True)

        # the runner keeps the first report and counts later ones that differ
        at = texts[1].index('"x0": ') + len('"x0": ')
        flipped = texts[1][:at] + ("1" if texts[1][at] != "1" else "2") + texts[1][at + 1:]
        replies = iter([outs[0], outs[1], (0, flipped)])
        replay = copy.copy(transport)
        replay.run = lambda round_index: next(replies)
        firsts, differ = [None], [0]
        for r in range(3):
            run.run_round([replay], r, firsts, differ, None)
        expect("one byte of a repeated report changed", run.check([replay], firsts, differ), True)
    finally:
        shutil.rmtree(workdir)

    if not all(results):
        print("selftest: %d of %d checks behaved wrongly" % (results.count(False), len(results)))
        return 1
    print("selftest: all %d checks behaved as expected" % len(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
