"""Freeze the double distances of the dd_* workloads at the default seed.

    python3 perfbench/freeze_golden.py

Writes perfbench/golden.json: per workload, the input fingerprint and the
dd value of every slot, each re-scored as in a benchmark run.  Run it only
when the workload definitions change; a changed value otherwise means a
changed answer.
"""

import json

import run


def main():
    run.import_library()
    import workloads

    frozen = {}
    for name in ("dd_wgd_mis", "dd_wgd_dcj"):
        make, solve, check = workloads.WORKLOADS[name]
        inputs = [make(run.DEFAULT_SEED, i) for i in range(workloads.DEFAULT_COUNT[name])]
        values = []
        for inp in inputs:
            out = solve(inp)
            check(inp, out, None)
            values.append(str(out[2].dd))
        frozen[name] = {"fingerprint": workloads.fingerprint(inputs), "dd": values}
        print("%s: %d values" % (name, len(values)))
    lines = ['  "%s": %s' % (name, json.dumps(v)) for name, v in frozen.items()]
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        fh.write('{"seed": %d, "workloads": {\n%s\n}}\n' % (run.DEFAULT_SEED, ",\n".join(lines)))


if __name__ == "__main__":
    main()
