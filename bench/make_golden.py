"""Regenerate golden.json, the expected output of every operation.

    python3 bench/make_golden.py [--workload NAME ...]

For each workload and variant it runs one full period of operations from a
fresh set-up and records what each returned. Run it only when the expected
outputs change on purpose, such as a rebuilt fixture or a new workload;
entries of workloads not named are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from run import GOLDEN_PATH, ROOT, import_program


def observations(workload):
    state = workload.setup()
    return [workload.op(state, i)[1] for i in range(workload.period)]


def dump(golden):
    """One line per workload variant, so a changed value shows as one line."""
    lines = []
    for name in sorted(golden):
        variants = golden[name]
        rows = [f'  "{v}": {json.dumps(variants[v])}' for v in sorted(variants, key=int)]
        lines.append(f'  "{name}": {{\n' + ",\n".join(f"  {r}" for r in rows) + "\n  }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None):
    import_program()
    from workloads import VARIANTS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    fresh = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        for name in args.workload:
            fresh[name] = {}
            for variant in range(VARIANTS):
                fresh[name][str(variant)] = observations(WORKLOADS[name](variant, workdir))
                print(f"{name} variant {variant} done", flush=True)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
    golden.update(fresh)
    GOLDEN_PATH.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
