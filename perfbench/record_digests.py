"""Record the committed seed's per-op stdout digests in ``digests.json``.

The digests pin the package's output byte for byte on the committed seed;
``run.py`` counts an op whose stdout differs as failed.  Re-record only
when an output change is deliberate, from the root of a checkout::

    python3 perfbench/record_digests.py
"""

import json
import sys

import run
import workloads


def main():
    seed = run.PLAN["committed_seed"]
    cli = run.load_cli()
    lines = []
    for name in workloads.WORKLOADS:
        bench = run.Run(cli, name, seed, workloads.build_round(name, seed, 0))
        bench.measure(0, run.REFERENCE_OPS)
        if bench.failures:
            print(f"{name}: {bench.failures[0][1]}", file=sys.stderr)
            return 1
        lines.append(f"{json.dumps(name)}: {json.dumps([d for *_, d in bench.reference])}")
        print(f"{name}: {len(bench.reference)} digests")
    run.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
