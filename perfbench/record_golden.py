"""Record golden output digests of every workload into ``golden.json``.

    python3 perfbench/record_golden.py

Run once, at the commit whose outputs define "correct"; every later run of
the benchmark compares its outputs with these digests.  Each CLI CSV comes
from the real command in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jobs


def cli_digests() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(jobs.ROOT / "src"))
    out = {}
    with tempfile.TemporaryDirectory(dir=jobs.HERE) as tmp:
        for sc in jobs.SCENARIOS:
            csv = Path(tmp) / f"{sc}.csv"
            subprocess.run([sys.executable, "-m", "offloadsim.cli", "run",
                            "--scenario", sc, "--out", str(csv)],
                           cwd=jobs.ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            out[jobs.golden_key("cli-run", sc)] = jobs.sha256(csv.read_text(encoding="utf-8"))
    return out


def main() -> int:
    golden = cli_digests()
    work = [("figures", jobs.setup("figures"), [0])]
    for workload in ("random-trips", "oracle-check"):
        work.append((workload, jobs.setup(workload), range(jobs.BANK)))
    for workload, ctx, seeds in work:
        for seed in seeds:
            _, _, ops, _, _ = jobs.do_work(workload, ctx, seed, jobs.HERE)
            for name, ok, digest in ops:
                if not ok:
                    print(f"{workload} {name}: failed", file=sys.stderr)
                    return 1
                if digest is not None:
                    golden[jobs.golden_key(workload, name)] = digest
    path = jobs.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
