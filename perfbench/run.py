"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload whatif_24h --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/harness.py`` for both catalogues). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The package
is imported from the checkout's ``src`` directory only: without it the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_harness():  # type: ignore[no-untyped-def]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    from perfbench import harness

    return harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness = _import_harness()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            + ", ".join(harness.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    # The scratch stores stay inside the checkout: the benchmark reads and
    # writes nothing outside it.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        report = harness.measure(
            workload, args.seed, args.seconds, bool(args.trace), Path(workdir)
        )
    print(harness.render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
