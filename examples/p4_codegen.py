#!/usr/bin/env python3
"""Emit the P4_16 HashFlow program for a chosen configuration.

The paper implements HashFlow on bmv2 (a P4 software switch); this
example generates the corresponding P4_16 source from the same
parameters the Python collector takes, prints its structure, and writes
it next to the script — ready for `p4c --target bmv2`.

Run:  python examples/p4_codegen.py [output.p4]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.specs import build
from repro.switchsim.codegen import generate_p4

MEMORY_BYTES = 1 << 20  # the paper's 1 MB


def main() -> None:
    # Size the tables exactly like the Python collector under 1 MB.
    collector = build("hashflow", memory_bytes=MEMORY_BYTES)
    program = generate_p4(
        total_cells=collector.main.n_cells,
        depth=collector.main.depth,
        alpha=collector.main.alpha,
        ancillary_cells=collector.ancillary.n_cells,
        digest_bits=collector.ancillary.digest.bits,
        seed=1,
    )

    lines = program.splitlines()
    registers = [l.strip() for l in lines if l.strip().startswith("register<")]
    print(f"generated {len(lines)} lines of P4_16 for "
          f"{collector.main.n_cells} main cells "
          f"(pipelined α={collector.main.alpha}, d={collector.main.depth})\n")
    print("register layout:")
    for reg in registers:
        print(f"  {reg}")

    stages = sum(1 for l in lines if "---- main table" in l)
    print(f"\nprobe stages in ingress: {stages}")
    print("promotion branch:", "present" if "min_table" in program else "missing")

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("hashflow.p4")
    out.write_text(program)
    print(f"\nwrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
