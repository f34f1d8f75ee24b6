"""Record the analyze answer digests that the benchmark checks against.

Run from the root of a checkout, only at a commit whose answers are
trusted:

    python3 perfbench/record_digests.py

It analyzes every input the ``analyze_allpairs`` workload can draw (the Cantor
inputs and each random piecewise-linear model of the set, at full and
smoke-test size) and writes ``perfbench/digests.json``.  A later commit
must reproduce these digests; a changed answer is a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import bench


def main() -> int:
    table = {}
    for scale, size in bench.SIZES.items():
        inputs = bench.analyze_inputs(size, range(size["rpl_pool"]))
        with tempfile.TemporaryDirectory(dir=bench.ROOT) as work:
            doc_path, out_path = os.path.join(work, "f.json"), os.path.join(work, "out.json")
            for label, model, flags in inputs:
                doc = model.doc()
                bench.write_doc(doc_path, doc)
                code = bench.qcvx.cli.main(["analyze", doc_path, *flags, "--no-timestamp", "--out", out_path])
                if code != 0:
                    raise SystemExit(f"{scale}/{label}: exit code {code}")
                with open(out_path, "r", encoding="utf-8") as handle:
                    digest = bench.answer_digest(json.load(handle))
                table[bench.input_key(doc, flags)] = {"label": f"{scale}/{label}", "digest": digest}
                print(f"{scale}/{label} {digest[:16]}", file=sys.stderr)
    with open(bench.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
