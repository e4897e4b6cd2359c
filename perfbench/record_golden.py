"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json from the fingeo in the checkout's src/:
for classify-cold, a digest of the full classification report, witnesses
included, of each example in its job list; for
cli-session, the digests of the files the session writes and of every
check, quotient and classify report without its elapsed_s field, with the
exit code.  Run it only at a commit whose outputs are known to be right:
every later run is judged against this record.
"""

import json
import os
import sys

import classify_cold
import cli_session
from common import HERE, fresh_import


def classify_golden(fg):
    out = {}
    for name, q in classify_cold.EXAMPLES:
        fg.projective.build_pg.cache_clear()
        X = fg.gallery.build_example(name, fg.gf.gf(q))
        out[classify_cold.example_key(name, q)] = classify_cold.report_digest(fg.classify.classify(X))
        print(f"classify {name} gf({q})", file=sys.stderr)
    return out


def cli_golden(fg):
    state = cli_session.setup(fg, 0, {cli_session.NAME: {}})
    files, reports = {}, {}
    for label, argv, expect in cli_session.COMMANDS:
        proc = cli_session.execute(state["work"], argv)
        print(f"{label}: exit {proc.returncode}", file=sys.stderr)
        if expect == "file" or (expect == "report" and "--out" in argv):
            out = cli_session.arg(argv, "--out")
            files[out] = cli_session.file_digest(os.path.join(state["work"], out))
        if expect == "report":
            reports[label] = {"exit": proc.returncode, "digest": cli_session.report_digest(proc.stdout)}
    return {"files": files, "reports": reports}


def main():
    fg = fresh_import()
    golden = {classify_cold.NAME: classify_golden(fg), cli_session.NAME: cli_golden(fg)}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
