"""Child process of the cli-session workload: runs one fingeo CLI command.

    python3 cli_shim.py TRACE_OUT fingeo-arguments...

TRACE_OUT is "-" for an untraced command.  Otherwise the layer tracer is
installed before ``fingeo.cli.main`` runs, and when the command ends (also
by an exception, which still propagates) its per-name span summary,
counters and the time spent inside main are written to TRACE_OUT as JSON,
and the raw spans to TRACE_OUT.spans.gz.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

trace_out, argv = sys.argv[1], sys.argv[2:]
if trace_out == "-":
    from fingeo.cli import main

    sys.exit(main(argv))

import json  # noqa: E402

sys.path.insert(0, HERE)
import fingeo.cli  # noqa: E402
import tracer  # noqa: E402

tr = tracer.Tracer()
tracer.install(tr)
t0 = time.perf_counter()
try:
    code = fingeo.cli.main(argv)
finally:
    main_s = time.perf_counter() - t0
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.summary(), "counters": tr.counters, "main_s": main_s}, fh)
    tr.write(trace_out + ".spans.gz")
sys.exit(code)
