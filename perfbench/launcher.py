"""Traced cli-mix child: time `import ratapprox.cli`, wrap it, call main.

    python -S perfbench/launcher.py SUMMARY SPANS OP_INDEX <ratapprox arguments>

Stdout, stderr and the exit status are main's, as in an untraced child.  The
span summary is written to SUMMARY and the spans are appended to SPANS.
"""

import os
import sys
import time

t_start = time.perf_counter_ns()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ratapprox.cli  # noqa: E402

t_imported = time.perf_counter_ns()
import tracer  # noqa: E402


def main() -> int:
    summary_path, spans_path, op_index = sys.argv[1:4]
    tr = tracer.Tracer()
    tr.op_index = int(op_index) - 1
    tr.begin_op(t_start)
    tr.add_span("import", "import", t_start, t_imported)
    tr.install(ratapprox)
    rc = 1
    try:
        rc = ratapprox.cli.main(sys.argv[4:])
    finally:
        tr.end_op()
        sys.stdout.flush()
        summary = tr.summary()
        tracer.write_summary(summary_path, summary, {"import_ms": (t_imported - t_start) / 1e6})
        tr.dump(spans_path, "a")
    return rc


if __name__ == "__main__":
    sys.exit(main())
