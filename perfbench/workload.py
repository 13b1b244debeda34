"""What run.py needs from a workload, with the in-process defaults."""

from __future__ import annotations

import hashlib
import os


class Workload:
    NAME = ""
    CHILDREN = False  # ops run in child processes; peak RSS is the largest child's

    def generate(self, seed: int, quick: bool = False) -> list[dict]:
        """The op list for a seed; quick gives a short list for the self-check."""
        raise NotImplementedError

    def setup(self, pkg, ops):
        """Program set-up after a fresh import of ratapprox; returns the state."""
        raise NotImplementedError

    def run(self, state, op):
        """One timed op; returns its output."""
        raise NotImplementedError

    def failed(self, op, out) -> bool:
        return False

    def expected_failures(self, ops) -> int:
        return 0

    def text(self, out) -> str:
        """The output as text, for the first round's record and the digests."""
        raise NotImplementedError

    def record(self, op, out, workdir: str, i: int) -> str:
        path = os.path.join(workdir, f"{self.NAME}-{i}.out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text(out))
        return path

    def digest(self, out) -> str:
        return hashlib.sha256(self.text(out).encode()).hexdigest()

    def check(self, op, rec: str, schemas, cache: dict) -> None:
        """Raise AssertionError unless the recorded output is right."""
        raise NotImplementedError

    def describe(self, op) -> str:
        return " ".join(op["argv"]) if "argv" in op else repr(op)

    # -- tracing -----------------------------------------------------------

    def install_tracer(self, tracer, state) -> None:
        import ratapprox

        tracer.install(ratapprox)

    def uninstall_tracer(self, tracer, state) -> None:
        tracer.uninstall()

    def trace_op(self, tracer, op, out) -> None:
        pass

    def trace_summary(self, tracer, state) -> dict:
        return tracer.summary()

    def dump_spans(self, tracer, path: str) -> None:
        tracer.dump(path)

    def import_ms(self, summary: dict, import_s: float) -> float:
        return 1000 * import_s
