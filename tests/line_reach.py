"""Line reach of a test run: which lines of src/procurekit no test executed.

Opt-in, through the option that conftest.py registers:

    pytest --line-reach=unreached.txt

traces the run's main thread with sys.settrace, from before the first test
module is imported, and records every line executed in a file of the
package (which starts no threads). The
lines a file can execute are those of each code object compiled from it,
as code.co_lines() lists them. After the run the unreached ones are
written to the given file, one "path:line: source" entry a line (an empty
file when every line ran), and shown in the terminal summary. Standard
library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "procurekit"


def _code_lines(code) -> set[int]:
    """Line numbers of the instructions of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class LineReach:
    """A pytest plugin that traces the package's lines for one session."""

    def __init__(self, report: Path) -> None:
        self.report = report
        self.files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
        self.executed = {name: set() for name in self.files}
        self.unreached: list[str] = []

    def _trace(self, frame, event, arg):
        # Only frames of the package get a local tracer; others run untraced.
        lines = self.executed.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session) -> None:
        sys.settrace(None)
        for name, path in self.files.items():
            source = path.read_text()
            text = source.splitlines()
            missed = _code_lines(compile(source, name, "exec")) - self.executed[name]
            relative = path.relative_to(PACKAGE.parents[1])
            self.unreached += [f"{relative}:{line}: {text[line - 1].strip()}" for line in sorted(missed)]
        self.report.write_text("".join(f"{entry}\n" for entry in self.unreached))

    def pytest_terminal_summary(self, terminalreporter) -> None:
        total = sum(len(lines) for lines in self.executed.values())
        terminalreporter.section("line reach")
        terminalreporter.write_line(
            f"{len(self.unreached)} unreached lines of src/procurekit ({total} executed); report in {self.report}"
        )
        for entry in self.unreached:
            terminalreporter.write_line(entry)
