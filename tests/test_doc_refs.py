"""Test-file references in docstrings and DESIGN.md stay truthful.

Docstrings and the design document point readers at the suite that
pins a claim (``tests/test_sim_parity.py``,
``tests/test_kernel_parity.py::TestKernelMatchesOracle``).  Every such
reference must name an existing file and, when qualified with
``::Name``, a class or function defined in that file.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REFERENCE = re.compile(r"\b((?:tests|benchmarks)/[\w/]+\.py)(?:::(\w+))?")


def _documents():
    yield ROOT / "DESIGN.md"
    yield from sorted((ROOT / "src").rglob("*.py"))


def _references():
    found = []
    for doc in _documents():
        text = doc.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in REFERENCE.finditer(line):
                where = f"{doc.relative_to(ROOT)}:{lineno}"
                found.append((where, match.group(1), match.group(2)))
    return found


def test_documents_reference_tests():
    assert len(_references()) >= 10


def test_every_reference_names_an_existing_test():
    broken = []
    for where, path, name in _references():
        target = ROOT / path
        if not target.is_file():
            broken.append(f"{where}: missing file {path}")
            continue
        if name is None:
            continue
        source = target.read_text(encoding="utf-8")
        if not re.search(rf"^\s*(?:class|def)\s+{name}\b", source, re.M):
            broken.append(f"{where}: {name} is not defined in {path}")
    assert not broken, "\n".join(broken)
