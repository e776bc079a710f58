import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    """Every source file parses with Python 3.10's grammar (pyproject's
    requires-python).

    `feature_version` is best effort: the parser rejects some newer syntax,
    such as 3.11's `except*`, but not every newer construct, nor any call of a
    newer library function. CI's 3.10 job stays the real check.
    """
    sources = [p for folder in ("src", "tests", "scripts", "perfbench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
