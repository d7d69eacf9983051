"""The CI workflow's explicit test lists stay complete.

The workflow's "Property tests on fresh examples" step names, one by one,
the test modules whose ``@given`` tests it reruns with fresh examples.  A
new property-test module that is not added there would only ever replay
tier-1's derandomized examples, and a listed module that is deleted, or
has no ``@given`` left, fails the step with "file or directory not found"
or reruns nothing.  These checks read the workflow as text and fail in
either case.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Property tests on fresh examples"
# a @given decorator line, not the word in a docstring
GIVEN = re.compile(r"^\s*@given\(", re.MULTILINE)


def step_text(workflow: str, name: str) -> str:
    """The lines of the step ``- name: <name>``, up to the next step."""
    lines = workflow.splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.strip() == f"- name: {name}"]
    end = next((i for i in range(start + 1, len(lines)) if lines[i].strip().startswith("- name:")), len(lines))
    return "\n".join(lines[start:end])


def listed_modules() -> set[str]:
    return set(re.findall(r"\btests/(test_\w+\.py)\b", step_text(WORKFLOW.read_text(encoding="utf-8"), STEP)))


def property_test_modules() -> set[str]:
    with_given = {
        path.name
        for path in (ROOT / "tests").glob("test_*.py")
        if GIVEN.search(path.read_text(encoding="utf-8"))
    }
    assert with_given, "no @given test module found"
    return with_given


def test_every_property_test_module_gets_fresh_examples_in_ci():
    assert sorted(property_test_modules() - listed_modules()) == [], f"add these to the workflow step {STEP!r}"


def test_every_module_the_step_lists_has_property_tests():
    assert sorted(listed_modules() - property_test_modules()) == [], (
        f"remove these from the workflow step {STEP!r}: deleted, or no @given left"
    )
