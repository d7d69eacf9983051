"""The CI workflow's explicit test lists stay complete.

The workflow's "Property tests on fresh examples" step names, one by one,
the test modules whose ``@given`` tests it reruns with fresh examples.  A
new property-test module that is not added there would only ever replay
tier-1's derandomized examples, so this check reads the workflow as text
and fails when one is missing.
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


def test_every_property_test_module_gets_fresh_examples_in_ci():
    listed = set(re.findall(r"\btests/(test_\w+\.py)\b", step_text(WORKFLOW.read_text(encoding="utf-8"), STEP)))
    with_given = {
        path.name
        for path in (ROOT / "tests").glob("test_*.py")
        if GIVEN.search(path.read_text(encoding="utf-8"))
    }
    assert with_given, "no @given test module found"
    assert sorted(with_given - listed) == [], f"add these to the workflow step {STEP!r}"
