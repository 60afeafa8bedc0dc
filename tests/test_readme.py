"""The README's Python library example runs as written."""

import os
import re

from nials import Answer

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def library_example() -> str:
    """The first ```python block after the README's "## Library" heading."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_answers_sat(capsys):
    namespace: dict = {}
    exec(compile(library_example(), README, "exec"), namespace)
    assert namespace["answer"] is Answer.SAT
    values = {name: v for name, _, v in namespace["model"]}
    assert values["x"] * values["y"] == 12
    assert values["x"] < values["y"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "Answer.SAT"
