import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _shows(comment, value):
    """True if comment begins with repr(value), followed by the end, a
    space, a comma or a colon; each "..." in the comment stands for any
    text."""
    shown = repr(value)
    return any(
        re.fullmatch(".*?".join(map(re.escape, comment[:end].split("..."))), shown)
        for end in range(len(comment), 0, -1) if comment[end:end + 1] in ("", " ", ",", ":")
    )


def test_readme_library_block_shows_what_it_computes():
    # Runs the README's "Library" block and checks every line of the form
    # `expression  # value` against the repr of what the expression gives.
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, pending, checked = {}, [], 0
    for line in block.splitlines():
        shown = re.fullmatch(r"(\S.*?)\s+# (.*)", line)
        if shown is None:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        expression, comment = shown.groups()
        value = eval(expression, namespace)
        assert _shows(comment, value), (expression, value, comment)
        checked += 1
    exec("\n".join(pending), namespace)
    assert checked == 9
