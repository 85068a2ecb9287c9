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


def test_readme_command_line_names_every_option_and_exit_code():
    # Every long option of the parser but --help appears in the README's
    # "Command line" section, and its list of exit codes is cli's EXIT_*.
    from rootmult import cli

    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    assert sorted(opt for opt in options if f"`{opt}" not in section) == []
    listed = re.findall(r"^- (\d+) ", section.split("Exit codes:", 1)[1], re.M)
    exits = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert sorted(map(int, listed)) == sorted(exits)
