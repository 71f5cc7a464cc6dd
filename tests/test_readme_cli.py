"""Every line of README's CLI block runs as written and prints JSON."""
import json
import shlex
from pathlib import Path

from mnl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# values the README comments state, by command line
STATED = {
    "ex --pattern 11 --n 5": ("value", 5),
    "seq-ex --sequence abab --n 4": ("value", 7),
    "og-ex --graph n=3;1 3;2 3 --n 5": ("value", 4),
    "reduce scan --pattern 101/011": ("sequence", "aba"),
    "bounds matrix --k 2": ("bound", 579),
    "bounds seq --k 2": ("bound", 60),
    "bounds og --k 2": ("bound", 13959),
}


def _cli_lines() -> list[list[str]]:
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_cli_block(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_text("11\n")
    lines = _cli_lines()
    assert lines and all(argv[0] == "mnl" for argv in lines)
    checked = set()
    for argv in lines:
        code = main(argv[1:] + ["--cache", str(tmp_path / "cache.jsonl")])
        out = capsys.readouterr().out
        assert code == 0, argv
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs, argv
        command = " ".join(argv[1:])
        if command in STATED:
            field, value = STATED[command]
            assert docs[0][field] == value, command
            checked.add(command)
    assert checked == set(STATED)
