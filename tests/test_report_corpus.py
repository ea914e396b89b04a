"""tools/report_corpus.py on a fixed-seed slice: the draw is fixed by its
seed and covers every (command, setting) cell, one checkout run once names
every cell with 0 differing, and a report changed by one byte makes its
cell, and only its cell, differ, with that report printed.  The command
line prints one line per cell and the count of differing cells.  The
distinguish ops of a fixed slice reach all four outcomes, a separating
quadratic field among them."""

import copy
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("report_corpus", ROOT / "tools" / "report_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

SLICE = len(corpus.COMMANDS) * len(corpus.SETTINGS)  # one op per cell


def test_draw_is_fixed_by_its_seed():
    ops = corpus.draw(0, SLICE)
    assert ops == corpus.draw(0, SLICE)
    assert corpus.draw(0, 2 * SLICE)[:SLICE] == ops
    assert ops != corpus.draw(1, SLICE)
    cells = {corpus.cell_name(c, b, p) for c in corpus.COMMANDS for b, p, _ in corpus.SETTINGS}
    assert [cell for cell, _ in ops] == list(dict.fromkeys(cell for cell, _ in ops))
    assert {cell for cell, _ in ops} == cells
    formats = {argv[argv.index("--format") + 1] for _, argvs in ops for argv in argvs}
    assert formats == {"text", "json"}


def test_one_checkout_against_itself_and_a_changed_report():
    ops = corpus.draw(0, SLICE)
    results = corpus.run_root(ROOT, ops)
    assert len(results) == SLICE
    assert all(len(runs) == len(argvs) for (_, argvs), runs in zip(ops, results))
    lines, differing = corpus.compare(ops, ["A", "B"], [results, results])
    assert differing == 0 and len(lines) == SLICE
    assert not any(line.endswith("DIFF") for line in lines)
    # the fourth op's report gains one byte: exactly its cell differs
    changed = copy.deepcopy(results)
    code, out, err = changed[3][-1]
    changed[3][-1] = [code, out + " ", err]
    lines, differing = corpus.compare(ops, ["A", "B"], [results, changed])
    assert differing == 1
    flagged = [line.split()[:3] for line in lines if line.endswith("DIFF")]
    assert flagged == [ops[3][0].split()]
    assert "  first difference, A vs B:" in lines


def test_command_line_over_the_rational_cells(capsys):
    n = len(corpus.COMMANDS)  # the first setting, Q, for every command
    assert corpus.main(["--seed", "0", "--n", str(n), "--root", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"seed 0: {n} ops, {n + 1} reports per root, {n} cells"
    assert [line.split()[:3] for line in lines[1:-1]] == [
        [command, "q", "p=2"] for command in corpus.COMMANDS]
    assert lines[-1] == "0 differing cells"


def test_distinguish_ops_reach_every_outcome():
    ops = [op for op in corpus.draw(0, 420) if op[0].startswith("distinguish ")]
    reports = [runs[-1][1] for runs in corpus.run_root(ROOT, ops)]
    outcomes = {re.search(r'outcome"?: "?([A-Z]\w*)', out)[1] for out in reports}
    assert outcomes == {"Equal", "DistinguishedByRamificationField",
                        "DistinguishedBySpecialization", "CandidateEquivalent"}
    assert any("separating_discriminant" in out for out in reports)
