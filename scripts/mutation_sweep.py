#!/usr/bin/env python3
"""Mutation sweep: which single-operator changes of a module do its tests miss?

Parses ``module`` with ``ast`` and lists its mutation sites: each comparison
operator swapped for its neighbour (``<`` and ``<=``, ``>`` and ``>=``, ``==``
and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``), each arithmetic
operator swapped (``+`` and ``-``, ``*`` and ``/``, ``//`` to ``/``, ``%`` and
``**`` to ``*``), each ``if``/``elif``/``while`` condition and conditional
expression negated, and each nonzero float constant doubled; ``--functions``
keeps the sites inside the named functions.  ``--count`` sites are drawn at
random with ``--seed`` (all of them with ``--count 0``).  Each mutant is
written into a copy of the checkout in a temporary directory, never into the
checkout itself, and the given test files run against it in one pytest call
(``-x``): a failing call kills the mutant, a passing one lets it survive.

Prints one line per mutant, with its text in brackets: ``killed`` or
``survived`` (or ``timeout``, a call past ten minutes, which counts as
killed), then a summary line.  Exit 0 unless an argument is wrong.

Example, from the root of a checkout:
    python3 scripts/mutation_sweep.py src/strbench/trs.py tests/test_trs.py \\
        --functions _secular_newton _tridiagonal_trs --count 0
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT_S = 600  # per pytest call; a mutant that loops forever counts as killed

_COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                  ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
                  ast.In: ast.NotIn, ast.NotIn: ast.In}
_BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
                ast.FloorDiv: ast.Div, ast.Mod: ast.Mult, ast.Pow: ast.Mult}


def mutation_sites(source: bytes, functions=None) -> list[dict]:
    """Every mutant of the UTF-8 ``source``: its line, enclosing function, a
    label, and the byte range to replace with its text (ast's columns count
    bytes)."""
    tree = ast.parse(source)
    starts = [0, 0]  # the offset of each line, 1-based
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    sites = []

    def add(node, where, label, text, target=None):
        target = target or node
        sites.append({"line": node.lineno, "function": where, "label": label,
                      "start": starts[target.lineno] + target.col_offset,
                      "end": starts[target.end_lineno] + target.end_col_offset,
                      "text": text.encode()})

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else where
        if functions is None or where in functions:
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _COMPARE_SWAPS:
                        ops = list(node.ops)
                        ops[i] = _COMPARE_SWAPS[type(op)]()
                        new = ast.Compare(node.left, ops, node.comparators)
                        add(node, where, f"{type(op).__name__} -> {type(ops[i]).__name__}",
                            f"({ast.unparse(new)})")
            elif isinstance(node, ast.BinOp) and type(node.op) in _BINOP_SWAPS:
                swap = _BINOP_SWAPS[type(node.op)]()
                new = ast.BinOp(node.left, swap, node.right)
                add(node, where, f"{type(node.op).__name__} -> {type(swap).__name__}",
                    f"({ast.unparse(new)})")
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = ast.get_source_segment(source.decode(), node.test)
                add(node, where, f"negate {type(node).__name__} test",
                    f"(not ({test}))", target=node.test)
            elif (isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value != 0.0):
                add(node, where, f"{node.value!r} -> {2.0 * node.value!r}",
                    repr(2.0 * node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return sites


def _copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", "runs",
        "out", "*.egg-info", "build"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("module", help="the module to mutate, relative to the checkout's root")
    ap.add_argument("tests", nargs="+", help="test files, relative to the checkout's root")
    ap.add_argument("--count", type=int, default=40, help="mutants to run; 0 runs every site")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--functions", nargs="+", help="only the sites inside these functions")
    args = ap.parse_args(argv)
    if args.count < 0:
        ap.error("--count must be >= 0")
    for rel in (args.module, *args.tests):
        if not (ROOT / rel).is_file():
            ap.error(f"{rel} is not a file under {ROOT}")

    source = (ROOT / args.module).read_bytes()
    sites = mutation_sites(source, set(args.functions) if args.functions else None)
    if args.count and args.count < len(sites):
        sites = sorted(random.Random(args.seed).sample(sites, args.count),
                       key=lambda s: s["start"])
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        _copy_checkout(tree)
        target = tree / args.module
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
        for site in sites:
            target.write_bytes(source[:site["start"]] + site["text"] + source[site["end"]:])
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     *args.tests], cwd=tree, env=env, capture_output=True,
                    timeout=_TIMEOUT_S)
                outcome = "survived" if proc.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                outcome = "timeout"
            killed += outcome != "survived"
            print(f"{args.module}:{site['line']} {site['function']} {site['label']} "
                  f"[{site['text'].decode()}]: {outcome}", flush=True)
    print(f"{len(sites)} mutants, {killed} killed, {len(sites) - killed} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
