"""The README's library examples run as written."""

import re
from pathlib import Path

import networkx as nx
import numpy as np

from onmf import write_pgm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    graph = nx.connected_watts_strogatz_graph(60, 4, 0.2, seed=1)
    (tmp_path / "net.txt").write_text(
        "".join(f"{u} {v}\n" for u, v in graph.edges()))
    write_pgm(tmp_path / "picture.pgm",
              np.random.default_rng(0).random((32, 40)))
    monkeypatch.chdir(tmp_path)
    namespace = {}    # shared: a later block uses the names of earlier ones
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"),
             namespace)
