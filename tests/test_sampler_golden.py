"""Chain summaries and sampler/enumeration CLI output, pinned byte for byte.

The chain summaries and the two `aym sample` outputs in golden_chains.json
were recorded by the commit that followed af1732e, whose sampler draws one
entry of the fixed move table uniformly each step, stays put when the move
would empty a sector and otherwise accepts with the exact integer weight
ratio.  The `disconnected` and `one_sector` chains (whose move tables are
empty) and both `aym enumerate` outputs are unchanged since commit cc6e6b5.
The cases cover the 1,2,3 / 4 / 8 oracle (also with the enumeration cap
below and at its 3 states), the 1..5 / 7 / 17 small ladder, a zero bottom
level, a half-unit lattice, non-uniform lattices, the disconnected 1,3,4
instance, a single sector and the g=10, n=60, D=180 ladder whose feasible
set is far past the cap.
"""

import json
from pathlib import Path

import pytest

from aym import ChainConfig, EconomyParams, run_chain
from aym.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_chains.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["chains"], ids=lambda case: case["name"])
def test_chain_summary_matches_golden(case):
    params = EconomyParams(tuple(case["levels"]), case["n"], case["D"])
    summary = run_chain(params, ChainConfig(**case["config"]),
                        max_enumeration=case["max_enumeration"])
    assert json.dumps(summary.to_json_dict()) == json.dumps(case["summary"])


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda case: case["name"])
def test_cli_stdout_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out.encode() == case["stdout"].encode()
