"""Byte-level pins of the CLI output.

Each case runs one subcommand in-process and hashes its whole standard
output, trailing newline included, so any change to the canonical bytes of
a report (key order, number formatting, map strings in messages) fails here.
The generated configurations of the benchmark grids are pinned the same way.
"""

import hashlib
import json

import pytest

from blowup_rigidity.cli import main
from blowup_rigidity.report import SweepCase, default_s, product_cases, resolve_case

CONFIGS = {
    "C0": {"n": 2, "r": 2, "s": [2, 3], "q": 13, "base": [[1, 2], [3, 4, 5]]},
    "C1": {"n": 3, "r": 3, "s": [1, 2, 3], "q": 13, "base": [[1], [1, 2], [1, 2, 4]]},
    # axis 1 is stabilized by z -> 4z, of order 6 > n
    "non_generic": {"n": 3, "r": 2, "s": [2, 3], "q": 13, "zeta": 3,
                    "base": [[1, 4], [1, 2, 4]]},
}

GOLDEN = [
    ("C0", ["verify"], "f186d13f96c03fd8ca89960f1622c9ee5ed7e716122b7d591fb8695609add99a"),
    ("C0", ["rigidity"], "21f075d76665e82fbcef11d9b399e8e95e55007fc4630e5284217c28928d3ab4"),
    ("C0", ["vector-fields"], "87e2325fe3ecbbe170444373848a60f898597c08134980f5de5ff2d196f8d23d"),
    ("C0", ["verify", "--q-extra", "17"],
     "b5f0ddd2395fb2e73f7d315ff3865db5ccf5af7abb4a8ae9db5d04a40df585ca"),
    ("C1", ["verify"], "21d5e29f7e8b0a3d90ea79381b024f2ce4cab94c0d45ee68163e7ecf844883dc"),
    ("C1", ["rigidity"], "fbdce147f24e591583d7fc9a6452afbb7f8311b41191128de55a3a67b47a1656"),
    ("C1", ["vector-fields"], "c26fa0bf9f1aa5f4aad0fa91c73a7508341cf0465e158da7e5757e1b89b0d715"),
    ("non_generic", ["verify"],
     "2aaabb75b7c9c355f1fa7b2f26195002f62084e331b09b9209f8a8fd1ff06ec4"),
    ("non_generic", ["rigidity"],
     "88608716a5d21a1d8820ab9a19de70f853490f51f6cc9bdb7702af566ca91006"),
    ("non_generic", ["vector-fields"],
     "649f071a0e2334ec45229bd58a991faaa19141009586afc0ffde767cf04cf248"),
    ("C0", ["graph"], "ec14e428a93e2dabc2c85d7b50a5917dafdff5fb43fdad08c138970ad5d0874d"),
    ("C0", ["pairing-table"],
     "c16c1134b22c1e2b6da6f94cf35857ab3c68f24abb1f03528f2ecb141b264499"),
    ("C1", ["graph"], "3b719a80764f30e679f1a59fc59e78f4c7276a45fa57c019adbb76086d07ecb9"),
    ("C1", ["pairing-table"],
     "31a586f6b0d6c5f1f764e1f8cc43caae5b5c3c1c4bfc5aba2576c073e2310a4d"),
    ("non_generic", ["graph"],
     "52af8235846f55f5d6b6b2b3fb8a29175429ac59e87f7055f8439db8defc65ee"),
    ("non_generic", ["pairing-table"],
     "933c2087ce7e2ed7f869487af2f0266d9f697444490f090b20b120ecb867a675"),
    ("C0", ["extremal"], "1193514888b0bd316de23e591b2a337bf6ac64f101d27eababf469c737409dd7"),
    ("C0", ["extremal", "--json"],
     "4e503f241faf85a6c7908dd0679a757e33939ed1558265119ce5ef32fe6a95d8"),
    ("C1", ["extremal"], "68005cbb0c5536629679a92cc73dc0ca65a0af4735338e9ed3c468eb07a1a95a"),
    ("C1", ["extremal", "--json"],
     "45b4bf74f532d0722543d5406daaa84b31e8ed0cdb85f77f9469b107a2a65dc2"),
    ("non_generic", ["extremal"],
     "e5ad754b991220df668bb9ac0cdb908df8025c3e4db23efc43f064562ae62b43"),
    ("non_generic", ["extremal", "--json"],
     "b596e69e3ba22077f7c840021c900712ea51f6166c56d381337abf4ed454467a"),
    ("C0", ["verify", "--format", "md"],
     "8c80335dd34a76f7c5a75c4ec0748c10e4445a2c746755a76b8944538a170411"),
]

# sha256 of the file written by `graph --dot`
GOLDEN_DOT = {
    "C0": "702170057960eef5743381f8d01f88ff477a49a468f6e56d94ec72e8bb03f095",
    "C1": "acf82984470ee02d0e8ed23479712a6da6dd4b1760004edb545f4ecc48713237",
    "non_generic": "d5aea6d9931b825c9552760005d752e9ba21414e139ed2a75fed39b05be30b5d",
}

# sha256 of the file written by `vector-fields --matrix`
GOLDEN_MATRIX = {
    "C0": "5b77be5fb2bf6341e609d6e454756f0e31dcdbc9b56bab4cda62e74aa98d543b",
    "C1": "07f75d8ec69d39ac117d910c2242e7fca14aa0d6659ca74df3d4fbf8eec679f0",
    "non_generic": "71a963efe69b083db977df706730c0d84297deed2068bc9ff428d75cb0a5ab89",
}


@pytest.mark.parametrize(
    "name,argv,digest", GOLDEN, ids=[f"{n}-{' '.join(a)}" for n, a, _ in GOLDEN]
)
def test_cli_stdout_sha256(name, argv, digest, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    main([argv[0], "--config", str(path), *argv[1:]])
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_DOT))
def test_graph_dot_sha256(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    dot = tmp_path / f"{name}.dot"
    main(["graph", "--config", str(path), "--dot", str(dot)])
    capsys.readouterr()
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == GOLDEN_DOT[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRIX))
def test_vector_fields_matrix_sha256(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    matrix = tmp_path / f"{name}.matrix.json"
    main(["vector-fields", "--config", str(path), "--matrix", str(matrix)])
    capsys.readouterr()
    assert hashlib.sha256(matrix.read_bytes()).hexdigest() == GOLDEN_MATRIX[name]


# Generated configurations, pinned so that config generation keeps drawing
# the same Lcg sequence and accepting the same bases.  The grids follow the
# benchmark workloads in perfbench/cases.py: `sweep` is its product grid,
# `ladder` the C0/C1 shapes at q = 13 plus the generated (n, r, q) rungs,
# `wide` the smallest-q (n, r) cases, each generated at the given seed.
GENERATION_CASES = {
    "sweep": lambda seed: product_cases([2, 3, 4, 5, 6, 7], [2, 3], seed=seed, variants=2),
    "ladder": lambda seed: [
        SweepCase(n, r, s, q=q, seed=seed)
        for n, r, s, q in [(2, 2, (2, 3), 13), (3, 3, (1, 2, 3), 13)]
        + [(n, r, default_s(n, r), q) for n, r, q in [(3, 4, 19), (5, 4, 31), (4, 5, 29)]]
    ],
    "wide": lambda seed: [
        SweepCase(n, r, default_s(n, r), seed=seed) for n, r in [(2, 5), (3, 5), (2, 6)]
    ],
}

# sha256 of the newline-joined canonical_json() of each generated config
GOLDEN_GENERATION = {
    ("sweep", 1): "10fcef81d110ec89d8a2708bef242fc9f2b8802b9c7f50f1a74780c9465bfd45",
    ("sweep", 7): "1e8cb47225f0e2d6854b33affd7a6402dda3f1d4dacc73d3123a2d59088a8c49",
    ("ladder", 1): "2da79a01a293a03d10ff2dabe1797c80cc5a18668d82647919f9cba847817697",
    ("ladder", 7): "c5aa6d3fef23b74774e2c07cd896236a2b0006fa3472a6712d15f0d0aa8a714d",
    ("wide", 1): "edfca4b8ca53b286a4a69c4289854a1d4f751c75f91e415722dc6de6a8695f17",
    ("wide", 7): "23bb1008cd664581f3c3978a0e333920d50d590e9ac9a5e462774e03f3ab75f5",
}


@pytest.mark.parametrize(
    "workload,seed", sorted(GOLDEN_GENERATION),
    ids=[f"{w}-seed{s}" for w, s in sorted(GOLDEN_GENERATION)],
)
def test_generated_configs_sha256(workload, seed):
    text = "\n".join(
        resolve_case(case).canonical_json() for case in GENERATION_CASES[workload](seed)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GENERATION[(workload, seed)]


# sha256 of `sweep --draws 50 --extra-q` stdout on the grid n in {2, 3, 4},
# r in {2, 3}, two s-variants; serial and forked runs print the same bytes
GOLDEN_SWEEP = {
    1: "a52521eec9ffd929c61c2620ff64e540accde8cd9ca08e38645e053f119517dc",
    7: "1d23822fbede18a70d9fce08e6a22b2f4b5cb58cc6b7b0a47a14cc96b5729215",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", sorted(GOLDEN_SWEEP))
def test_sweep_stdout_sha256(seed, jobs, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": [2, 3, 4], "r": [2, 3], "variants": 2, "seed": seed}))
    code = main(["sweep", "--spec", str(spec), "--draws", "50", "--extra-q",
                 "--jobs", str(jobs)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP[seed]
