"""Byte-level pins of the CLI output.

Each case runs one subcommand in-process and hashes its whole standard
output, trailing newline included, so any change to the canonical bytes of
a report (key order, number formatting, map strings in messages) fails here.
The generated configurations of the benchmark grids are pinned the same way,
and the seeds of the random checks' draws are pinned as values.
"""

import hashlib
import json

import pytest

from blowup_rigidity.cli import main
from blowup_rigidity.fieldgeom import Config, config_seed
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

# `verify` stdout for base tables that the marked set refuses: each stops at
# a config.delta FAIL record and exits 1.  12 = zeta * 1 mod 13 lies in the
# orbit of axis 1's first entry.
INVALID_BASES = {
    "zero_base": [[1, 0], [3, 4, 5]],
    "orbit_collision": [[1, 12], [3, 4, 5]],
}
GOLDEN_INVALID_BASE = {
    "zero_base": "c3bb9c6382ab840b055385a8b9ea513191143672dfd555001bf21e2df3129dea",
    "orbit_collision": "19190cafc6783e693855a4cd659c53a98bc57ada02bf690692a6cebaa4e2e110",
}

# `verify --q-extra` stdout with a large second field, so that its base is
# drawn among thousands of scaling orbits; keyed by (config, q2, seed), the
# seed being added to the config file so that it moves the second-field draws
GOLDEN_EXTRA_Q = {
    ("C0", 10007, 1): "85bfa951e077390825f184a4a16cb758a138e67aa969f572c15fd7dd7ead307d",
    ("C0", 10007, 7): "f6b9217778fdda0592763efe90730065bf6631346d593382a79900fcc3b6a82f",
    ("C1", 10009, 1): "5e8761db50cf4f64150edddf359629a1767b9bd5c934ac52c4463d3fb48cd7c8",
    ("C1", 10009, 7): "ad88c41a570073c2b1c9c424645bf99d8e92a8c0ebea53963996ae416882d52b",
}

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


# Generated configurations with r >= 4, whose gamma blocks sit at vertex
# offsets that C0, C1 and non_generic (r <= 3) do not reach.  Each is written
# to its config file as resolve_case gives it, seed included.
GENERATED = {
    "n3r4q19": SweepCase(3, 4, default_s(3, 4), q=19, seed=1),
    "n2r5": SweepCase(2, 5, default_s(2, 5), seed=1),
}

# sha256 of `graph` stdout, of the file written by `graph --dot`, and of
# `rigidity`, `extremal` and `extremal --json` stdout, per generated
# configuration
GOLDEN_GENERATED = {
    ("n3r4q19", "graph"): "b26e085e094b9a710b57594ec7468e91a12cdac793b26816e2e2601e6208a1cc",
    ("n3r4q19", "dot"): "7687404e16063b4548d4a68b318f4437b63d715f5812b1839efee0daa0c3178d",
    ("n3r4q19", "rigidity"): "e8bbd05b69d36e6ae1e9d196cfdc76d2c25fcccdb67fbd8c2b81fd047f3f0bc3",
    ("n2r5", "graph"): "1f6af91304bed3d3e6eff69f9a566074d10a8fa42f2214b6ed55fec352390aa2",
    ("n2r5", "dot"): "6302eab1f807968750ed0f4f77c12ee75cd58d1aa10c32c74b7e31e3e7529001",
    ("n2r5", "rigidity"): "622e04a03ffc1625ebbdded4944eaa1f96d515cef121531bfa5df61aeb962de4",
    ("n3r4q19", "extremal"): "209a9453866da65943c86ad0632d998d8ed2f987c7a66821cf6e7d21b53b3729",
    ("n3r4q19", "extremal-json"):
        "a16b1d729524d0d2bb453365c4c7a4417c5dadf930c89872ec932fcb39bdd926",
    ("n2r5", "extremal"): "3643a138467e2185ba13e8ab86170507919ce72fa30d9a65e05d249acf1189d2",
    ("n2r5", "extremal-json"): "d9583c09970f7d1f23dae69fb9d020da042e5722e6d5ac3c5a8a3473cf1be0ed",
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


@pytest.mark.parametrize("name", sorted(GOLDEN_INVALID_BASE))
def test_verify_invalid_base_sha256(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(CONFIGS["C0"], base=INVALID_BASES[name])))
    assert main(["verify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_INVALID_BASE[name]


@pytest.mark.parametrize(
    "name,q2,seed", sorted(GOLDEN_EXTRA_Q),
    ids=[f"{n}-q{q}-seed{s}" for n, q, s in sorted(GOLDEN_EXTRA_Q)],
)
def test_verify_large_extra_q_sha256(name, q2, seed, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(CONFIGS[name], seed=seed)))
    main(["verify", "--config", str(path), "--q-extra", str(q2)])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EXTRA_Q[(name, q2, seed)]


@pytest.mark.parametrize("name", sorted(GOLDEN_DOT))
def test_graph_dot_sha256(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    dot = tmp_path / f"{name}.dot"
    main(["graph", "--config", str(path), "--dot", str(dot)])
    capsys.readouterr()
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == GOLDEN_DOT[name]


@pytest.mark.parametrize(
    "name,output", sorted(GOLDEN_GENERATED), ids=[f"{n}-{o}" for n, o in sorted(GOLDEN_GENERATED)]
)
def test_generated_graph_and_rigidity_sha256(name, output, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(resolve_case(GENERATED[name]).canonical_json())
    dot = tmp_path / f"{name}.dot"
    argv = {"graph": ["graph"], "dot": ["graph", "--dot", str(dot)],
            "rigidity": ["rigidity"], "extremal": ["extremal"],
            "extremal-json": ["extremal", "--json"]}[output]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    out = capsys.readouterr().out
    data = dot.read_bytes() if output == "dot" else out.encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_GENERATED[(name, output)]


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRIX))
def test_vector_fields_matrix_sha256(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    matrix = tmp_path / f"{name}.matrix.json"
    main(["vector-fields", "--config", str(path), "--matrix", str(matrix)])
    capsys.readouterr()
    assert hashlib.sha256(matrix.read_bytes()).hexdigest() == GOLDEN_MATRIX[name]


# fieldgeom.config_seed per config and salt: the seeds of the random draws of
# lattice.multidegree_expansion, cone.case2_membership, cone.case3_identity
# and vectorfields.kernel_extra (at q = 17).  A changed seed changes the
# drawn vectors even where every check still passes and the stdout pins hold.
GOLDEN_SEEDS = {
    ("C0", "expansion"): 0xE682ECE1433DD847,
    ("C0", "case2"): 0xA8F416650529B3B6,
    ("C0", "case3"): 0x91417F2EB63204D9,
    ("C0", "extra_q=17"): 0xC42DE1F4DAD96DD0,
    ("C1", "expansion"): 0x4DD2DDA9A2B3DCD4,
    ("C1", "case2"): 0xB305815B37F05308,
    ("C1", "case3"): 0x0F2E56C067AEB212,
    ("C1", "extra_q=17"): 0x7D1EFD1647D6B751,
    ("non_generic", "expansion"): 0xAEB237F431AC83F5,
    ("non_generic", "case2"): 0x5620AC1975778476,
    ("non_generic", "case3"): 0x23C1FE39077E8766,
    ("non_generic", "extra_q=17"): 0x2FC974E068434A29,
}


@pytest.mark.parametrize(
    "name,salt", sorted(GOLDEN_SEEDS), ids=[f"{n}-{s}" for n, s in sorted(GOLDEN_SEEDS)]
)
def test_config_seed(name, salt):
    config = Config.from_dict(CONFIGS[name])
    assert config_seed(config, salt) == GOLDEN_SEEDS[(name, salt)]


# Generated configurations, pinned so that config generation keeps drawing
# the same Lcg sequence and accepting the same bases.  The grids follow the
# benchmark workloads in perfbench/cases.py: `sweep` is its product grid,
# `ladder` the C0/C1 shapes at q = 13 plus the generated (n, r, q) rungs,
# `wide` the smallest-q (n, r) cases, each generated at the given seed.
# `grid_r45` widens the product grid to r = 4, 5, where more bases are
# rejected before a generic one is found.
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
    "grid_r45": lambda seed: product_cases([2, 3, 4, 5, 6, 7], [4, 5], seed=seed, variants=2),
}

# sha256 of the newline-joined canonical_json() of each generated config
GOLDEN_GENERATION = {
    ("sweep", 1): "10fcef81d110ec89d8a2708bef242fc9f2b8802b9c7f50f1a74780c9465bfd45",
    ("sweep", 7): "1e8cb47225f0e2d6854b33affd7a6402dda3f1d4dacc73d3123a2d59088a8c49",
    ("ladder", 1): "2da79a01a293a03d10ff2dabe1797c80cc5a18668d82647919f9cba847817697",
    ("ladder", 7): "c5aa6d3fef23b74774e2c07cd896236a2b0006fa3472a6712d15f0d0aa8a714d",
    ("wide", 1): "edfca4b8ca53b286a4a69c4289854a1d4f751c75f91e415722dc6de6a8695f17",
    ("wide", 7): "23bb1008cd664581f3c3978a0e333920d50d590e9ac9a5e462774e03f3ab75f5",
    ("grid_r45", 1): "b7eebd5d6a535124acf7c967d95a49bc295eecb8f0b32326fc2b3ac080be8380",
    ("grid_r45", 7): "d213d3d65554c8167bfe07599363eb5bad0a440ba4be1d4763310ec96d3b20ba",
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
