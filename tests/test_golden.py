"""Golden artifact hashes: a fixed command set run through ``mems4.cli.main``
must reproduce every artifact byte for byte.

Each case maps to its exit code and the sha256 of every file it writes,
keyed by the path relative to the output root (the run-directory name is
itself a hash of the run configuration).  To regenerate after a change
that is meant to alter the artifacts, run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed table over GOLDEN.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

import mems4.store as store
from mems4.certify import Certificate, replay_certificate
from mems4.cli import COMMANDS, main
from mems4.store import atomic_write_text

CASES = {
    "bounds-csv": ["bounds", "--n", "1..12"],
    "certify-thresholds": ["certify", "thresholds", "--n", "1..40"],
    "certify-m3-gap": ["certify", "m3-gap", "--n", "16..18"],
    "certify-m3-gap-falsified": ["certify", "m3-gap", "--n", "4"],
    "certify-m2-subsolution": ["certify", "m2-subsolution", "--n", "30..32"],
    "certify-m3-stability": ["certify", "m3-stability", "--n", "5..7"],
    "branch-profiles": [
        "branch", "--dim", "3", "--lambda", "1:9:5", "--profiles", "2", "--mesh", "128",
    ],
    "branch-divergence": ["branch", "--dim", "3", "--lambda", "5:100:3", "--mesh", "128"],
    "pullin-homogeneous": ["pullin", "--dim", "2", "--mesh", "128", "--rel-width", "1e-3"],
    "pullin-alpha": [
        "pullin", "--dim", "3", "--mesh", "128", "--rel-width", "1e-3", "--alpha=1/10",
    ],
    "pullin-singular": ["pullin", "--dim", "17", "--mesh", "256", "--rel-width", "1e-4"],
    # A profile is a one-voltage branch.
    "profile-converged": ["branch", "--dim", "3", "--lambda", "5", "--profiles", "1",
                          "--mesh", "128"],
    "profile-divergent": ["branch", "--dim", "3", "--lambda", "500", "--mesh", "128"],
    "search-touchdown-m": [
        "search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "2:3:2",
    ],
    "search-perturbed-touchdown": [
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--alpha-grid", "1:2:2", "--beta-grid", "1/3:2:2",
    ],
    # Checks past certify.STURM_DEGREE, which a sampling fallback once
    # graded; the Bernstein test decides them.
    "search-fallback": [
        "search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "11/2",
    ],
}

GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    "bounds-csv": (0, {
        "bounds-b90b4a1885/config.json":
            "8a4cded1759eb5a7dfcb357df94b0414c8b8a87e2e4ac3e8bc17507c7a5076e8",
        "bounds-b90b4a1885/tables/bounds.csv":
            "4dfe3b41f73266fa2c73967cafd41c553938a559c6ca71608370e9334c574e55",
    }),
    "branch-divergence": (0, {
        "branch-984c0a3454/branch.jsonl":
            "9e580b8753f36170c23660bd76ce3f44ba16fb9905b4107f324c69c2578d95fb",
        "branch-984c0a3454/config.json":
            "d9257c8ff48c4529a10f0bae36a50507c5e6b84f20dd8fe1e5f66735ac6d3986",
    }),
    "branch-profiles": (0, {
        "branch-d9896a6931/branch.jsonl":
            "ea578ff2cebc3d1a982e6edeedd83d75891bf0d2af59ee77793e9a613cad514a",
        "branch-d9896a6931/config.json":
            "772856dea9e4c10895b8a372d18414b9f7b336e0b69c75cfe3ee9ba25791b0ac",
        "branch-d9896a6931/profiles/lambda-1.0.csv":
            "9574863af2625272ad6f0afbaf918a4b4e05357798f90bf483ed6f2c21381d3f",
        "branch-d9896a6931/profiles/lambda-9.0.csv":
            "6d40bb559ecc6cdb933a87dd32f8136bc0adc9b2300d4eeb4da4a7c4b58ab969",
    }),
    "certify-m2-subsolution": (0, {
        "certify-11b7a6112a/certificates/m2-subsolution-30.json":
            "5c4d303240cfa1bc61bc420a8708c1e956291f386ac50b2bd88c1d1871939e12",
        "certify-11b7a6112a/certificates/m2-subsolution-31.json":
            "327f64821dfdacf805a179331c1fd729e290e353375f76fe1469fc01927285d6",
        "certify-11b7a6112a/certificates/m2-subsolution-32.json":
            "e932a2bd9a6f24b16eded19644450119a217dad2217b21eec3425a36b0c77aac",
        "certify-11b7a6112a/config.json":
            "73bd0fd71a7a6c85953804cc3a6064ba1d235300b2a546d9d7628a0ca4ea894f",
    }),
    "certify-m3-gap": (1, {
        "certify-700159371f/certificates/m3-gap-16.json":
            "30255101dcef09284c867738e5cf2b0040e6d69bb29f7cceb06d62533d3983fb",
        "certify-700159371f/certificates/m3-gap-17.json":
            "f0b42a5913365c31e477e6cf6d2f1390d29a97d6f9a1548c0bf72e39afa382c9",
        "certify-700159371f/certificates/m3-gap-18.json":
            "d80e7e5fd12977383b6f52aa6a53154f71d21ef753b9fc603362df35965c3b1c",
        "certify-700159371f/config.json":
            "63ad310bfa431a15908840775206633d0ce3283fc693250726d4f573e0d8925e",
    }),
    "certify-m3-gap-falsified": (1, {
        "certify-60dce54d88/certificates/m3-gap-4.json":
            "950e7961fd3783502ef399c5e052111f40d0d5d497b42e8840495927b577d54a",
        "certify-60dce54d88/config.json":
            "9418c600643ea4e8a697cc27d0e063dcc2fc44244d318371776c4aa7d076b8d4",
    }),
    "certify-m3-stability": (0, {
        "certify-70a2883d43/certificates/m3-stability-5.json":
            "da586f59d11ab450fa58c74e13b76197175e677a8f802fdc181dd08a89d99b8f",
        "certify-70a2883d43/certificates/m3-stability-6.json":
            "b0f3370c950c300c7836a1b61f643ed348f5a5d6e4c9fd73eb5a72fe32a44a9c",
        "certify-70a2883d43/certificates/m3-stability-7.json":
            "16768da4f40b3a390a4bad62299669835cfd3fb03020465c1830ac27af2ca9e1",
        "certify-70a2883d43/config.json":
            "1c0b7d2b29815ceb5803e880163b791c3afec0529490b18fc6f262a8dfcfcfbb",
    }),
    "certify-thresholds": (0, {
        "certify-207ed4d381/certificates/thresholds-1-40.json":
            "a6f0ee0d0603af55f5249e4bb49f3c146355994eaa2ff374bf3d2cf00d52d1cf",
        "certify-207ed4d381/config.json":
            "611980a8f75343fee054fb13f64af783432fe1bfd44170f4bc13bee80a006b2b",
    }),
    "profile-converged": (0, {
        "branch-c05a97cb6f/branch.jsonl":
            "b3f07211d0d7577fc4355664c15963dd1be2e96411d16c93e1e89af07409cc74",
        "branch-c05a97cb6f/config.json":
            "0adcf274fe325e50779476dc6a850817f37631025578f60694d6c4de9dc2ba88",
        "branch-c05a97cb6f/profiles/lambda-5.0.csv":
            "755966519105f488768f90cb2396734e067e57ceee1e7c51c4bd6d257e9a397c",
    }),
    "profile-divergent": (1, {
        "branch-cf325c0288/branch.jsonl":
            "6a08ac28c894eed051a924ad5d56ffe9cdced210ec53fea0c5f21bdc2b2f08d2",
        "branch-cf325c0288/config.json":
            "3c2a3612398aee539aa86b7a00cf48def32941ea113d0df3920a03921cdfa10b",
    }),
    "pullin-alpha": (0, {
        "pullin-737fdc342c/config.json":
            "bf4faa62edff59812804c774ce00833cf8002ebae6949b451a6db858cd58065e",
        "pullin-737fdc342c/profiles/near-fold.csv":
            "caf3c2c2e5d012cc064db8f7101b32d7da6da57a8ff3aeeba9e780522bf92f7f",
        "pullin-737fdc342c/pullin.json":
            "c98767f18bcaec1dd4afd300a498f0f16f61f6e2bc735a87016b9586a68007dd",
    }),
    "pullin-homogeneous": (0, {
        "pullin-64398a936f/config.json":
            "8b2be6b37cf320cf2c7a9b3fddf3af07299a778d1b0214ac77145e5f90e8a810",
        "pullin-64398a936f/profiles/near-fold.csv":
            "d7c38894450a1f2ee7032fe16353ee2f15bfff9e31b86ef9af1612071585c6a2",
        "pullin-64398a936f/pullin.json":
            "56cf98123068ab3fcd50f810172e559420fef52dfe2f1cbc72f08559364e1c91",
    }),
    "pullin-singular": (0, {
        "pullin-8b646747a5/config.json":
            "bf81e6f3ec8419d17098bfc5802501ad34c4304c277aba78995dcdc04d3645e6",
        "pullin-8b646747a5/profiles/near-fold.csv":
            "278d8319793ad8edf284ad69e37cba72502cf4a948312d79a388c153f43b6a71",
        "pullin-8b646747a5/pullin.json":
            "e6f3e4ec9544b326639376b803e4d94be521f172f92f13979c182d53972441a1",
    }),
    "search-fallback": (0, {
        "search-subsolution-015caeed4a/config.json":
            "26c59f0dba63112128d7eb9bc36c94f978b6818cedff348128f446205e609887",
        "search-subsolution-015caeed4a/search.json":
            "38ddc7d90c28188cf1cb5fc623d2c86241af8006aa68e45f29e4fef8515fee58",
    }),
    "search-perturbed-touchdown": (0, {
        "search-subsolution-faf9d8980e/config.json":
            "d754b521eece4f12d7d117e789c13fe13f3a065065cd675ed25f82ebc0981aaa",
        "search-subsolution-faf9d8980e/search.json":
            "d1a33f0a33bace2125dab0de1ac07b2fb8d6d7680d7dfa42d703f320a9fc1592",
    }),
    "search-touchdown-m": (0, {
        "search-subsolution-c1e93e36e3/config.json":
            "9777e0cd740be13bd31a475e310391457249d4f88a0edb81512036af0315101b",
        "search-subsolution-c1e93e36e3/search.json":
            "00d1f3fce9042f46a0de8bd8a46fe3ba36ae17a4fbf4401ce549db5f6d67ea92",
    }),
}


def artifact_hashes(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_case(name: str, out: Path) -> tuple[int, dict[str, str]]:
    code = main(CASES[name] + ["--out", str(out)])
    return code, artifact_hashes(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_artifact_but_search_json_is_one_text(name, tmp_path, monkeypatch):
    # store.atomic_write_text is the one write path of every artifact
    # except search.json, which write_json_list streams.
    written = []

    def record(path, text):
        written.append(Path(path).relative_to(tmp_path).as_posix())
        atomic_write_text(path, text)

    monkeypatch.setattr(store, "atomic_write_text", record)
    _, hashes = run_case(name, tmp_path)
    assert sorted(written) == [rel for rel in hashes if not rel.endswith("/search.json")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_json_is_the_whole_input(name, tmp_path):
    # Each run is rebuilt from its config.json alone: every key but the
    # command and the schema version is an input, and the rebuilt run
    # writes every artifact byte for byte again.
    _, hashes = run_case(name, tmp_path / "cli")
    (config_path,) = (tmp_path / "cli").glob("*/config.json")
    inputs = json.loads(config_path.read_text())
    command = {c.name: c for c in COMMANDS}[inputs.pop("command")]
    del inputs["schema_version"]
    run = tmp_path / "rebuilt" / config_path.parent.name
    command.run(inputs, run)
    assert artifact_hashes(tmp_path / "rebuilt") == {
        rel: digest for rel, digest in hashes.items() if not rel.endswith("/config.json")
    }


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith(("certify-", "search-"))))
def test_every_written_certificate_replays(name, tmp_path):
    # Each certificate file, and each check of a search report, replays
    # as the JSON value read and as the Certificate read from it.
    run_case(name, tmp_path)
    certs = [json.loads(p.read_text()) for p in tmp_path.glob("*/certificates/*.json")]
    for p in tmp_path.glob("*/search.json"):
        report = json.loads(p.read_text())
        certs += [c for cand in report["candidates"] for c in cand["checks"].values()]
    assert certs
    for d in certs:
        assert replay_certificate(d) and replay_certificate(Certificate.from_json_dict(d))


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[int, dict[str, str]]] = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
            code, hashes = run_case(name, Path(out))
        print(f'    "{name}": ({code}, {{')
        for rel, digest in hashes.items():
            print(f'        "{rel}":')
            print(f'            "{digest}",')
        print("    }),")
    print("}")
