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
from mems4.cli import COMMANDS, main, resolve_settings
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
        "bounds-0244652cd2/config.json":
            "2ac094dd89682f32c43ca4de9f63779fbf66e6ee091fb6dc5fd41f8ea5c2dc71",
        "bounds-0244652cd2/tables/bounds.csv":
            "4dfe3b41f73266fa2c73967cafd41c553938a559c6ca71608370e9334c574e55",
    }),
    "branch-divergence": (0, {
        "branch-1cfa506402/branch.jsonl":
            "9e580b8753f36170c23660bd76ce3f44ba16fb9905b4107f324c69c2578d95fb",
        "branch-1cfa506402/config.json":
            "f788d527568315a164761141c323fecfe61b9edc782b3c1f2910d0885bf47980",
    }),
    "branch-profiles": (0, {
        "branch-80b84f5c39/branch.jsonl":
            "ea578ff2cebc3d1a982e6edeedd83d75891bf0d2af59ee77793e9a613cad514a",
        "branch-80b84f5c39/config.json":
            "fab502bbd1300c4780639d136c68a9722604236104c0a8f06ec96c10070449fa",
        "branch-80b84f5c39/profiles/lambda-1.0.csv":
            "9574863af2625272ad6f0afbaf918a4b4e05357798f90bf483ed6f2c21381d3f",
        "branch-80b84f5c39/profiles/lambda-9.0.csv":
            "6d40bb559ecc6cdb933a87dd32f8136bc0adc9b2300d4eeb4da4a7c4b58ab969",
    }),
    "certify-m2-subsolution": (0, {
        "certify-aaddf85d51/certificates/m2-subsolution-30.json":
            "bce0566d40d2562907311be03fcac537445afd532dfbcf052daa6864c51d215c",
        "certify-aaddf85d51/certificates/m2-subsolution-31.json":
            "37a1ceed51715e79d65c1a20290ecf385fe5a4cbfb4d37bbfc4a25efa7eb522d",
        "certify-aaddf85d51/certificates/m2-subsolution-32.json":
            "1fe0ca1399f61802a5a22e4af9425f3fb520bc728e213dc9a3f8fa90f4d79cab",
        "certify-aaddf85d51/config.json":
            "cb6edd2e7d9ee8f4b02dcd4685a9828d7dfa50f67ca33cfbf55b6152b64d7c00",
    }),
    "certify-m3-gap": (1, {
        "certify-8daaf1e136/certificates/m3-gap-16.json":
            "17507646017e67fcc53df8c826df0f1c3a5ed116db1f51ef66a0909fd6499644",
        "certify-8daaf1e136/certificates/m3-gap-17.json":
            "b6b6428dc8c60a88ba37023bfdcccbc042eb885e1980690d3d47c006375a8c62",
        "certify-8daaf1e136/certificates/m3-gap-18.json":
            "3201965889816d0565cfcc2a61e61d15756a50ff873adfc3f1c20e0949a8bea9",
        "certify-8daaf1e136/config.json":
            "cdaf0513098ae0b5cf67653b593d1f934a78d4d5768f5d21fdce27f4124182c8",
    }),
    "certify-m3-gap-falsified": (1, {
        "certify-9c0eeb08c5/certificates/m3-gap-4.json":
            "206e386d84acbc89e1ecd46bd9f1826995b8494a72dc19abc4bde9db65e03490",
        "certify-9c0eeb08c5/config.json":
            "3f2fdae98b06cfc278f594882d4e4f0bd6accd73421a883c57be9829758d62b1",
    }),
    "certify-m3-stability": (0, {
        "certify-46b359f1ae/certificates/m3-stability-5.json":
            "a88680074d279dd630f2d954707e40300cd3644ef3975deef3ac558cc1d18269",
        "certify-46b359f1ae/certificates/m3-stability-6.json":
            "6d1ebd5e4715eb3f597cc6ec680cf6afc8d3a089c011b27126c4588eb2255479",
        "certify-46b359f1ae/certificates/m3-stability-7.json":
            "33971b6fbe866e465d6af7bbb474966ee99a1d92bb447a8a5fccc16410b3c1ae",
        "certify-46b359f1ae/config.json":
            "9646ebdb0c1c517cdcd7742254fddcbaa4586a4ad1cb7395673d733271e20054",
    }),
    "certify-thresholds": (0, {
        "certify-766a20be7d/certificates/thresholds-1-40.json":
            "afe16facb031fd0cb49640ab8e310ec049461991619461cf16cc25a0d635128c",
        "certify-766a20be7d/config.json":
            "6f278f33b2e40ca400c98532c49a3bc09a1567a6576145485c4fed7a637bbc3e",
    }),
    "profile-converged": (0, {
        "branch-f669d38b82/branch.jsonl":
            "b3f07211d0d7577fc4355664c15963dd1be2e96411d16c93e1e89af07409cc74",
        "branch-f669d38b82/config.json":
            "a057f1ad5f85322411e3fb5670bcdade182d25164928a5381d40b1843cabce4e",
        "branch-f669d38b82/profiles/lambda-5.0.csv":
            "755966519105f488768f90cb2396734e067e57ceee1e7c51c4bd6d257e9a397c",
    }),
    "profile-divergent": (1, {
        "branch-d88bb682fb/branch.jsonl":
            "6a08ac28c894eed051a924ad5d56ffe9cdced210ec53fea0c5f21bdc2b2f08d2",
        "branch-d88bb682fb/config.json":
            "14d43e53d94bd7cbc0809c8f3bb104ed10d4050feef75f3b83ec74340baa97dd",
    }),
    "pullin-alpha": (0, {
        "pullin-92438e5b30/config.json":
            "dcc26c7f124c89e4b36aa7583fbbdc75f9d25175d80ca0bcb003967685964ef3",
        "pullin-92438e5b30/profiles/near-fold.csv":
            "caf3c2c2e5d012cc064db8f7101b32d7da6da57a8ff3aeeba9e780522bf92f7f",
        "pullin-92438e5b30/pullin.json":
            "c98767f18bcaec1dd4afd300a498f0f16f61f6e2bc735a87016b9586a68007dd",
    }),
    "pullin-homogeneous": (0, {
        "pullin-1fdb808854/config.json":
            "b8a353631e38ba19b67719ef906f178e746ff96910242d13c3c3ef59ded946e0",
        "pullin-1fdb808854/profiles/near-fold.csv":
            "d7c38894450a1f2ee7032fe16353ee2f15bfff9e31b86ef9af1612071585c6a2",
        "pullin-1fdb808854/pullin.json":
            "56cf98123068ab3fcd50f810172e559420fef52dfe2f1cbc72f08559364e1c91",
    }),
    "pullin-singular": (0, {
        "pullin-c2573918ce/config.json":
            "0ad2cf490d0f6415de725901840d4d16ee9c443d18f05555155a6dc527b678df",
        "pullin-c2573918ce/profiles/near-fold.csv":
            "278d8319793ad8edf284ad69e37cba72502cf4a948312d79a388c153f43b6a71",
        "pullin-c2573918ce/pullin.json":
            "e6f3e4ec9544b326639376b803e4d94be521f172f92f13979c182d53972441a1",
    }),
    "search-fallback": (0, {
        "search-subsolution-880baf35f3/config.json":
            "d1e21ed29a5a3008cebc9d1cd7f9485a48ea48e58551143d338f6f9093e604a8",
        "search-subsolution-880baf35f3/search.json":
            "7339ea941a41352017f61bca3462259326b9960f980aaae03c7d116363a2a84a",
    }),
    "search-perturbed-touchdown": (0, {
        "search-subsolution-3757286448/config.json":
            "afdcc427ab8f245e802cb41635b76d7d5afeb8646d4dae23a311723247116de8",
        "search-subsolution-3757286448/search.json":
            "e269561af1975b59c053bb4df8252c141730115b0b277026a20c3143016388f3",
    }),
    "search-touchdown-m": (0, {
        "search-subsolution-d7e6eb3518/config.json":
            "6996e2eb78f9357742ad3b65591e8fc19963a0a937c3d94362655140d7ad2b53",
        "search-subsolution-d7e6eb3518/search.json":
            "59f2c15772531e3aa6c47db9d010f4829c5eb3f5c4d3e6d7a0e2cbdfdd1382ff",
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
    # Each run is rebuilt from its config.json alone: the config block
    # goes through the --config path, the other keys are the inputs, and
    # the rebuilt run writes every artifact byte for byte again.
    _, hashes = run_case(name, tmp_path / "cli")
    (config_path,) = (tmp_path / "cli").glob("*/config.json")
    inputs = json.loads(config_path.read_text())
    command = {c.name: c for c in COMMANDS}[inputs.pop("command")]
    cfg = resolve_settings(command.settings, inputs.pop("config"))
    run = tmp_path / "rebuilt" / config_path.parent.name
    command.run(cfg, inputs, run)
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
