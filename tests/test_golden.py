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
import sys
import tempfile
from pathlib import Path

import pytest

from mems4.cli import main

CASES = {
    "bounds-csv": ["bounds", "--n", "1..12"],
    "bounds-json": ["bounds", "--n", "1..12", "--format", "json"],
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
    "profile-converged": ["profile", "--dim", "3", "--lambda", "5", "--mesh", "128"],
    "profile-divergent": ["profile", "--dim", "3", "--lambda", "500", "--mesh", "128"],
    "search-touchdown-m": [
        "search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "2:3:2",
    ],
    "search-perturbed-touchdown": [
        "search-subsolution", "--dim", "9", "--family", "perturbed-touchdown",
        "--alpha-grid", "1:2:2", "--beta-grid", "1/3:2:2",
    ],
    "search-fallback": [
        "search-subsolution", "--dim", "17", "--family", "touchdown-m", "--m", "11/2",
    ],
}

GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    "bounds-csv": (0, {
        "bounds-ff28a6ef4e/config.json":
            "f746ac252b89c55961cc7fb02123c7fdf72017548b34e4ad2cf46d6f00b82586",
        "bounds-ff28a6ef4e/tables/bounds.csv":
            "4dfe3b41f73266fa2c73967cafd41c553938a559c6ca71608370e9334c574e55",
    }),
    "bounds-json": (0, {
        "bounds-ca490662ed/config.json":
            "fe2357db845c62ed2d59ae458ba0dabfab3ddc27dce85c49e06938f43e02a304",
        "bounds-ca490662ed/tables/bounds.json":
            "0dc49d2934f877b6b50356ff8951b98ada7cbc82809e6f72735fa6bca634968f",
    }),
    "branch-divergence": (0, {
        "branch-31ab985090/branch.jsonl":
            "8003ed7e526243c1a86274cfe7adc1b1600e27df7541c403518494f751aa017e",
        "branch-31ab985090/config.json":
            "e967836ab3fd2031599e6663033d466fbd2b5d82532bf5ddc806a251484d7ae5",
    }),
    "branch-profiles": (0, {
        "branch-5868f0b2cf/branch.jsonl":
            "ea578ff2cebc3d1a982e6edeedd83d75891bf0d2af59ee77793e9a613cad514a",
        "branch-5868f0b2cf/config.json":
            "6a1126968bef813ffe640872caf94d746171ec4190c67fc1ed123d92a2c25b00",
        "branch-5868f0b2cf/profiles/lambda-1.csv":
            "9574863af2625272ad6f0afbaf918a4b4e05357798f90bf483ed6f2c21381d3f",
        "branch-5868f0b2cf/profiles/lambda-9.csv":
            "6d40bb559ecc6cdb933a87dd32f8136bc0adc9b2300d4eeb4da4a7c4b58ab969",
    }),
    "certify-m2-subsolution": (0, {
        "certify-85a125b1b6/certificates/m2-subsolution-30.json":
            "bce0566d40d2562907311be03fcac537445afd532dfbcf052daa6864c51d215c",
        "certify-85a125b1b6/certificates/m2-subsolution-31.json":
            "37a1ceed51715e79d65c1a20290ecf385fe5a4cbfb4d37bbfc4a25efa7eb522d",
        "certify-85a125b1b6/certificates/m2-subsolution-32.json":
            "1fe0ca1399f61802a5a22e4af9425f3fb520bc728e213dc9a3f8fa90f4d79cab",
        "certify-85a125b1b6/config.json":
            "550b38ceaeb52b0d5aeefcf5366636e372fd94f343e43ed6b40d17b6b76056af",
    }),
    "certify-m3-gap": (1, {
        "certify-7916dacb99/certificates/m3-gap-16.json":
            "ea3ef83b92db1d0a22822febc5b9472600bf8646ae678e2944fb00b301aefde7",
        "certify-7916dacb99/certificates/m3-gap-17.json":
            "b6b6428dc8c60a88ba37023bfdcccbc042eb885e1980690d3d47c006375a8c62",
        "certify-7916dacb99/certificates/m3-gap-18.json":
            "3201965889816d0565cfcc2a61e61d15756a50ff873adfc3f1c20e0949a8bea9",
        "certify-7916dacb99/config.json":
            "0e94f40f9a8749fe1f9924712528a437e54d10b1aafb9eadfc2c136f26d32c5f",
    }),
    "certify-m3-gap-falsified": (1, {
        "certify-ea2f021ec9/certificates/m3-gap-4.json":
            "ebf86fa6dbfa5a479095fd5270807ff5bc357c7efb61facebbbd81cb86d0d196",
        "certify-ea2f021ec9/config.json":
            "cb9c629b974ecad37393f16775b51701a4d4c8b92e76be034d070d1e1b9c65c9",
    }),
    "certify-m3-stability": (0, {
        "certify-afe12d2326/certificates/m3-stability-5.json":
            "a88680074d279dd630f2d954707e40300cd3644ef3975deef3ac558cc1d18269",
        "certify-afe12d2326/certificates/m3-stability-6.json":
            "6d1ebd5e4715eb3f597cc6ec680cf6afc8d3a089c011b27126c4588eb2255479",
        "certify-afe12d2326/certificates/m3-stability-7.json":
            "33971b6fbe866e465d6af7bbb474966ee99a1d92bb447a8a5fccc16410b3c1ae",
        "certify-afe12d2326/config.json":
            "679ddd69c2a1bceb6ed2eea2bcda5061c1b26a9ca4ee4f6fa237d53553c1b233",
    }),
    "certify-thresholds": (0, {
        "certify-56a560ff08/certificates/thresholds-1-40.json":
            "afe16facb031fd0cb49640ab8e310ec049461991619461cf16cc25a0d635128c",
        "certify-56a560ff08/config.json":
            "9a9402b01ccc71b580bc4370432d85ea604eddf88326d67e059634810b3cd74e",
        "certify-56a560ff08/tables/thresholds.csv":
            "17b56505966b5f5fe82d697166687513adb6fadea52e950da1ae32e49f24d509",
    }),
    "profile-converged": (0, {
        "profile-90309729c7/config.json":
            "e05894cad3f35f20d29e703548a772b1a01584ecb1444b755be5b24371e622a9",
        "profile-90309729c7/point.json":
            "032111a1bc6c554e4a59fdfc914b66da173ff5c2008e34d4417e0c93cf74b71d",
        "profile-90309729c7/profiles/lambda-5.csv":
            "755966519105f488768f90cb2396734e067e57ceee1e7c51c4bd6d257e9a397c",
    }),
    "profile-divergent": (1, {
        "profile-62fcaccc95/config.json":
            "c548bf6eaaefd820dc5b5f0e284dad3d3be935bc911aded15b0ccab70d9b1afe",
        "profile-62fcaccc95/divergence.json":
            "a444560641ac2fe10eb17f7652b84eb523a15c73970e06eda43e9ec867b6682d",
    }),
    "pullin-alpha": (0, {
        "pullin-14578e5e07/config.json":
            "a788051b35006acea31ecf38e72bc856c7580a4e5d25400b75251c35cb42d274",
        "pullin-14578e5e07/profiles/near-fold.csv":
            "caf3c2c2e5d012cc064db8f7101b32d7da6da57a8ff3aeeba9e780522bf92f7f",
        "pullin-14578e5e07/pullin.json":
            "c98767f18bcaec1dd4afd300a498f0f16f61f6e2bc735a87016b9586a68007dd",
    }),
    "pullin-homogeneous": (0, {
        "pullin-aebe68c705/config.json":
            "090ee38f07b77fe46442c6bcde4ae174ffe97b64d16f3114c7c070cd5318fa94",
        "pullin-aebe68c705/profiles/near-fold.csv":
            "d7c38894450a1f2ee7032fe16353ee2f15bfff9e31b86ef9af1612071585c6a2",
        "pullin-aebe68c705/pullin.json":
            "56cf98123068ab3fcd50f810172e559420fef52dfe2f1cbc72f08559364e1c91",
    }),
    "pullin-singular": (0, {
        "pullin-a220bf2e51/config.json":
            "cbde8070b1b60a1eb8da9bc91a8afa1f078612d170c857dc48cbd276e5c8709a",
        "pullin-a220bf2e51/profiles/near-fold.csv":
            "278d8319793ad8edf284ad69e37cba72502cf4a948312d79a388c153f43b6a71",
        "pullin-a220bf2e51/pullin.json":
            "e6f3e4ec9544b326639376b803e4d94be521f172f92f13979c182d53972441a1",
    }),
    "search-fallback": (2, {
        "search-subsolution-5152d78bc8/config.json":
            "f7c3a22c44a1f300c177623593fa3cd8a2276aeb78bde9ecfd0d42c4922be633",
        "search-subsolution-5152d78bc8/search.json":
            "694e58c47442a8ba6d32b7521eab13e7b32a61e1b83dc9ac546fca4eacaf84f0",
    }),
    "search-perturbed-touchdown": (0, {
        "search-subsolution-b74e74ff96/config.json":
            "a7758adc879037c781c7015ded31bc7b710fa6e5135fc7835a268e4476c3a0e8",
        "search-subsolution-b74e74ff96/search.json":
            "627bb092354f186a57585555e59b34e5867cfebb0030a1e2eb1bac9dc92846b2",
    }),
    "search-touchdown-m": (0, {
        "search-subsolution-6716f525e7/config.json":
            "f7c3a22c44a1f300c177623593fa3cd8a2276aeb78bde9ecfd0d42c4922be633",
        "search-subsolution-6716f525e7/search.json":
            "5334016572b09380adced54106afe6c72714f8a1311646c9e747d93cbf9fb2e5",
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
