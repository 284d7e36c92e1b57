"""Pinned output bytes: the sha256 of every CLI subcommand's output, in all
three formats, over a fixed corpus.

The other CLI tests compare the CLI with the library, so a renderer change
moves both sides at once; these digests catch any byte drift.  Regenerate
them only for a deliberate output change, with
`python tests/test_golden_bytes.py` (prints the DIGESTS literal).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from squarepoint.cli import main

CORPUS = (
    "sieve --z 60",
    "sieve --z 72",
    "sieve --z 84",
    "sieve --z 97",
    "sieve --z 120",
    "sieve --z 60 --filters parity_residue,lemma3,theorem5",
    "sieve --z 72 --filters theorem3",
    "sieve --z 97 --filters theorem3",
    "sieve --z 120 --filters theorem3",
    "sieve --z 120 --filters boundary,theorem1,theorem2,theorem4",
    "search --z-min 12 --z-max 48",
    "search --z-min 1 --z-max 144 --mod12-only",
    "search --z-min 30 --z-max 40 --filters theorem3,theorem5 --threads 2",
    "distances --x 7 --y 24 --z 52",
    "distances --x 297 --y 304 --z 700",
    "distances --x 0 --y 0 --z 5",
    "distances --x 5 --y 5 --z 5",
    "distances --x 0 --y 5 --z 5",
    "distances --x 3 --y 0 --z 5",
    "distances --x 0 --y 3 --z 5",
    "distances --x 6 --y 6 --z 12",
    "three-distance --z-max 12 --min-count 0",
    "three-distance --z-max 30 --min-count 1",
    "three-distance --z-max 60 --min-count 2",
    "three-distance --z-max 120",
    "three-distance --z-max 200 --min-count 4",
    "three-distance --z-max 60 --include-boundary",
    "three-distance --z-max 60 --all-points",
    "three-distance --z-min 40 --z-max 60 --min-count 2 --include-boundary --all-points",
    "lists --z 2",
    "lists --z 60",
    "lists --z 120",
)
FORMATS = ("json", "csv", "text")


def cli_digest(command: str, fmt: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([*command.split(), "--format", fmt, "--out", str(out)])
        assert code == 0, command
        return hashlib.sha256(out.read_bytes()).hexdigest()


DIGESTS = {
    "sieve --z 60 --format json":
        "3cdf0735cbe6b81822904df98cd776ebfbc91dd7998882ee2d2d61749049a53f",
    "sieve --z 60 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "sieve --z 60 --format text":
        "015449167ed8812fca7d43ed30b324eb48e90a5a9ffdee404dab9035ad6b0bf8",
    "sieve --z 72 --format json":
        "021e514eef3651d05543c0e5cf5cc77d064a509976d857ea56e3be1cbe718099",
    "sieve --z 72 --format csv":
        "b1ace853cd058ab100701c549d90b7c35b01c1de5955da35ec56c5eb0cfa4bbd",
    "sieve --z 72 --format text":
        "cf1ed661878c8946c20177c6a68bf7d1c57d457315410167dbcd71dc529967f9",
    "sieve --z 84 --format json":
        "756b031b1eba4c7afbc44c695a4e44c8ed7bd9cb2ee221f29f1ebf3def92d968",
    "sieve --z 84 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "sieve --z 84 --format text":
        "aa656f41555c5c887b62d22c3ea2063e67c6e51f7ca805c37a9bb8f83a80d690",
    "sieve --z 97 --format json":
        "2e27f46b4a7bfb344caedf4390ad649cdbedc3c65e7bfe7471763c09b484bfaa",
    "sieve --z 97 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "sieve --z 97 --format text":
        "f8e0b9177b594d858a5498f1c6dbaa9fb5a39a6ebd6303ee5633502349943590",
    "sieve --z 120 --format json":
        "d4c9097a5ad04ac0ddd4e24f47c166086f45f115928588a17285cef37c156cb4",
    "sieve --z 120 --format csv":
        "596801a9d3a401f80386db2d489aee954e0a9600a69b80e0ec9daa736635e7b5",
    "sieve --z 120 --format text":
        "9dfae7de806296e6c576dad3f1a1e6e747f7754370c03bfab1820dc6a08bf219",
    "sieve --z 60 --filters parity_residue,lemma3,theorem5 --format json":
        "751ec5622b0091f083edd11d840a68e9758684a8bea5e32a222fa7d366cd55e1",
    "sieve --z 60 --filters parity_residue,lemma3,theorem5 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "sieve --z 60 --filters parity_residue,lemma3,theorem5 --format text":
        "74dd0039b0f7b79401c0f2efcd74c0b66bec9a789e7fa674b504ea1397e5d47a",
    "sieve --z 72 --filters theorem3 --format json":
        "d06ab254e0257235404bbb4ea761e428bb5ddff3cc0ef656ca73b116a737be13",
    "sieve --z 72 --filters theorem3 --format csv":
        "be5f4515ea9f052da165153392a46e217b487aae4a030fe31c8f1d942332c571",
    "sieve --z 72 --filters theorem3 --format text":
        "02cc340e3bf083b1568c055c6a6344120db5408525d627912a7199f5825ed54b",
    "sieve --z 97 --filters theorem3 --format json":
        "052a5f00e904b292f75c0fef857c62f21f83a582cc569c1fcd76380d5911933e",
    "sieve --z 97 --filters theorem3 --format csv":
        "0376b21568d8d35c2c225eebe3bd890c739fc573d63ca938680b270a22010095",
    "sieve --z 97 --filters theorem3 --format text":
        "f2abfa323d5ef8d5ad0392df54112ab196e4e52279a3a19410dd7ec4de153b68",
    "sieve --z 120 --filters theorem3 --format json":
        "13e122f0c3f2e2afb7f89ae21d44bff4802fe2cdf8db2f57c56eaedfb0520676",
    "sieve --z 120 --filters theorem3 --format csv":
        "936dd1f5ac048c50e608cf5c42d957e816fd317f2d6d050189c1bfb9914a95af",
    "sieve --z 120 --filters theorem3 --format text":
        "598c556cd2c3821384aaf7c3bb4a9d1190006c2326b6ec2d50d985ecd3554c8b",
    "sieve --z 120 --filters boundary,theorem1,theorem2,theorem4 --format json":
        "dcf0f619e116bd9aefecf0c6b1b23bd6226a8a5bde2ddd349c1773b66c59e54f",
    "sieve --z 120 --filters boundary,theorem1,theorem2,theorem4 --format csv":
        "4925d77e2bae04a72695465f835297e5dd81ac011e36ebc00351002949fae0c8",
    "sieve --z 120 --filters boundary,theorem1,theorem2,theorem4 --format text":
        "8f975f22b074545243c5d6b2826c49efe55e9e8209f40697210e12ef291c4ad0",
    "search --z-min 12 --z-max 48 --format json":
        "ee9a4d2e9a4972c642b7818c601aada5bdcc4bb91a442bed3c46828d5144b9aa",
    "search --z-min 12 --z-max 48 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "search --z-min 12 --z-max 48 --format text":
        "871dceb4c1355fd1d85ef1bd095c93adc40056494908f9ff4abd62522686c43e",
    "search --z-min 1 --z-max 144 --mod12-only --format json":
        "c4d50b5507d6034045ed10fe3d9ef5ce79c96a1e7c1d69e4ca94c2b846985b0e",
    "search --z-min 1 --z-max 144 --mod12-only --format csv":
        "b9cf226677f5864e72df202a984e3590b45af2b1224dd0425daf77ae095e5e6d",
    "search --z-min 1 --z-max 144 --mod12-only --format text":
        "4f056bcf46462788c0634324ff96148f10234c752601482393a00cf3fde21cc8",
    "search --z-min 30 --z-max 40 --filters theorem3,theorem5 --threads 2 --format json":
        "e58f589a604da3303e95a8d6ee5936193db16296c65b8a964421bf00b983e0ef",
    "search --z-min 30 --z-max 40 --filters theorem3,theorem5 --threads 2 --format csv":
        "af27fbfa461598586a09bb2e7f424e4a48f3ec684153c1879366314ca3c8f8aa",
    "search --z-min 30 --z-max 40 --filters theorem3,theorem5 --threads 2 --format text":
        "de1814109b675abbe2d292773803bcf7c91425536e3706a7387688cbefe043ef",
    "distances --x 7 --y 24 --z 52 --format json":
        "64cfd1b74ab80deb5ccc98f83731a84c222bbbcbe41326b41b9c35a3d1724b55",
    "distances --x 7 --y 24 --z 52 --format csv":
        "28894e3479fda572580d8672ce9dcefcc70758d872ea64ae6ccc5b7281cceb6d",
    "distances --x 7 --y 24 --z 52 --format text":
        "6dbafd6d198fdf1ffd8efbc1729277766f4f52c706144ffc1cb17301dc837738",
    "distances --x 297 --y 304 --z 700 --format json":
        "269dc26b4ba97790d7c524a523a62d4f3d4ce2bb29e5149c86e94d836cb9d0a4",
    "distances --x 297 --y 304 --z 700 --format csv":
        "bad70b9100c5ad921a107f30dcc8e239c93f7626eccd21168a3fcaab3f889d18",
    "distances --x 297 --y 304 --z 700 --format text":
        "a3f7dbce0aa2e57898f9f35042e0322646841f419cc7b8e4080511e76782df4c",
    "distances --x 0 --y 0 --z 5 --format json":
        "833450dad02eede1459757e876d7fa39224b783706be8fb6f0764fa04589aed9",
    "distances --x 0 --y 0 --z 5 --format csv":
        "7fb79140dea21c7bad03c85e0177fd2ea9592fe95ad58598d360e375ed9a0265",
    "distances --x 0 --y 0 --z 5 --format text":
        "23b8df71a992931337604bca96244b6726388ac4a4082b31a1b39f697a29090d",
    "distances --x 5 --y 5 --z 5 --format json":
        "b98823a4cb8fee4f3fcc658cfcf955cb80b5623fb705758dfd53edcb7aa3b4f6",
    "distances --x 5 --y 5 --z 5 --format csv":
        "33fba024d9b68504aee5ccb340738f3bf70fe7603851cfd699c2f0d0b3cb15db",
    "distances --x 5 --y 5 --z 5 --format text":
        "79c5082cccc147030ce3f6aa96142f5b8bc3e2fc8ee69c89c4c4a8e764400021",
    "distances --x 0 --y 5 --z 5 --format json":
        "9ba53a74b8e0552c631c0184401c1d2bb61b063eeee75f3928b0f039982cd3b4",
    "distances --x 0 --y 5 --z 5 --format csv":
        "2edc00b547390ef5ba75fcb12994c9b2569059c7438900f10c181fa6c4c79499",
    "distances --x 0 --y 5 --z 5 --format text":
        "36a5b1cc4cf62fa65700369c5aa6fb8781290138ce8f9f395183dcb67f48b4b7",
    "distances --x 3 --y 0 --z 5 --format json":
        "1e3726347cb8b34f48ca9ed3d22c0479d44c2ab26bf3188ad7b0cd01dc2d1cbc",
    "distances --x 3 --y 0 --z 5 --format csv":
        "ef55f98bbbdcd622372d423ece9715c37d0861dacf0aa958dc7545c4ae016366",
    "distances --x 3 --y 0 --z 5 --format text":
        "6182343c726ff95338d03dca2c74eddbeffd6b0ac2110670926e08400e60cdd6",
    "distances --x 0 --y 3 --z 5 --format json":
        "ac07885e2edea38bb1370dd268350d11e84957bd55dce5283e76917d370a4d9c",
    "distances --x 0 --y 3 --z 5 --format csv":
        "83da77bf15f77b537680fcf577bbcdf1a49deb841c8866229fa62b25b320d5ba",
    "distances --x 0 --y 3 --z 5 --format text":
        "8de166e0f8442dd94c33eb9dce80b3f83830989e31b57f9fec779e28c8855e74",
    "distances --x 6 --y 6 --z 12 --format json":
        "0c2b71a0c26c56873c6daef48c0f2ca3423716b004a1c53a8fd369ab38ba9ae0",
    "distances --x 6 --y 6 --z 12 --format csv":
        "34e19c699441797433f541ec47ee7ea065f4c88807bc9a7bd743cdea6ad3b0fd",
    "distances --x 6 --y 6 --z 12 --format text":
        "39750852bffe57c60da7aa2bb07ad132d773334b6d5baa0198c1988388cfef07",
    "three-distance --z-max 12 --min-count 0 --format json":
        "6719ec09af181af0d25aa455bf16cb220ae17662cfb68ca5ef6bfcfdc4c81670",
    "three-distance --z-max 12 --min-count 0 --format csv":
        "99d36319438b1f19537360fbd91f0107812779a1adf1286a5627468efb462471",
    "three-distance --z-max 12 --min-count 0 --format text":
        "4a3719953bc758bfaffa5bcbb62f62b3f375818426165afbc05f5f3e9e914e5b",
    "three-distance --z-max 30 --min-count 1 --format json":
        "c4214cf0a51415ce760abdbfd298729d25bf4105df5374efe96dcf122b19e015",
    "three-distance --z-max 30 --min-count 1 --format csv":
        "bb1c331c3ce78e0fa32b636192a5fbe69c53bf79269f7b9ea1137eab4fe940b2",
    "three-distance --z-max 30 --min-count 1 --format text":
        "5ec29e3f90c162839881e089ed131898e43293b78a92ca2e8a67d002dbb3b0f3",
    "three-distance --z-max 60 --min-count 2 --format json":
        "5366e06597f9604bf62c1ac465860e8b7ff9e173ada7390907f8fcf3dfa6137c",
    "three-distance --z-max 60 --min-count 2 --format csv":
        "b4ec9ac09695fda878650b52f9b58e2e3d5c97ea487efd248f8aa288d3e32618",
    "three-distance --z-max 60 --min-count 2 --format text":
        "55379481d26a2c0d3514bf25f9ff9a8709e95281b3a5119ccdea7b4310745929",
    "three-distance --z-max 120 --format json":
        "4b335236c35900ed723f7fe78f27626545d44df1e3b6f477d1f94136e4dc8f3a",
    "three-distance --z-max 120 --format csv":
        "28894e3479fda572580d8672ce9dcefcc70758d872ea64ae6ccc5b7281cceb6d",
    "three-distance --z-max 120 --format text":
        "a4bf20b462a97cac374e2f4ced6b863539177dde08001087b90ae6f0cb512843",
    "three-distance --z-max 200 --min-count 4 --format json":
        "1e265393f01e2ab6dc41e3dfc4a8597fb0ad2d3cd716991e3eb31945e154a9ed",
    "three-distance --z-max 200 --min-count 4 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "three-distance --z-max 200 --min-count 4 --format text":
        "4a4536120ea0bf17a48a6a1de2349d8dc7d2e0f03f10a3938f6790092cadd3f8",
    "three-distance --z-max 60 --include-boundary --format json":
        "6af6f252b6c445d75a1a47b5e917707c13e3641bff19d01286f2516063978627",
    "three-distance --z-max 60 --include-boundary --format csv":
        "f9480add428031bbe720f4e43353f0c6ff5d71c79ff93081b2c708647340b32d",
    "three-distance --z-max 60 --include-boundary --format text":
        "e69d615170a0edc97441dc219ff57eb70e18c9494382b4b3578e323dd8f797e4",
    "three-distance --z-max 60 --all-points --format json":
        "68388e17dd584c24988d860846e339cf0dea97686bcfe5f2843649b7cbcf9b6f",
    "three-distance --z-max 60 --all-points --format csv":
        "28894e3479fda572580d8672ce9dcefcc70758d872ea64ae6ccc5b7281cceb6d",
    "three-distance --z-max 60 --all-points --format text":
        "352a66e5021b5c4894769ca842b46d9732cbc9fb78ba7aef3e05ad8b60fd4ce9",
    "three-distance --z-min 40 --z-max 60 --min-count 2 --include-boundary --all-points --format json":
        "ac5a53216907f83a9224fca4e185f1a7d3192e36d2767c718ce5ca5613e56e6e",
    "three-distance --z-min 40 --z-max 60 --min-count 2 --include-boundary --all-points --format csv":
        "d64741d39aa782712a28b175a0316e78ec78a8687f406bd8737cd7a94ce61fda",
    "three-distance --z-min 40 --z-max 60 --min-count 2 --include-boundary --all-points --format text":
        "107fbd666fc84f8221ea45c77ea01b66d4c0ed94c75880c01c93193e1e0b07e0",
    "lists --z 2 --format json":
        "9450eedffb4d564a97f02a96a79f5ce31f489ebea6baaf536bc57ab633cd2fe0",
    "lists --z 2 --format csv":
        "aa2d2d3e542402c98b9e7f98eea7aae6b4bc2498c3a9e831e1fd2e879e5ce617",
    "lists --z 2 --format text":
        "6832852d18a18fe0b4845ccab5d4dd93e258fd6d26624c058087a95f4aca1a4f",
    "lists --z 60 --format json":
        "587be3c243afc1255aaf33fedad27a8f1aaae2e31f256dd4d2cf727ad982da13",
    "lists --z 60 --format csv":
        "b91f2db49c58e004216399cc0431a7d3d11a3fc66bc2a8bc1657779f5a53af42",
    "lists --z 60 --format text":
        "d474747e36e96d22201540f92ac62eafe856687e72bf94fbb9c7f16b0d1de3ed",
    "lists --z 120 --format json":
        "03035055142d7549551bf80ea9d76ff86750556ff966d760158bb3d9de4144f0",
    "lists --z 120 --format csv":
        "dc0963027d4b470c98c3924e25c8a3711c77791744f54b043d4d577ea73836ca",
    "lists --z 120 --format text":
        "2bab6169353c4fd3dac78cda4331f4f223fe8ffd1d672eca97827edc2ff1058c",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", CORPUS)
def test_cli_bytes_match_golden(command, fmt):
    assert cli_digest(command, fmt) == DIGESTS[f"{command} --format {fmt}"]


if __name__ == "__main__":
    sys.stdout.write("DIGESTS = {\n")
    for command in CORPUS:
        for fmt in FORMATS:
            key = f"{command} --format {fmt}"
            sys.stdout.write(f'    "{key}":\n        "{cli_digest(command, fmt)}",\n')
    sys.stdout.write("}\n")
