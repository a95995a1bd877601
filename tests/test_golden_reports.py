"""Golden reports: the README's CLI commands keep byte-identical reports.

Each case pins the exit code and the sha256 of the JSON report with its
``timing`` field removed, so a refactor that changes any report byte fails
here, while the determinism test in ``test_cli.py`` only compares two runs
of the same code.  The digests were recorded before subdivision switched
from child names to the ``Subdivision.copies`` table; the extra
``subdivide`` cases cover that switch beyond the README's ``-n 2`` run.
The ``--window`` cases read the F2BALL window written by
``dump_window_action`` to ``f2ball-window.json``, so they pin loading a
window file as well as the search on it.  The two ``facing ... --verify``
cases pin the certificate check of strongly separated tuples.  The
irreducible TRIPOD and F2BALL ``decompose`` cases pin the report of a
pocset that is its own only factor.  The
``--system-file`` cases pin the gap-12 system, whose closures read past
the horizon, and rule-free systems of lcm period 1,001 and 17,017, whose
tables are sized by the head extent, and the transfer characters of five
unit-weight chains of lcm period 323,323 under the unit shift, whose
check is sized by the heads.
Each case also checks that the raw report is the stdlib's
``json.dumps(report, sort_keys=True, indent=2)`` byte for byte.
Update a digest only for a deliberate change of report contents.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mediankit import fixtures
from mediankit.cli import main
from mediankit.serialize import dump_window_action

from test_cli import GAP_12, PERIODS_3, PERIODS_4, PERIODS_5_UNIT, unit_shift

GOLDEN = [
    ("rank --fixture SQUARE", 0,
     "40ceb5bdbcc2e93d938cedf42aebf219c3a00eead9a96c74d9f234140db4b3a1"),
    ("points --fixture PATH3", 0,
     "bc5479ef2d98cfff5e3499f1b4fa89180466d451e819127743eb1f59dd7e550a"),
    ("median --fixture SQUARE --x a,b --y a,b* --z a*,b", 0,
     "c5c6cd38d187458e0068bafcc9eacb4fea91ded30ee19a120a7e03790b47f9aa"),
    ("distance --fixture SQUARE --x a,b --y a*,b*", 0,
     "036f14f7c245d0f7cbf937ec048519a6073d23e04bb6772e9bc0a672e85d1da3"),
    ("decompose --fixture GRID", 0,
     "813848d986ab5106bdc06ab242c685626e3976b7d90feeb71fb04d187998732e"),
    ("decompose --fixture TRIPOD", 0,
     "f0553f70570b8e3f4cda34951a0a6067a10784bd6c34af5b888fd93fd2750ff4"),
    ("decompose --fixture F2BALL", 0,
     "28e33f419b75f6bd31aeb4aad4af5532660b9496bc8d0d6b471041364d23803b"),
    ("subdivide --fixture SQUARE -n 2", 0,
     "1fa7e8670604cc5f3d3b88ad72ba179903abfe2e31e8c5a6d86c1fe7d059a559"),
    ("orbits --fixture SQUARE --gens rot,swap", 0,
     "1ee80bea132025d547adca37713c08e44ce84f0128062101085a2c8ed582b07a"),
    ("flip --fixture TRIPOD --gens rot --halfspace h1*", 0,
     "901f90710f20ebb2372ad574acfc373634d08ac7717288f2bc9cd8bcb4b48468"),
    ("skewer --fixture F2BALL --pair waa+,wa+ --max-word-len 3 --verify", 0,
     "698e524c9258e457e67f26da1cafc55cd322ea8774449d68ec6461175638bd9a"),
    ("facing --fixture TRIPOD --tuple-size 3 --strong", 0,
     "ce8fa49d0e36b73337bd39136f6bfa9f3cfc2c7033ddcda5750cbb5f11784905"),
    ("sectors --fixture SQUARE --pair a,b", 0,
     "94fcdadfd3a0c2bc742434833130f02f1088955c76277bd7d568e55141973439"),
    ("free-cert --fixture F2BALL --a a --b b --h wA+ --k wB+ --max-word-len 4", 0,
     "f4b07c0988e1f719030cf98206a1514b1d9770e6fbd6b22399734b045f284add"),
    ("lineal --fixture PATH3", 0,
     "9a5a30c8f90238479ee8d7e57e130a49efbf4cf5e60d9ea3867539491500ead1"),
    ("classify --fixture F2BALL --max-word-len 3", 0,
     "20f161023063a25c8d91b1f08fc64e3272a446d0b37cc4448213d252accd107b"),
    ("classify --fixture LINE --max-word-len 2", 3,
     "b91abc486a855797e340f70c1d1a0aea39321751d7427dbfa9ae23dc6e1d0dc1"),
    ("facing --fixture F2BALL --tuple-size 4 --strong --max-word-len 3", 0,
     "ccf62b76880a9986584dd175afbf36a299cba0b22ed843d2907ada7cd5b79017"),
    ("facing --fixture TRIPOD --tuple-size 3 --strong --verify", 0,
     "169815758ce3b88f564a74a3dcb92e147315ba969100ac526cccfe546d47bb48"),
    ("facing --fixture F2BALL --tuple-size 4 --strong --max-word-len 3 --verify", 0,
     "b5c1a3716b2e687355e5e727d1952386b69f13ec32282f92455b92425b8d5471"),
    ("ubs-validate --system STAIRFLAP", 0,
     "9bef47b6f277a5a58b2835ee9f14c8823754c17bd5db24941d4864c6f857fb1b"),
    ("ubs-graph --system STAIRFLAP --dot graph.dot", 0,
     "6e9a0e7a9be5744fd90deb3e9e36d6923f04adc4e683e5ed70696696fce71d62"),
    ("ubs-chi --system STAIRFLAP --shift shift.json", 0,
     "bd193fecec011f4931aa14c8cda0fbcabe26bcc384fa78d321b34e948ac89291"),
    ("dump-fixture F2BALL", 0,
     "4d4d8aa27ecf8593f4479705abc34a8b725e5de123a263e788f418c84b72bdc5"),
    ("subdivide --fixture TRIPOD -n 2", 0,
     "cf1308ea40f5b2d0ce00ab15eb994657214ead5f480730a88fb068bd68386a52"),
    ("subdivide --fixture GRID -n 1", 0,
     "c16da6adde53ee411301c1da69f203be15647e50c75e16ad267891c6483c182f"),
    ("subdivide --fixture F2BALL -n 1", 0,
     "21e3022564700d125fed4463b5e7fc8423d299993e551af7bbe8d448fb48ac5d"),
    ("validate --fixture GRID", 0,
     "2d27022762ac0a355ee7992a97664cc16be6a32ff5fa84d34c16ef0d68633f51"),
    ("validate --fixture F2BALL", 0,
     "e84b99442722f4d6d1f15e2ef10338d9f3bfd4b214eaf86a1c0ebd2ed833a336"),
    ("inversions --window f2ball-window.json --word a,b,a^-1", 0,
     "12d30694f581c3798f3d892254b6d7e52f6add7f24d9b8d4ae1d419ef57e42f9"),
    ("skewer --window f2ball-window.json --pair wab+,wa+ --max-word-len 2 --verify", 0,
     "ca092b5f3c0b9dd858857d733a52f647a0582dfdb32c204b18cdc8b766d7324e"),
    ("ubs-graph --system-file gap12.json", 0,
     "9fc6e79c6adf7521a595a65c43cd974737193f117fd4b84f1cb05b07901dc2b1"),
    ("ubs-validate --system-file periods-3.json", 0,
     "13630cddec41b0ef40464078daea6389a01ff7f0ac295ff01bd49b2fabd042cd"),
    ("ubs-graph --system-file periods-3.json", 0,
     "a11fbe203834f423061a5c8a48b1f4dc6928a36b7c80be4121c43433f13ec985"),
    ("ubs-validate --system-file periods-4.json", 0,
     "a697c5290d7d9e3dae564e9246b3466b0c81be292ec779d3b4d238ca15bb61b3"),
    ("ubs-graph --system-file periods-4.json", 0,
     "35e9e051aab6101f41a801d2f7276f2476b376c5a1d56a5fefc614b3ac2cae99"),
    ("ubs-chi --system-file periods-5-unit.json --shift periods-5-shift.json", 0,
     "53bbdf48a5dc9603e1ea679d859e168d09ed897ea9ad125187a96862077ebb17"),
]

# chain-system and shift files the ``--system-file`` cases read from the
# test's directory
SYSTEM_FILES = {"gap12.json": GAP_12, "periods-3.json": PERIODS_3, "periods-4.json": PERIODS_4,
                "periods-5-unit.json": PERIODS_5_UNIT,
                "periods-5-shift.json": unit_shift(PERIODS_5_UNIT)}


def report_digest(argv):
    """The exit code and the digest of the report without ``timing``; the
    raw output must be the stdlib's indented encoding of the report, byte
    for byte (the digest alone re-encodes the parsed report, so it would
    not see the encoder change)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"
    report.pop("timing", None)
    text = json.dumps(report, sort_keys=True, indent=2)
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_report_is_unchanged(command, code, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative --dot, --shift and --window paths land here
    (tmp_path / "shift.json").write_text(json.dumps(
        {"tau": {"H": "H", "K": "K"}, "shift": {"H": 1, "K": 1}, "minIndex": 0}))
    if "--window" in command:
        (tmp_path / "f2ball-window.json").write_text(
            json.dumps(dump_window_action(fixtures.window("F2BALL"))))
    for name, data in SYSTEM_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    assert report_digest(command.split()) == (code, digest)
