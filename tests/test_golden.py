"""Byte-level pins of CLI outputs.

Each GOLDEN digest is the sha256 of the exact stdout of the command with
``--format json``; each EXPORTS digest is that of the command as written,
for the outputs that are not JSON.  A change that alters any of these
outputs must update the digest here and say so in CHANGES.md.
"""

import hashlib

import pytest

from congtower import cli

GOLDEN = {
    "tower magic --steps 10":
        "fb2fcd42e1743fe7f62a1c2f9fb02f28a31c0972f22008dbe874d935bd352998",
    "tower o41 --steps 3":
        "3244c2c894cb29fbce9dfa28dc40307eaae9f7cf3931f9be7c8d7987db09c508",
    "tower pu21 --steps 3":
        "b6d22d9626548977993d906a0683fc554f81bf30676f3b9b5e2fac03887b7887",
    # past the third step: the moves built from the midpoint alignment
    "tower o41 --steps 8":
        "f91c949e7b7e31efb27085324fffd2e1e0fbe267643072c4317b475f3cecf0f6",
    "tower pu21 --steps 6":
        "0f15fb1c182e74b8e6e08400cd9f5f38cf554587ac10ef13a8efad57419e6ba9",
    # every swap move's certificate summary: 10 o41 moves, 30 pu21 moves
    "tower o41 --steps 10":
        "6026598dfb0c779b9bca70f3e0c518e8642a38d24ce88037f56228a3090dc2a6",
    "tower pu21 --steps 30":
        "511f901b7b9045247389345b0a9293c2bc3d4a9ab742f028af2a6a979c7a6a9c",
    "tree su --radius 2":
        "c7f6f1cecda0f4fde7a47835f0e869620bb26218541dc0a0aeb32c0bc5e29746",
    # the ramified prime over 7 in O_7, and the rational ring
    "tree pgl2 --p 7 --radius 3":
        "14ddcbd2a8363054205f520ef5b82d4629ac7508231584a1a980acfb48d789fd",
    "tree oq --radius 2":
        "01b44a359403880d011ba375f7ff21611676780970ea7d9b29bf0402d921ba0b",
    # the longest frames: four su layers, five oq layers, nine pgl2 layers
    "tree su --radius 4":
        "c2bfe31b0d91fac3cdbff967116b0e752448b33aa32f6208b0abbb3b35f735e7",
    "tree oq --radius 5":
        "80e059799f38556f23153185b856e24ca8dcd07cd0f2f31b88eeac61e677bae1",
    "tree pgl2 --radius 9":
        "b2704e8219e5ed8ecb919e4404b0116d64b919746113fa7b0260e534a046fc0c",
    "check-identities":
        "1daab3bfd58f842d8ef10ad659890d9527a0ba7f6d79a33b3a0a13e2f0f6347b",
    # rows over 2 and odd rows, split and inert and ramified primes
    "homology --field 1 --norm-max 17":
        "159f40db173963c08c0d132e813134be0f69a21122418690d6c4b7479cad3aec",
    "homology --field 3 --norm-max 19":
        "96d1846a781437e3a3feb296f0c0947bc2468a85ab5df0cf95a5f83d74a76291",
    "homology --field 7 --norm-max 17":
        "6cfc8eaf37770bcefcb8a3cc94f5966dcd5d9113545de6d129914600be65b64a",
    # the congruence p-group lemma: its det = 1 filter and p-th powers
    "lemma22 --j 2 --k 4":
        "3999b241e77840f1c768dee990df72cce5672ee89561e8e816c9982131f2a17a",
    "lemma22 --prime zeta5-1 --j 1 --k 2":
        "8fa06a7ee2e8cffd4c4cf2e9590f9647522a5d9b97ebccce94af806cca820eb2",
    # rows past the cap are skipped with their SL2 index
    "homology --field 1 --norm-max 13 --index-cap 500":
        "93d81b47b361e641d8a31ca42aa5f404d99822c3fcb4a41f37f9dc659ba23432",
}


EXPORTS = {
    # the dot labels hash each vertex's printed entries
    "tree su --radius 2 --format dot":
        "25522705711b31d916fc0e0d87408396d0a8b55b22482798a27fd1a7474a2fe2",
    "tree pgl2 --p 7 --radius 3 --format dot":
        "633e276e10f485bb673743ef9db11bee5a873daf77a318196771d09c6e980e17",
    "tower pu21 --steps 6 --format text":
        "d95897a758c7ce528f74540cf4b6d21d2cb18699abaef7a7b95f99b8bb9af11d",
}


def _digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_json_output_is_pinned(capsys, command):
    assert (_digest(capsys, command.split() + ["--format", "json"])
            == GOLDEN[command])


@pytest.mark.parametrize("command", EXPORTS)
def test_cli_export_is_pinned(capsys, command):
    assert _digest(capsys, command.split()) == EXPORTS[command]
