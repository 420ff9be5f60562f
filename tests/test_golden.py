"""Byte-level pins of CLI JSON outputs.

Each digest is the sha256 of the exact stdout of the command with
``--format json``.  A change that alters any of these outputs must update
the digest here and say so in CHANGES.md.
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
    "tree su --radius 2":
        "c7f6f1cecda0f4fde7a47835f0e869620bb26218541dc0a0aeb32c0bc5e29746",
    # the ramified prime over 7 in O_7, and the rational ring
    "tree pgl2 --p 7 --radius 3":
        "14ddcbd2a8363054205f520ef5b82d4629ac7508231584a1a980acfb48d789fd",
    "tree oq --radius 2":
        "01b44a359403880d011ba375f7ff21611676780970ea7d9b29bf0402d921ba0b",
    "check-identities":
        "1daab3bfd58f842d8ef10ad659890d9527a0ba7f6d79a33b3a0a13e2f0f6347b",
    # rows over 2 and odd rows, split and inert and ramified primes
    "homology --field 1 --norm-max 17":
        "159f40db173963c08c0d132e813134be0f69a21122418690d6c4b7479cad3aec",
    "homology --field 3 --norm-max 19":
        "96d1846a781437e3a3feb296f0c0947bc2468a85ab5df0cf95a5f83d74a76291",
    "homology --field 7 --norm-max 17":
        "6cfc8eaf37770bcefcb8a3cc94f5966dcd5d9113545de6d129914600be65b64a",
    # rows past the cap are skipped with their SL2 index
    "homology --field 1 --norm-max 13 --index-cap 500":
        "93d81b47b361e641d8a31ca42aa5f404d99822c3fcb4a41f37f9dc659ba23432",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_json_output_is_pinned(capsys, command):
    code = cli.main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
