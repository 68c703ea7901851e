"""CLI reports pinned to recorded digests.

Each pin is the SHA-256 of everything `cli.main` writes to stdout for
one command, so any change to a report's bytes (values, key order,
formatting) moves it.  The pure kernel is forced, so the `backend`
fields read "pure" whether or not the compiled extension is built;
the enumeration pins in `test_enum_golden.py` and `test_determinism`
check the compiled kernel's output.
`corpus verify --only free-burnside-kei-sizes` runs Q(3,4) and Q(4,3),
which take seconds; `test_determinism` pins those two tables.
"""

import hashlib
import shlex

import pytest

from tanglekit import _enumpy, presentation
from tanglekit.cli import main

GOLDEN = {
    "invariants 4_1": "e5c15339533e12089ef7e5e24af2c3124f4493a47da4f5dfa2d3527af6e7f464",
    "invariants 8_18": "e5016299497d3cb43e5a29aa9786506bfab93e658b1c54f2ccda29370ff6bce8",
    "invariants 9_2_40": "2b00e13defa3b4be5b93f835ae4ba355c7ca3e84eb25713ca455d39d97c66382",
    "invariants 9_40": "f4482e0048030fa17a8c553fb67b21635c9f939afb6f2396e4809fdbbb1fd30b",
    "invariants 9_49": "35638959474208f2a6b1721e5b5a93cc2140089877cc200f44c8fcd2fcb9c8f4",
    "invariants hopf": "77df1b81975ece88c97c14a55c04d29f921a7805b05a41755f091aa49f989452",
    "invariants trefoil": "1e45915187c4bb1e71f4d0282349532c7da7ef530d32807ca822ee33a663ee9a",
    "invariants unknot": "ea5a0479f59172d36903e8524ca96009f42dff23ec8b6dfdb6b8fa172f3b46a5",
    "braid census": "0ce35696aa3775060a490a34087ca98c6ed133c1dabef5a1b4147cdb79abc807",
    "kei burnside 9_40 --n 5 --table":
        "f9af3b51994559a5ac26995c33cd4f7c47d8e2ed3a3953bcb245705a910fff22",
    "kei enum q33.kei --table":
        "73fb318a900048812b601d4d2d16604f0311863b3548d9ea0641fb318f87ef32",
    "color trefoil --n 3": "3bb3cbee659463697bdf34c7f307a86d2b4d5a4e8af00998d0a628684bea0b99",
    "kei check d4.kei": "a849640c4119c536d340c37361ad59389df8f5c379a94da392ea78f7f480eb7e",
    "kei iso d4.kei d4p.kei":
        "47a66c83290f7a6dea65d72e5163d76068a9ef3bd551a82ac60ee510a75c95a6",
    "braid image '1 1 2 -1'":
        "08de7a36dd0cb2eaee7cc3aa729580156d985ccf08a6101a8084f9e340cc05e1",
    "braid quotient-order":
        "b74b3ce7116c9d071acb350d8187605190811e010808317557a9069113ddf2a5",
    "braid verify-prop27":
        "8cf0e1f3955e33d051c3030be3bc655193b9546486180a8d7364ad0a188d88d0",
    "tangle closure '(comp 0 1 (tw 2 2) x-)' --kind den":
        "742061c97971b33aca18bf1dbe036a67fbff3381ffadd5576dcdb82a4b21613b",
    "tangle move '(comp 0 0 t0 (comp 1 0 x+ t0))' --site 1,1 --q 2 --sign -1":
        "e23438de9b98f8d5112b65da20652ba8feff6a55f6a87cc8fd1b55f3fece3d7f",
    "tangle obstruct '(comp 1 1 (tw 5) (tw 5))' unknot":
        "57f12b4c5d4a582678657c3207d06e72c6a7cdc880bdd88d2d970ca83e0dfa3c",
    "tangle obstruct '(tw 3)' unknot --n 3":
        "f3645aac71771d0398492476bd0001a48933a4260ae6a23a3c1b351817651f1c",
    "jones 4_1": "9d93cd7eea5b5fe5fb8e19df8a4187a9f084ae73a842f6668f57618f8b712ff1",
    "jones5 4_1": "a1909433b23a10e306aff41b7412f5ad28d194fc2848837e2da0ad87f9a93b72",
    "jones5 trefoil": "dac550448aef9a133ac4b4790ab517f44432fb768ce7feaeb7d30b03da09b149",
    "corpus list": "c8a0f5db68b45a8ea6e0adf1d74dbf1379de48892087365571c258e06e361716",
}

VERIFY = {
    "coxeter-quotient": "b10831083dff6634635160ce75f3b82302045e17348bc40bf5a0ad77d5109681",
    "reduction-chain-steps":
        "3cf30e7c0a475a705f7d1aa643fc34485df6c11f515d68ff1df617de3b76a145",
    "exceptional-knot-burnside-kei":
        "bcb04f2103eea2d64d84521be7de0ab326608dd4394a7e9c407b9492f5acb406",
    "fundamental-kei-sizes":
        "85ca9940bb8d186cc76f6f0f638794aab26a09d4d6d807408998e6cde4dd30c1",
    "coloring-groups": "1860090e817eaf3216cba45e989fe4ea555912bdc138a44571d2cc15ab7e8e01",
    "jones-fifth-root": "a9a84e8fe9210fc785d05340dcb645217c33cbf4187cabde56efd4b963f15a0f",
    "suite-5/2-move-col5":
        "1bcf1b3e7454c4a9c0172e80e0c7378b4b9027b1421bd771761966e8ad4416d4",
    "suite-n-move-coln": "38d3a2bbf9bfd2b030dc16dc09f44beb196ff41cc7bd0268dad00914f6e0b0bd",
    "suite-5-move-jones-zeroness":
        "0190105414ac02ffc8cf52f3cf0145e8c87efc95cda809539931471a15903ed2",
    "suite-3-move-bq3-iso":
        "dc14ffd0f43d8e2b6529460f53834b5cba3e964f834ffa4b5de596edf3b13a7d",
    "excluded-scope": "807929798fb80e26deb98abbd64c52f4fd228db38428c7b10a19337dfda70a87",
}

GOLDEN.update(
    (f"corpus verify --instances 10 --only {name}", digest)
    for name, digest in VERIFY.items()
)


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_report_golden(command, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(presentation, "KERNELS", {"pure": _enumpy})
    # reports name their input files, so these get fixed paths
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q33.kei").write_text("gens 3\nburnside 3\n")
    (tmp_path / "d4.kei").write_text("4\n0 2 0 2\n3 1 3 1\n2 0 2 0\n1 3 1 3\n")
    # d4.kei relabelled by 0 1 2 3 -> 2 0 3 1
    (tmp_path / "d4p.kei").write_text("4\n0 0 1 1\n1 1 0 0\n3 3 2 2\n2 2 3 3\n")
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
