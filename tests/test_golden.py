"""Golden outputs: one SHA-256 digest per command, pinned from a reference run.

Each digest covers the exit code and the whole standard output of one
command: `recognize` for every class and every method it supports on every
graph with n <= 6 (every 2-colored graph with n <= 5 for `partitioned`),
and `obstructions --nmax 5` for every family. A change to any verdict,
certificate line, obstruction or catalog name changes a digest. The digests
stand in for the outputs themselves, which come to about half a megabyte.
"""

import hashlib

import pytest

import threshkit.cli as cli
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.graph6 import color_string, encode_graph6

GOLDEN = {
    "recognize --class threshold --method elimination":
        "5f6312f2f45d67278e51861fe267a0c41ff51ff287a40d7c43bd353e14581ae4",
    "recognize --class threshold --method fis":
        "3b99beeba0a4bb4b2a27b5e5c4eae75e4208b338b07ed2e1470c0734ad0c4b63",
    "recognize --class threshold --method both":
        "e0287a8d8ce6ed2e47b615ecc21ffc0609bbd06355f4dcc50977bc85e9678335",
    "recognize --class kthreshold --method elimination --k 2":
        "b5a2e89c7016a69a850005d08990f18b7eff45a280d7f52faece9a046e3d6a15",
    "recognize --class kthreshold --method elimination --k 3":
        "ec68cf25e2e43ed615a01f0708e31259a42c3115477d3db74b6d449ad56c43a4",
    "recognize --class special --method elimination":
        "4e913d8b69b43240f4eb07ec0ae56e8507a9b7a1110ae6d58fddedeadb2865d6",
    "recognize --class special --method fis":
        "fff58913deb3d43388ed52ffc77e6cb0bd3539054eb15f5ed61c1f4e3796d50f",
    "recognize --class special --method both":
        "d15571774f5ecee27430199c2ef2a8796ab89da9b21458943707642773d3efe6",
    "recognize --class restricted --method elimination":
        "fb0958dffb9d986e2e7f1490267d7b79718c543b308ddb9a3f41fd37dbf638c5",
    "recognize --class restricted --method fis":
        "5ef8b9c80be44f6ca22f4dbec7eb373323149f797295995a34fa33c46dbb4663",
    "recognize --class restricted --method both":
        "6ca4293106964425ca0c839f6748d8aa3e8ab01e0dfe9d632bc9b559950f4dd7",
    "recognize --class extended --method elimination":
        "06e6ec211fa2f82479fe59930ef374b0b2934de64c43a9502a03f1c8763d2ed6",
    "recognize --class partitioned --method elimination":
        "372fa20637e1037a608c4590569dbba5ded7be18451cdc03e9c209d5b35455c6",
    "recognize --class partitioned --method fis":
        "2a2fb9aab99238ce988f95192a4475021f2b1b0494a36ded8da36736585a6282",
    "recognize --class partitioned --method both":
        "b22c6ed7ae73cdd672817c74250516ea8d6250a5bf682bf6f43607a797640c29",
    "recognize --class good --method elimination":
        "61f59c73fa84dee6890e463dadace099d3d644d2b3fb563f6b84a6037d0f9fe9",
    "recognize --class good --method fis":
        "3383ce39435886565d59471d8ac2aad1705504eaee50c001e0d68fcfd1b207a0",
    "recognize --class good --method both":
        "74d77660a2afdee0364d5c52fb00b91d9e6eeefa69cba1a2b684d63eaf164703",
    "recognize --class switch-threshold --method elimination":
        "090003b3c0631ca419268eba74aa8033b20ad49a9baa2e80790ad65544f3941e",
    "recognize --class switch-threshold --method fis":
        "778c338adf65bb2a936b7bd41347d4fcfb311a33a4020a1c49ac3123ebefe151",
    "recognize --class switch-threshold --method both":
        "ba9a9617bc5928b8aa74094c20a9a8cc40cf328c4d6af96e10eb60cbb8d29a15",
    "recognize --class switch-cograph --method elimination":
        "ef580712424b3a0793c0c95c12ca0b2c9ca67a9867369aee88ac3111748bd4ec",
    "recognize --class switch-cograph --method fis":
        "964a7d5db8cce08ee3f2f05e41f35df8f4ddd7093923d041dab85a7e11a18ca7",
    "recognize --class switch-cograph --method both":
        "b4904c225098ea551b5a6d4289bbaf143b4761e5f3fbd378ebf7762e71a7cb73",
    "recognize --class distance-hereditary --method elimination":
        "d877af2829b8b6469cc3a89526c15d8355628d4d6a3268ecefacd1a8cc1900fc",
    "obstructions --family threshold --nmax 5":
        "9ed83c18499a3ea11c80a02fda6a5865783444e684fa4cc9f5febabea36088ba",
    "obstructions --family kthreshold2 --nmax 5":
        "6a32ba32ab1fef8ad2d8da091b201191684b13fb102b5ae6841e2577cd8deaa1",
    "obstructions --family special --nmax 5":
        "5b3554fe61dc8339f0c8644410e2679534d54deb3123be912e9636e6edf5fa59",
    "obstructions --family restricted --nmax 5":
        "d4f62d97a1e154ef9eb559bec4ecdaa91bd8b5a1744f4008c46ca90520f98401",
    "obstructions --family extended --nmax 5":
        "36a8f9f847b8719efb7106c27b0ff252fa460837751b81cf362567e0fda25219",
    "obstructions --family partitioned --nmax 5":
        "9199e046b9bd8196f8d04e6c4178ab7f60290d30898487cc23b79418138761e7",
    "obstructions --family good --nmax 5":
        "7eece87b792ad7cb48f532d2dbf8af095d2511b762780343abcd9784ad48d476",
    "obstructions --family switch-threshold --nmax 5":
        "d4f62d97a1e154ef9eb559bec4ecdaa91bd8b5a1744f4008c46ca90520f98401",
    "obstructions --family switch-cograph --nmax 5":
        "d4f62d97a1e154ef9eb559bec4ecdaa91bd8b5a1744f4008c46ca90520f98401",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Graph files: every graph with n <= 6, every 2-colored graph with n <= 5."""
    root = tmp_path_factory.mktemp("golden")
    plain, colored = root / "plain.txt", root / "colored.txt"
    plain.write_text("".join(
        encode_graph6(g) + "\n" for n in range(1, 7) for g in all_graphs(EnumerationConfig(n))))
    colored.write_text("".join(
        f"{encode_graph6(cg.graph)} {color_string(cg.colors)}\n"
        for n in range(1, 6) for cg in all_colored_graphs(n)))
    return {"plain": str(plain), "colored": str(colored)}


def digest(command: str, inputs: dict, capsys) -> str:
    argv = command.split()
    if argv[0] == "recognize":
        argv += ["--input", inputs["colored" if "partitioned" in argv else "plain"]]
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"exit {code}\n{out}".encode("ascii")).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_matches_golden_digest(command, inputs, capsys):
    assert digest(command, inputs, capsys) == GOLDEN[command]
