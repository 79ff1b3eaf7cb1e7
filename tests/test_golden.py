"""Byte-for-byte pins of the command line's reports on a fixed argv matrix.

Each call's exit status, stdout and stderr are hashed together, so a
change to any report, verdict or exit code of these calls shows here.
The hashes were recorded from the program's output when the test was
written. Reprint them, after a change of output that is meant, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from codecert.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

#: Code files beside demos/data: {t} in a call is the directory they are written to.
EXTRA = {
    "not_ud.code": "radix 2\na 0\nb 01\nc 10\n",
    "two_words.code": "radix 2\na 0,01\nb 10\n",
}

#: Each call runs as written and again with --machine; {d} is demos/data.
CALLS = [
    "entropy {d}/dyadic_source.txt",
    "entropy {d}/skewed_source.txt --radix 3",
    "acl {d}/dyadic_source.txt {d}/dyadic_code.txt",
    "acl {d}/skewed_source.txt {d}/skewed_code.txt",
    "kraft {d}/dyadic_code.txt",
    "kraft {d}/skewed_code.txt",
    "check-ud {d}/dyadic_code.txt",
    "check-ud {d}/skewed_code.txt",
    "check-prefix {d}/dyadic_code.txt",
    "check-prefix {d}/skewed_code.txt",
    "build-code --lengths 1,2,3,3 --radix 2",
    "build-code --lengths 1,1,2 --radix 2",
    "huffman {d}/dyadic_source.txt --radix 2",
    "huffman {d}/skewed_source.txt --radix 2",
    "huffman {d}/skewed_source.txt --radix 3",
    "huffman {d}/skewed_source.txt --radix 16",
    "certify {d}/dyadic_source.txt {d}/dyadic_code.txt",
    "certify {d}/skewed_source.txt {d}/skewed_code.txt",
    "simulate {d}/dyadic_source.txt {d}/dyadic_code.txt --t 1000",
    "simulate {d}/skewed_source.txt {d}/skewed_code.txt --t 1000 --seed 7",
    "fuzz --trials 200 --seed 1",
    "fuzz --trials 200 --seed 2",
    "check-ineq --probs 2/5,3/10,1/5,1/10 --radix 4",
    "check-ineq --probs 1/2,1/4 --radix 3",
    "certify {d}/dyadic_source.txt {t}/not_ud.code",
    "check-ud {t}/two_words.code",
]

GOLDEN = {
    "entropy {d}/dyadic_source.txt": "5102aef36e121c962dc3ecbf8616b2ca095c7ffeab691db3038fe1252f10600b",
    "entropy {d}/dyadic_source.txt --machine": "11a6208491bc2af936d455426f8d44df23a6674bdead2637702473100b4af232",
    "entropy {d}/skewed_source.txt --radix 3": "93f4b05e51c6870fc6a2f07aba38f3e197abbcf7f7f334e708af4229c874f7e3",
    "entropy {d}/skewed_source.txt --radix 3 --machine": "a7e50003bb36bae76edae9640056f2d41b0746a52c4fd35ec64740391955669a",
    "acl {d}/dyadic_source.txt {d}/dyadic_code.txt": "e086464120a58f22f21ddc077d8b5f564092db3909f70bdc5e647df95ae3893d",
    "acl {d}/dyadic_source.txt {d}/dyadic_code.txt --machine": "2118d973386481108005bc4597a7b70d881f8e6ddc0ea2f7d2c331316ccca684",
    "acl {d}/skewed_source.txt {d}/skewed_code.txt": "6f6889d56478d83aad4962ce23f48c6877dc924f7a0b757961f4608c2c982550",
    "acl {d}/skewed_source.txt {d}/skewed_code.txt --machine": "de42cf375e0b737b47fec67e4f359f192974c975bc86f765cbfa3895b14500f7",
    "kraft {d}/dyadic_code.txt": "340f14a790e48816a041980cd1919f4977296a6a104996840be709d5860d64aa",
    "kraft {d}/dyadic_code.txt --machine": "f2deba84e17f9e6bd56c54ce72799bee23a2d33a64ee716e11dcad43fe7441a7",
    "kraft {d}/skewed_code.txt": "340f14a790e48816a041980cd1919f4977296a6a104996840be709d5860d64aa",
    "kraft {d}/skewed_code.txt --machine": "f2deba84e17f9e6bd56c54ce72799bee23a2d33a64ee716e11dcad43fe7441a7",
    "check-ud {d}/dyadic_code.txt": "24090ffbfc830be85a64fcbe701d04f907f8ed723ae8e4a1e829a3b47bdc4186",
    "check-ud {d}/dyadic_code.txt --machine": "712d58ecfa5af2dc97ed975b11c5506ee91fedff4271aef400d4ff567d860b32",
    "check-ud {d}/skewed_code.txt": "24090ffbfc830be85a64fcbe701d04f907f8ed723ae8e4a1e829a3b47bdc4186",
    "check-ud {d}/skewed_code.txt --machine": "712d58ecfa5af2dc97ed975b11c5506ee91fedff4271aef400d4ff567d860b32",
    "check-prefix {d}/dyadic_code.txt": "df61092ffe22863cc5804607fd5cf0c4ffbcc6d6c94575efa7628f5c70411243",
    "check-prefix {d}/dyadic_code.txt --machine": "3ce79c567df26e2bdf7456e931ad707700b57d5b2e0bb17f705cfe58910c902b",
    "check-prefix {d}/skewed_code.txt": "df61092ffe22863cc5804607fd5cf0c4ffbcc6d6c94575efa7628f5c70411243",
    "check-prefix {d}/skewed_code.txt --machine": "3ce79c567df26e2bdf7456e931ad707700b57d5b2e0bb17f705cfe58910c902b",
    "build-code --lengths 1,2,3,3 --radix 2": "376765d63783f1176075424cb39eb2da001aa1fe68bdf9ecc7fa08b4c3c566f7",
    "build-code --lengths 1,2,3,3 --radix 2 --machine": "376765d63783f1176075424cb39eb2da001aa1fe68bdf9ecc7fa08b4c3c566f7",
    "build-code --lengths 1,1,2 --radix 2": "ca0a134bb0c8d4bdaea0096ab3c574b18a322f8f01604ae139694187b1bab74c",
    "build-code --lengths 1,1,2 --radix 2 --machine": "9b3392c4e266be0fcf9500ca2b2a58fb2d911f3f0699921cfd911576ddb1419c",
    "huffman {d}/dyadic_source.txt --radix 2": "a9617c7f74eb8f80d31d1c51fa5cad3c98689f785fc263e46c848f249d8f8711",
    "huffman {d}/dyadic_source.txt --radix 2 --machine": "0800745eecb753b29383ab48ddacda28b6a6ad6fc20bac8e782d2dd40f3f9918",
    "huffman {d}/skewed_source.txt --radix 2": "0fdb9091f0fc694a309189bb5769da08a2df5488c1b391adcbfc3d4a2b17af99",
    "huffman {d}/skewed_source.txt --radix 2 --machine": "622c6b663a9096a20d98697a90bb465b214fb9fa85d857e719f0493bcd92bede",
    "huffman {d}/skewed_source.txt --radix 3": "153142b6e8b7dac0f3ab2267700900f2e5418f9b64fa136a73f1c1abdc5b7a77",
    "huffman {d}/skewed_source.txt --radix 3 --machine": "4bffac5e95f1710e73e9de0dec02ae454989ed1401f9ddbe1e29e7a8bb679ed9",
    "huffman {d}/skewed_source.txt --radix 16": "8b0481439773b0898cc9db798f139e1fa8fc6acd0864b5fe95ab2cc6df0d18af",
    "huffman {d}/skewed_source.txt --radix 16 --machine": "063b8fe538d9f91dd8ae4d458e50abb6b561a401a5faea08d998a2131e7f5576",
    "certify {d}/dyadic_source.txt {d}/dyadic_code.txt": "1f91f13c7c6e5f313821231671e5eb40a94db76e9ade57fc4674bbfcb2289105",
    "certify {d}/dyadic_source.txt {d}/dyadic_code.txt --machine": "c39f477f52cac0ac1ee5b54712c307c679d0d162f5071e63936ed9b36d5ddd1f",
    "certify {d}/skewed_source.txt {d}/skewed_code.txt": "7d7fa76e10e843257ab75b033174b733cce38cd65ac19712e3a848ca60e36955",
    "certify {d}/skewed_source.txt {d}/skewed_code.txt --machine": "2d6b0b6860d4175106c8b3d6bf1c3ed65f08a28a9393774023c8e9159719d2db",
    "simulate {d}/dyadic_source.txt {d}/dyadic_code.txt --t 1000": "f2748c678e37fb7ae33517cee5369ee32e488ee2d1ed7c69d0a0d3a6ed2e1187",
    "simulate {d}/dyadic_source.txt {d}/dyadic_code.txt --t 1000 --machine": "b8b4c195b26e68d0d0c66c2e1dc7d626ec7540913eafe9cdbe2705618f5ea97c",
    "simulate {d}/skewed_source.txt {d}/skewed_code.txt --t 1000 --seed 7": "a917655930e2b030a872093bb15e922df3e6cdd69197c83e5de6eca48e492594",
    "simulate {d}/skewed_source.txt {d}/skewed_code.txt --t 1000 --seed 7 --machine": "ad1c186d05d426ea50b29d7c581b0ba72d832d73423626923bca51516e472fc2",
    "fuzz --trials 200 --seed 1": "945bc967916a8092100d9a2854c66bbbe94e4c7740660137e55e5d94f7601c79",
    "fuzz --trials 200 --seed 1 --machine": "c38658e684e5f9b8caf7c98e1186edb6095773cb050ac72f39320589e6838cef",
    "fuzz --trials 200 --seed 2": "69db7fdd0ba6486c21c8db8fa48fe3c636fe335a68ada92abff9412533ff56e3",
    "fuzz --trials 200 --seed 2 --machine": "15f36744cda16c89d9c4c7e2ce83c79abe79cf037c3a268e1e1b4cfaf9333028",
    "check-ineq --probs 2/5,3/10,1/5,1/10 --radix 4": "253b2c958d0cd4446b45cfd3d1545521bdecadc94987febf71e14535bb8393dd",
    "check-ineq --probs 2/5,3/10,1/5,1/10 --radix 4 --machine": "92b73270a6d23fec89f007ea444b4506f2b7e22d26b73ee796eb92525c82380e",
    "check-ineq --probs 1/2,1/4 --radix 3": "e67979f817f127480f9af4147bdbd63c989db021997c0e408ce590e4751d6e58",
    "check-ineq --probs 1/2,1/4 --radix 3 --machine": "efd61cb092548b1a8d1cc922beb1db84dd78b3dfb5485186ad2cfe4eb21e5481",
    "certify {d}/dyadic_source.txt {t}/not_ud.code": "62fa939a5f4764cab55bfbdf7bda102117ca937667636cb475c827e5eda1129e",
    "certify {d}/dyadic_source.txt {t}/not_ud.code --machine": "dd90a3b02723d8b1f85e95d27c5c5e1534e3c71bc4dfd63477f4ad55e32e509b",
    "check-ud {t}/two_words.code": "c0ca327646b9cab3a6e52f82d234f3994e3e72f6e8c67b1b9aa60b961e0456d2",
    "check-ud {t}/two_words.code --machine": "dd90a3b02723d8b1f85e95d27c5c5e1534e3c71bc4dfd63477f4ad55e32e509b",
}


def digests() -> dict[str, str]:
    """call -> sha256 of repr((status, stdout, stderr)), for every call with and without --machine."""
    out = {}
    with tempfile.TemporaryDirectory() as t:
        for name, text in EXTRA.items():
            Path(t, name).write_text(text)
        for call in CALLS:
            for key in (call, call + " --machine"):
                argv = [word.format(d=DATA, t=t) for word in key.split()]
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    status = main(argv)
                report = repr((status, stdout.getvalue(), stderr.getvalue()))
                out[key] = hashlib.sha256(report.encode()).hexdigest()
    return out


def test_reports_match_the_pinned_hashes():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for key, digest in digests().items():
        print(f'    "{key}": "{digest}",')
