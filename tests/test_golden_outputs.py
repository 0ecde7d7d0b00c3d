"""Byte-identity guard for the CLI.

Each case pins the sha256 of (exit code, stdout, stderr, output file) for
one subcommand on one network, so a refactor that changes any byte of JSON,
SVG or a structured error fails here.  Change a digest only together with a
change that means to alter that output.
"""

import contextlib
import hashlib
import io
import json

import pytest

from relumorse.cli import main

NETS = {
    "net-b": ["--fixture", "net-b"],
    "2-8-1-s0": ["--arch", "2,8,1", "--seed", "0"],
    # (3,4,1) seeds 0-4 are rejected like (3,4,3,1) s0; 5 is the first accepted.
    "3-4-1-s5": ["--arch", "3,4,1", "--seed", "5"],
    # Rejected after layer 1: a dead layer on a cell with a vertex.
    "3-4-3-1-s0": ["--arch", "3,4,3,1", "--seed", "0"],
    # Rejected after full refinement: F constant on a cell with a vertex.
    "2-4-3-1-s2": ["--arch", "2,4,3,1", "--seed", "2"],
    # Accepted 4-D net: 35 vertex levels and cells up to dimension 4.
    "4-7-1-s0": ["--arch", "4,7,1", "--seed", "0"],
    # Vertex-free lines, drawn through a point on each line: one, and three.
    "2-1-1-s1": ["--arch", "2,1,1", "--seed", "1"],
    "2-1-3-1-s5": ["--arch", "2,1,3,1", "--seed", "5"],
    # Accepted two-layer nets: several parent tables per layer, and vertices
    # whose zero sets span both layers.
    "2-8-8-1-s0": ["--arch", "2,8,8,1", "--seed", "0"],
    "2-12-12-1-s0": ["--arch", "2,12,12,1", "--seed", "0"],
}

COMMANDS = {
    "build": ["build"],
    "classify": ["classify"],
    "dgvf": ["dgvf", "--local-check"],
    "render": ["render"],
}

GOLDEN = {
    "2-1-1-s1/build": "61735c1c35d9a40a9c9cc0c66121012052e1e171f5fa4e1c11afcee455459f73",
    "2-1-1-s1/classify": "5a435b9c7f4dbbef1bca674ea73336bc155bf49b872d39e6e04713b0c93c21ac",
    "2-1-1-s1/dgvf": "7c3a1d567243de9e854352f5daa56e85a156ade865a58b59b2c6f66f045b5796",
    "2-1-1-s1/render": "ee0642f32dc9c48371564aa1e0010aa33b8016347adaf2030c544031e67e8d5e",
    "2-1-3-1-s5/build": "c98af027369ac6987f207fbda9c0eb9c7cd71593569cadfa2cfa104c5a48e019",
    "2-1-3-1-s5/classify": "5a435b9c7f4dbbef1bca674ea73336bc155bf49b872d39e6e04713b0c93c21ac",
    "2-1-3-1-s5/dgvf": "7c3a1d567243de9e854352f5daa56e85a156ade865a58b59b2c6f66f045b5796",
    "2-1-3-1-s5/render": "59644be9ad30c94ff5b4bb6c841435c2e1b0c0f2264748ad9c863860e8243b0f",
    "2-12-12-1-s0/build": "3d169398c3655d55b37028fb3233f675bedb8c4555900fbdd9ee4cbbf84baf84",
    "2-12-12-1-s0/classify": "c66926504a017aa1e410e7f19bffa48df7f46dd17049bc4f566bc7d0048dab5f",
    "2-12-12-1-s0/dgvf": "de5109563eb59553ac0a4ad41bddbf26c4bd4c9272d541de073a7e647bba0b73",
    "2-12-12-1-s0/render": "ef1f48e1d6240a03556d695161b25133987770255cd983427b34ec52495bc35c",
    "2-4-3-1-s2/build": "302c630f16c6bb8180a7c7117f9248a53f6849ae359c033409c7046b62817f69",
    "2-4-3-1-s2/classify": "302c630f16c6bb8180a7c7117f9248a53f6849ae359c033409c7046b62817f69",
    "2-4-3-1-s2/dgvf": "302c630f16c6bb8180a7c7117f9248a53f6849ae359c033409c7046b62817f69",
    "2-4-3-1-s2/render": "302c630f16c6bb8180a7c7117f9248a53f6849ae359c033409c7046b62817f69",
    "2-8-1-s0/build": "24b6b63fef7407a1eb9c48f06c5b4f85893a6daabab971e5c8a1ba46e40cb758",
    "2-8-1-s0/classify": "97c8967e9928b795adea93d92a9d641e1f1d2e10d6817376be0b378739e17bfd",
    "2-8-1-s0/dgvf": "0d1d4c1c3a794b8df712cfdb127ded1df9d335ccad26cda3a6d9a009369f032d",
    "2-8-1-s0/render": "0d075a0c0f050132e047cc85af5d83895cb9b46fa65bcc570d5a908f301fd98e",
    "2-8-8-1-s0/build": "6ecd5a0423b401b4f3084aa9b69dab5abb9b0941abccab2210c591be0e2af435",
    "2-8-8-1-s0/classify": "681cb8b497f9bc2e2aa5908db9a744fb532ca06ea50ccf04b412e26673b32c52",
    "2-8-8-1-s0/dgvf": "e845e7d9490ea590618074234fd6933f92a218f3dddcacddc67fff160c040488",
    "2-8-8-1-s0/render": "a5602c66c8b4c41c1ee9af77d182986e1e4f26e6edf79822cc8fd777e06af1a8",
    "3-4-1-s5/build": "12a8a79b0febf97fa844de7b75ad2a5178d82cdddda05e361bd19bb469a85028",
    "3-4-1-s5/classify": "96b7bce051d699415fda2cd0f64e8629a2b72f61666b2ee99558bbd7c8a135f4",
    "3-4-1-s5/dgvf": "e02402b8e4a7dc059db81634e8ca936e5f0e553d153dbf285fac0a7f3f344adf",
    "3-4-1-s5/render": "a639c545e4b7b3aa43969d334235e2d8e9dc14e73b39993f4b9cf57871d03bc5",
    "3-4-3-1-s0/build": "f24f02edf8383aab8c3eed071b4ce918fea274a86b02bd97ea2c5afaefbcd027",
    "3-4-3-1-s0/classify": "f24f02edf8383aab8c3eed071b4ce918fea274a86b02bd97ea2c5afaefbcd027",
    "3-4-3-1-s0/dgvf": "f24f02edf8383aab8c3eed071b4ce918fea274a86b02bd97ea2c5afaefbcd027",
    "3-4-3-1-s0/render": "f24f02edf8383aab8c3eed071b4ce918fea274a86b02bd97ea2c5afaefbcd027",
    "4-7-1-s0/build": "f94bc3f1c1d94a5ce218b7d854589f2c249de340e50b8fd51b1962b20ee3ff63",
    "4-7-1-s0/classify": "448fb9886f72e311ded7acc0778d8d9b81a6aa6dc0aba7de66e55290f13528bb",
    "4-7-1-s0/dgvf": "7702fa4987e54a8927b09976d9156c99b68dae4320dd1dd4a0778b71d54cff58",
    "4-7-1-s0/render": "379a07a49e3f0b402b5ef42aa6573cd02491a59405e22d291356da78a1124aa3",
    "net-b/build": "998d67997c0e50f3a408d65e3367e7793716d97def787dc2fc88be694ecc787a",
    "net-b/classify": "54c3a00c591cade8ac98727837ed0270a62eb1398ce5909cb9f43201a12a8fd8",
    "net-b/dgvf": "a7dc89d50efd75accff4935aec26f386dace01e95e08edadd7c9bcd50d410b28",
    "net-b/render": "5c98847e6b207f271973bd6188078720b9f1615f93c00c1c0e0e706e68f978a0",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(net: str, command: str, directory) -> str:
    weights = directory / f"{net}.json"
    if not weights.exists():
        assert _run(["gen", *NETS[net], "-o", str(weights)])[0] == 0
    target = directory / f"{net}.{command}.out"
    code, stdout, stderr = _run(
        [*COMMANDS[command], "-i", str(weights), "-o", str(target)]
    )
    text = target.read_text() if target.exists() else None
    blob = json.dumps([code, stdout, stderr, text])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("net", sorted(NETS))
def test_output_digest(net, command, workdir):
    assert digest(net, command, workdir) == GOLDEN[f"{net}/{command}"]
