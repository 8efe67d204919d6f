"""Golden reports and closed forms.

The sha256 of each catalog report pins its exact bytes, representatives
included: any change to elimination, the relative subspaces or the report
format that alters one byte of one report fails here.  The closed forms
check Betti numbers against theory instead of against frozen values.
"""

import contextlib
import hashlib
import io
from math import comb

import pytest

from liecoh.cli import EXIT_OK, main
from liecoh.cohomology import betti_sequence
from liecoh.extensions import builtin
from liecoh.gmod import trivial_module

# (argv, sha256 of stdout); every command exits 0
GOLDEN = (
    ("check sl2 --json", "bd5651c8551e22f0b1ee229ae6ea62464444085c5ffbd26e7eddde79e4fef7ea"),
    ("cohomology sl2 --coeffs trivial --degree all --representatives --json", "31202829cb242fd0c1af8aec4b8ea9462a2dc21a4f510dc00a4fcc548c2dd6ec"),
    ("cohomology sl2 --coeffs adjoint --degree all --representatives --json", "4e7734f4244199d2319e92d9fb843f8895b3c1b8e26a3204b6f574b492cc05e4"),
    ("cohomology sl2 --coeffs coadjoint --degree all --representatives --json", "e840d60380f5180745256e80b69d7ef2b20494652e6b1a554e11b5ebf6f3f80f"),
    ("check so3 --json", "8395ba6a53722c53f2c9a4124aee20fe0cd3ae685d7f0dfa1f08c0a4c3ae3e82"),
    ("cohomology so3 --coeffs trivial --degree all --representatives --json", "49b05c6cfabdd8750113544853ca62d364de331d670780cbae349cfbd001f407"),
    ("cohomology so3 --coeffs adjoint --degree all --representatives --json", "deef63e0e039927e387d2de0a72d94f3ff66e7b115d67ebabc1053015da84c74"),
    ("cohomology so3 --coeffs coadjoint --degree all --representatives --json", "6c86f7e92c29e11ca5ab0f775797e60562da38f76c302eefaf77d3eeabef144a"),
    ("check sl2sl2 --json", "f488e31b918efe15e7fad077910711542ef7fb82c32b80481025614e34725c18"),
    ("cohomology sl2sl2 --coeffs trivial --degree all --representatives --json", "dc9f23b6820f9c2fda471aec26983cee47a190e72b6ff83b8e7c5ae5cbd04af2"),
    ("cohomology sl2sl2 --coeffs adjoint --degree all --representatives --json", "affebed940f865d8448cd661042f5bbe447479685baa089a70cd4e7c793b84ea"),
    ("cohomology sl2sl2 --coeffs coadjoint --degree all --representatives --json", "e2b2712d44edcbff938bf55ae67db53408af583c24debe1acbca5f8b385e6582"),
    ("check heis3 --json", "1a1e39ffce872fd3b0b124e6d4a921f0aafe233903e4e129d76c4ed3302ea62f"),
    ("cohomology heis3 --coeffs trivial --degree all --representatives --json", "7f17deccde03523444b7bc530305e2354b89d1c350ccf12418b6ae6bdc880bce"),
    ("cohomology heis3 --coeffs adjoint --degree all --representatives --json", "c408663274af47a1bb75b3da90b08e383d61d591541b9b69b42e75a3e9ed4bf6"),
    ("cohomology heis3 --coeffs coadjoint --degree all --representatives --json", "21a2f5a9a1ad42d8a0277e4341e8ed2005662dc4f5700cf02ecf127b805f1ec3"),
    ("check abelian:3 --json", "63e9effcd67fd696957e2d0a9489eb42f433b44db48232e645cd3c4ac015b1aa"),
    ("cohomology abelian:3 --coeffs trivial --degree all --representatives --json", "373b001faf12f989f86d5ebad72fc247752c7fd9a4ca9639c5deddd5290f22ae"),
    ("cohomology abelian:3 --coeffs adjoint --degree all --representatives --json", "89b836fed6d5b6b08d0a93758203f959d14675c00ad38c4217c2b38c5c4602ea"),
    ("cohomology abelian:3 --coeffs coadjoint --degree all --representatives --json", "027f79402d81032c66330e62c36f6890faf7752dade6971fa6d188cfc1690f2d"),
    ("check sl2_so2_pair --json", "54917af4bbf24fa5167e530c05b017fa585c9fe367cec359302a8bc0b7deeaa7"),
    ("cohomology sl2_so2_pair --coeffs trivial --degree all --representatives --json", "bb2e217d761cb137a409f4f206db5a85d1832e1284beda705a8b7d7883e95dc8"),
    ("cohomology sl2_so2_pair --coeffs adjoint --degree all --representatives --json", "2fa7062c1f2b39a10b768543a10f62a6b9a05bf3a271989aa906950a645ad562"),
    ("cohomology sl2_so2_pair --coeffs coadjoint --degree all --representatives --json", "bb9613137119d60864bd68e71fea3f23b1959b4d709250a610e76b9c9d125671"),
    ("check sl2R_ext --json", "1b5170dbbc50ef3f142756e952ec1deee00565ebb033dccaffaf132d3010c226"),
    ("cohomology sl2R_ext --coeffs trivial --degree all --representatives --json", "4e95827f5244821b70bb7dc34146887c9ecbed097b81dc3f9fbd91e23c199456"),
    ("cohomology sl2R_ext --coeffs adjoint --degree all --representatives --json", "3f1fdaac5089ff3780c1cc24c3c2de8018ef8fd8daa3076a9440985a430ace3b"),
    ("cohomology sl2R_ext --coeffs coadjoint --degree all --representatives --json", "6f6c8d1ef2f3f81b368377c96892e2237f629464c18440e02de66fbea31a2d5f"),
    ("check fivedim_ext:1 --json", "178c53853db359f1423f46a3ce432c8d0544fdf8fad2cf486c5ac7f906c82dcd"),
    ("cohomology fivedim_ext:1 --coeffs trivial --degree all --representatives --json", "db4b38bcc710d9d681c64fc9b2d49127dfa06ec0ce504cd66119ae28dba1a905"),
    ("cohomology fivedim_ext:1 --coeffs adjoint --degree all --representatives --json", "4b50e357a0db84cf9230099cec8c91b886a7f03507c6b0729b7e4c6181b35e3e"),
    ("cohomology fivedim_ext:1 --coeffs coadjoint --degree all --representatives --json", "61d320d8447e1abf85f0befc4e3806a241e00ede8997e117825d63ca37501ca7"),
    ("check fivedim_ext:5/2 --json", "f9188abd91b8086519a32a6753ebe6c6ca7bb7fcac58f22141a9c31ef1fdbf5e"),
    ("cohomology fivedim_ext:5/2 --coeffs trivial --degree all --representatives --json", "eff9535977b1cd0ae2663b034c0abca757aa21de895d4f2118bc5be3d131cbac"),
    ("cohomology fivedim_ext:5/2 --coeffs adjoint --degree all --representatives --json", "9b2e66420331f8b9ded54f0d603594b4889ff5d34ae3afc639100497b94f8015"),
    ("cohomology fivedim_ext:5/2 --coeffs coadjoint --degree all --representatives --json", "32e22efa4fa3b463ed63f6a6800bdc515585f501ab9891c45604b0da6bc39e54"),
    ("cohomology sl2_so2_pair --coeffs trivial --degree all --representatives --relative --json", "8526a6d41c43cb26953ecd6a17049faa2a7a043187be11c2b52e2d123441d247"),
    ("cohomology sl2_so2_pair --coeffs adjoint --degree all --representatives --relative --json", "9fa57fbd2c7986c5421a2f9c83d6bed7464dac2ee199d818704722d7c251f0d5"),
    ("cohomology sl2_so2_pair --coeffs coadjoint --degree all --representatives --relative --json", "3de9405efce83b28c0f7b4ed0d526e1c7fb338525bf71dfe8bbfd16e13289d9b"),
    ("cohomology sl2R_ext --coeffs trivial --degree all --representatives --relative --json", "ec6eeccf5361ca6d1da6c9c5506038b8ea10c5866c1969d34963abdf261f659c"),
    ("cohomology sl2R_ext --coeffs adjoint --degree all --representatives --relative --json", "239b9e6d93eb6e64ea91369034111049b25e737f4ad2e67b3850eb687d5825d8"),
    ("cohomology sl2R_ext --coeffs coadjoint --degree all --representatives --relative --json", "0edebb05985414c65c208234dc6ea0d56ff49d2c3997e19926df5afbb784b4a0"),
    ("cohomology fivedim_ext:1 --coeffs trivial --degree all --representatives --relative --json", "9b23ce9f8b78af4c7a04d384f1ba843d580429274d740449a49d6aaa86c0717a"),
    ("cohomology fivedim_ext:1 --coeffs adjoint --degree all --representatives --relative --json", "496e677aa983cccdef9dcb974d0caf217055006f3e6d897473406dd5af741a54"),
    ("cohomology fivedim_ext:1 --coeffs coadjoint --degree all --representatives --relative --json", "9f4d52e2ed786fcf03bbb85e8681498e8afa395541115028df1ab0c1f0b95936"),
    ("cohomology fivedim_ext:5/2 --coeffs trivial --degree all --representatives --relative --json", "9d0bcc561954c4ea3822f46450db1d3e585d088cba6312accf285d0541c27bd7"),
    ("cohomology fivedim_ext:5/2 --coeffs adjoint --degree all --representatives --relative --json", "3a256785a79d651046c1f7cf7bdf96378d28c7e6ae495070c847550118819630"),
    ("cohomology fivedim_ext:5/2 --coeffs coadjoint --degree all --representatives --relative --json", "968a6244126dd04718ede05b3ee7cddc98c8cafaa6545bf061e132298a25dfca"),
)


@pytest.mark.parametrize(("argv", "digest"), GOLDEN, ids=[a for a, _ in GOLDEN])
def test_catalog_report_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(7))
def test_abelian_betti_numbers_are_binomial(n):
    g = builtin(f"abelian:{n}").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == tuple(comb(n, k) for k in range(n + 1))


def _is_unimodular(g):
    # tr ad(e_i) = sum_j c_ij^j
    return all(sum(g.brackets[i].row(j)[j] for j in range(g.dim)) == 0 for i in range(g.dim))


UNIMODULAR = ("sl2", "so3", "sl2sl2", "heis3", "abelian:3", "sl2_so2_pair", "sl2R_ext",
              "fivedim_ext:1", "fivedim_ext:5/2", "fivedim_ext:-3/4")


@pytest.mark.parametrize("name", UNIMODULAR)
def test_unimodular_betti_numbers_are_palindromic(name):
    g = builtin(name).algebra
    assert _is_unimodular(g)
    b = betti_sequence(g, trivial_module(g, 1))
    assert b == b[::-1]
