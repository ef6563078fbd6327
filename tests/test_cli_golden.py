"""Every subcommand's stdout and exit code, pinned by sha256.

A refactor that is meant to leave the CLI unchanged must leave each digest
unchanged. A change that alters output on purpose re-records the digests
it moves, with the reason, in the same commit.
"""

import hashlib

import pytest

from liouville import cli

GOLDEN = [
    ("bott --weight 0,0,-3,1 --format json",
     "a3d8b47ea4c1ce432d3df1a29a2dc021dfeb9cadc105d3d02f15049a632d34df"),
    ("bott --weight 0,0,-3,1 --format tsv",
     "dbf90b1a2f43484ed8c0edb781c43d36cc2cc25086a290682dd18f38d6fb7eeb"),
    ("bott --weight 0,0,-3,1 --format pretty",
     "1f910caea6db633aa7a134694127037403df86142b355b4a4006375e89d7d30f"),
    ("bott --weight 1,0,2 --format json",
     "5fc98ad0e26f0a23f7eb90c00eb7a6cec42f4b458e9da5a8f09f7e5de8515c80"),
    ("bott --weight 1,0,2 --format tsv",
     "b80debeea066faad187858a2e407e4d1d10506ce5f93b6c28c06d0a4d1ded15e"),
    ("bott --weight 1,0,2 --format pretty",
     "b1149b4fd04ba9886eb24f1a463dc2e7eb35639cfc9e833ce7a04377ed062216"),
    ("sheaf --n 4 --d 2 --b 1 --format json",
     "685f7fedbc3168f1d4a0672741494849e317bb3ce212b69f2c710881da1ab470"),
    ("sheaf --n 4 --d 2 --b 1 --format tsv",
     "c046c9684cb0bd5838b8f572f1411d8d792556d1d5771c1f6c9ffacfdc7a27a6"),
    ("sheaf --n 4 --d 2 --b 1 --format pretty",
     "c1b0c10f73121dc8d486dfd9b2d7754957c8437517f5784b56a38e9e54ed99c3"),
    ("sheaf --n 3 --d 3 --b -1 --format json",
     "95bfba750a7c8f20e3dcfd2dbd3e0bc711fc595faaccac193e9ad681bb9bae31"),
    ("sheaf --n 3 --d 3 --b -1 --format tsv",
     "e6fcc144abcca4ba967d1e37fcf27f43daeb7f0272a2fb36816c1013a1595b51"),
    ("sheaf --n 3 --d 3 --b -1 --format pretty",
     "274e1dd6af17e463d2777c73a98a928ab6b52523759211538aacd42844040593"),
    ("cech --n 2 --box 1 --format json",
     "269334ecbc9ff7515378284f4518f68eafb394999a244111ce700b46cb18c732"),
    ("cech --n 2 --box 1 --format tsv",
     "1a6b3ab489127eaaedee4ee15def32bd64ca95e2b289daddad20bb13d87869f9"),
    ("cech --n 2 --box 1 --format pretty",
     "852fd62d92b2a0f23bc7baef0cbc2c27b9ddb4a6f26ae9a71e2bca89ab68b33f"),
    ("cech --n 3 --box 1 --format json",
     "8f7f12d321061683cc585f8c22b8e8c47bb5d87e4ddf391304e435b83c89e920"),
    ("cech --n 3 --box 1 --format tsv",
     "dfe38f0c14e8ea0c8388fc17d467ec450368d5f63c55af882a7912ab528b3b39"),
    ("cech --n 3 --box 1 --format pretty",
     "34b090540f9150d6cafaf43c03e49c16d01d23dc8485d52918ba34e590525f65"),
    ("ydq --n 3 --d 2 --format json",
     "a683d3c6314d79e9553fe617787a4f1f0f456f9da490ee797a080d4a767fa460"),
    ("ydq --n 3 --d 2 --format tsv",
     "236f453091f639e67c336d08ce65f20e2a6d115fbb208ad35492a0d9a83436c8"),
    ("ydq --n 3 --d 2 --format pretty",
     "0af72bcfc8dc566fe77fda6de6d0fa0665c0ebc885ad9aa8c3c201b815a53d58"),
    ("ydq --n 2 --d 3 --oracle --format json",
     "932d27f4b81737cf92ccc946326b5d7dfb69563a60a7e6cf4fe4a986dccd8f98"),
    ("ydq --n 2 --d 3 --oracle --format tsv",
     "733f35b9c78776c768458ae96584bf9ef0005acf14f9a4fa6963274dc5439ab8"),
    ("ydq --n 2 --d 3 --oracle --format pretty",
     "b04a1cb71f7cb92212db5112b4340e191218ea2b4c10b71104c3e531087f17c9"),
    ("ydq --n 4 --d 3 --format json",
     "87f7d80d9d597647021f9cab392569a4961c8e2a62ef1300f5a2bd5c5207e030"),
    ("ydq --n 4 --d 3 --format tsv",
     "26496667a79a8ed8dfb49898cca8e46fdbcd4bbe6437b45f15eaf6865d6b15f3"),
    ("ydq --n 4 --d 3 --format pretty",
     "b912875df87efbab806790c5967c701fb0754d2b2a84c22c80409e2b50f06a5d"),
    ("killing --n 3 --d 0 --format json",
     "21c0b7322a8e0a706a1bfde71b64e2f998fab25a1e539518e1adad49f709c2d5"),
    ("killing --n 3 --d 0 --format tsv",
     "868d6391aa2785ced83c105b503da059b12bbb0789835caa4f49c3f5d0c43ed7"),
    ("killing --n 3 --d 0 --format pretty",
     "91a1f7f60a81f2f1890d84f90ca52febbe3fcda1bfe6d99ac3916ddf3117c271"),
    ("killing --n 3 --d 1 --format json",
     "b48a4e72fda1768eea8ffc8f5dc4301378f6d0c759d37943207094666c411f8a"),
    ("killing --n 3 --d 1 --format tsv",
     "5d52c5a3c5e08dede6c35be8107be3a20a06591a4930df7db320ede8b4902bec"),
    ("killing --n 3 --d 1 --format pretty",
     "a3530330d7dea40b8406665400c05fc901e8b07300f9589b4590f66e4468a537"),
    ("killing --n 3 --d 2 --format json",
     "ee212f8dd6cb84e9d271eea351644de30fc620f0d48b2851f0e2414e83ba2943"),
    ("killing --n 3 --d 2 --format tsv",
     "f06612c5b6b4c04d5d0b69bcd34a51f6f7e38f2dd4da16c23a5874e5bf584c98"),
    ("killing --n 3 --d 2 --format pretty",
     "ac4707467ee8585e31eaf488c22b91c212a7fc0cf45e08529e20b3f83b8a604e"),
    ("killing --n 2 --d 3 --format json",
     "3bbcc9354c8c4ce6225c9f8398cd3195f96bac794d3963cc7352c15f258e4dff"),
    ("killing --n 2 --d 3 --format tsv",
     "199103de24e0d8a2e81e09e422374a883223b5cb8327d1493ebaab430e25d349"),
    ("killing --n 2 --d 3 --format pretty",
     "54abc18ddff3ab4b2ee8d7984e95d3ec6d0cc62372f3b0be3a62ba5d1580703b"),
    ("killing --n 4 --d 3 --format json",
     "fa45926cb2e2b476bac726cfbfb1c316f4b57293cb85f132b9f7586f3eb882fb"),
    ("killing --n 4 --d 3 --format tsv",
     "40d7f3e17cff2b51a018592b078bcc7f56942839820b74692a904c284f4c1db2"),
    ("killing --n 4 --d 3 --format pretty",
     "b59f41996406cbefaa9ab7e9645568356663b0759fe47c28146b95d7dd6561bb"),
    ("reconf --n 3 --dmax 5 --format json",
     "ac3c9e73f24800295d6be29896cac65097f697c6d733f960ff635661f8ed26d5"),
    ("reconf --n 3 --dmax 5 --format tsv",
     "97cae8b08b5a2ca32ca4929937e98432c9443c75b50d1f520ed7033f913313c0"),
    ("reconf --n 3 --dmax 5 --format pretty",
     "39fa47a889b9c0ab93da32904c118ce5302ec0527e1141e7dc69082bf7859784"),
    ("reconf --n 4 --dmax 4 --indexing bundle --format json",
     "968e59a13c0c0f63b0be76e7d1feae454b562eb69d1baf0eafd37b0ba13ec992"),
    ("reconf --n 4 --dmax 4 --indexing bundle --format tsv",
     "bd7a83453e463ac1845f912e917a520c7d8bc35c905216a6d1a58c4c018880a7"),
    ("reconf --n 4 --dmax 4 --indexing bundle --format pretty",
     "9aa31cc4cfd5c856eaa14abeffe5e8cfb1392df7ea973925e6e1719b62f13680"),
    ("continuity --n-range 2,3,4 --dmax 4 --format json",
     "a21b7958515bf7963e7c07fb7de39bd77636f9025daf22f73c17dab9d02b3108"),
    ("continuity --n-range 2,3,4 --dmax 4 --format tsv",
     "33263d72338b0da4b60f5a9289d31b526cb1b994317fd5f8a38493e20358bea9"),
    ("continuity --n-range 2,3,4 --dmax 4 --format pretty",
     "5f4a4abe29155cfffcdf9b19b56bcfcac74fe17e83141205d99e8bf5c3d33686"),
    ("selftest --format json",
     "313d41ac15c9adeb41cd543f853e66ddae1a307266a3d62de299cdc8ee87ab23"),
    ("selftest --format tsv",
     "7d3964aca9790e61ac84b26f4ce421fbb0559eca21fe0e39ab5f6998ea2ae33d"),
    ("selftest --format pretty",
     "cec87b2ddfc39e75ee09c6d1d831b1b8f3a1bf6dbb4765a3bd691a9183304c6c"),
    ("cech --n 10 --box 5",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("ydq --n 12 --d 9",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("killing --n 15 --d 6",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("reconf --n 3 --dmax 300000",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("continuity --n-range 2,3 --dmax 200",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("reconf --n 2 --dmax 5",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("killing --n 1 --d 1",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("ydq --n 3 --d 1",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("cech --n 2 --box -1",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("continuity --n-range 3,4,7 --dmax 4",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("ydq --n 4 --d 2 --oracle",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("frobnicate",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
]


def output_digest(capsys, argv):
    code = cli.run(argv.split())
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_output_digest(capsys, argv, digest):
    assert output_digest(capsys, argv) == digest


def test_reverse_order_in_one_process(capsys):
    # the parser is shared by every run of a process: refusals and usage
    # errors first must leave nothing behind for the runs after them
    for argv, digest in reversed(GOLDEN):
        assert output_digest(capsys, argv) == digest, argv
