"""Byte-identical CLI output: the SHA-256 of stdout for a fixed list of invocations.

The first 17 digests were taken from the code before the exact layer was rewritten
with rising factorials and integer-floor rounding; any change to what these commands
print, down to one byte, fails here.
"""

import hashlib

import pytest

from bicolored.cli import main

# a 249-character base literal, near the CLI's 256-character cap
LONG_SURD = ("123456789012345678901234567890123456789012345678901234567891"
             "/987654321098765432109876543210987654321098765432109876543217"
             "-314159265358979323846264338327950288419716939937510582097494"
             "/271828182845904523536028747135266249775724709369995957496697*sqrt2")

GOLDEN = [
    (["count", "6", "7"],
     "ccbe8c9053d5f1dacebe8736594571bbffce76fa7a24fcfe6767bedf4137d588"),
    (["count", "4", "9", "--format", "json"],
     "1101e1712e632452aa3ce61ed296d747a853eaac79179406abe10fbbf5e22f6c"),
    (["count", "3", "4", "--oracle", "census"],
     "46d8137f3d22d6ed539ed057fc04aecc565531b113d6753cbd1eca30e7214d87"),
    (["bound", "8", "9"],
     "c4bac0ba1d9e10fb4d1e4f4967f0292fe60c6ef6c87b2a0f6108a632af1f5de7"),
    (["bound", "48", "52", "--max-degree", "20"],
     "60f4c4f8597e12d793f3b539a8302348e32ad3196c879c4077765b9e2f297efc"),
    (["bound", "30", "25", "--max-degree", "20", "--format", "json"],
     "ca6d29e8c177c99bf0f35f9aa93531c45676aeee23c9286438f9881750b01608"),
    (["table", "--p-min", "3", "--p-max", "48", "--p-step", "15", "--k-max", "2",
      "--format", "csv"],
     "17c736ea0d77834b891916df7459314a6e3795f09f34804a3a405bd25bc8e0f0"),
    (["char", "avg", "40", "1/2"],
     "a57e24eec97eb6face8d18ce6af68875deb8dd50695348675c83ec51f830e3b2"),
    (["char", "avg", "16", "2", "--format", "tsv"],
     "8f2c4c6a2e1042987954724d94cba9ac609f02e83934c8511136aed54180c9a7"),
    (["char", "avg", "13", "sqrt2"],
     "040c0c731a9364e5fb0d65269210526d0322c05b17368b733171ffbeb1393531"),
    (["char", "avg", "13", "3/2"],
     "0a77f0ac66aec780d41a84ab3ec599a8d1a89661d2d1713d031ad4f833401cd3"),
    (["char", "twisted", "20", "sqrt2", "14", "3/2"],
     "cb80a34aff13d55c5926d27a8db13f10ffe20b965e0e726cc6cea7521373aa9b"),
    (["char", "twisted", "9", "1/2", "8", "2", "--format", "json"],
     "0697d8e740f13c473010bf39ca7696a9d64b640467616f77e2bb59d654365729"),
    (["orbits", "3", "4"],
     "3ab62ccab866b2d26fb11e2176dca7e6d08adfd960d42d29a333a2e933b3b313"),
    (["orbits", "3", "4", "--format", "json"],
     "57ab6d61da4ca2950e1ac8325321fe44e056b6e28f3057eaf01935c3965b6ff6"),
    (["orbits", "2", "5", "--format", "csv"],
     "b13f76eb69957cb67cebcc507b2cf65eda4962f4ef8349f8b1ece24aa2c4ffce"),
    (["verify", "--suite", "cycleform", "--seed", "1"],
     "89fbc8e56bd36bfccc360b5f8dd4617b5ceaabab82fc50cfad64b30ccd06619f"),
    # taken before Q(sqrt 2) moved to integer triples (x + y sqrt2)/d: the largest
    # operands, odd q (B != 0), a base of norm -1, and bases with two rational parts
    (["char", "twisted", "64", "3/2", "64", "sqrt2"],
     "7ffd3abd691777385c4d1da967f84f932c3e9827831aa50805a0132c712d12f8"),
    (["bound", "64", "63"],
     "936543bafd7449f043408d951392016bd6b404a843db1cfa9a65ceef8a658a8b"),
    (["char", "avg", "9", "1-1*sqrt2"],
     "202ca0ded8bbd379bc352549e252e7d1e689ee5f4e1cdba363ea496f9eda543f"),
    (["char", "twisted", "6", "2/3-1/2*sqrt2", "5", "3/2"],
     "ac4fdf9b501dca53f7045a12a1f7d29263784119ebe25215811571377fea6b42"),
    # taken before the census moved to typed mask tables: the largest census, 2^20 masks
    (["orbits", "4", "5", "--format", "json"],
     "7b5370468609438d704ad58de50751d70373b7777745d59229237da2ea611ac5"),
    # taken before the census moved to column multisets: r = 2, where the row
    # transposition and cycle coincide, r = 1, and a shape walked transposed
    (["orbits", "2", "10"],
     "9a5054d7ea777190d6bab7ee18783e87554dad290fc1e8c7c6a06a4cbf92b27f"),
    (["count", "19", "1", "--oracle", "census"],
     "a5d586ce5c4b4a6ca9ca9ed199b83a0c10145b31583ad6a913a809a09580fc44"),
    (["orbits", "6", "3", "--format", "csv"],
     "da1a823592fcb22a61877e137f39fa373df599d975e051a25edf3122d1d8c7ed"),
    # taken before the count kernel moved to shifts and one exact division per step:
    # the longest counts it prints within the tier-1 time, balanced and skewed
    (["count", "26", "26"],
     "1d31c6b19018331d9a9e5d1326bf693af717f187af95ae076feae08e2c619751"),
    (["count", "5", "64", "--format", "json"],
     "52c6f355697151d5534224ff41092c092ba832796f6ba6cffd56d65843d8645d"),
    # taken before the bound and the twisted product shared one kernel: p and q both
    # odd, the largest p, and negative bases
    (["bound", "7", "9"],
     "395fc5e593728481211946fac68330c3b07b9bc7ba06c1e18f162d24ee9540e2"),
    (["bound", "4096", "1"],
     "f877bf84b72e9bb595f785bf6378f4237cc9c7d9f056e338dceb65839cac24d3"),
    (["char", "twisted", "--", "7", "-3/2", "9", "1-1*sqrt2"],
     "08a54b29e957f94315879f28faf38db7bb667a94de960e0569f3c2a6079bd637"),
    (["char", "twisted", "--", "1", "sqrt2", "1", "-sqrt2"],
     "c35e2108cdc5c4f4f73c746bccf6464dbd6300e80c1a00bdaf17aa7962d76585"),
    # taken before `char avg` joined the twisted-sum kernel and the printer moved to
    # x, y, d: p = 0, a negative base, the longest base, and the count oracle lines
    (["char", "avg", "0", "2"],
     "974e57b002462ee465466a761ea7c8615426dc78fec07a984074aaa909338980"),
    (["char", "avg", "--format", "json", "--", "64", "-3/2"],
     "14933179ea95c1d8795ebd3cc69abd4f10297134fc4ddf1abe00e13e66b56ee3"),
    (["char", "avg", "64", LONG_SURD],
     "883db8b285685a5f43105d37046f23e31448ccc9d1f090fb1d9e4446a897482d"),
    (["count", "3", "3", "--oracle", "naive"],
     "63e89fbdb54150a72b418f7916ed0dd54ed1acd18facaf627af959dfedadf9cd"),
    (["count", "4", "4", "--oracle", "naive", "--format", "csv"],
     "f1b6d75545f3dd2d6c47e0ffd75a75728b55bfad9c6adaea53b2879f3de6e800"),
    # taken before the naive count oracle tallied by cycle type: its cap, (7, 7)
    (["count", "7", "7", "--oracle", "naive"],
     "f1c53ba2e357359a40570c7c7d97e3567c0e25a92db33cf56a7ca34d5aaaabfb"),
    # taken before the verify checks moved to image tuples, the doubling mask table and
    # tallied naive oracles: one suite alone, and every suite at another seed (retaken,
    # with seed 3's below, when two a_{h,p} checks were relabelled as exact comparisons)
    (["verify", "--suite", "characters", "--seed", "0"],
     "e5ed2bbb2c0409a2f2c45bd9ca1f0e4248f7e77f8704807fe0995bae81605a56"),
    (["verify", "--seed", "5"],
     "59f727e89ae7bd17004fbd1c88aa86795994803d46b085e4addd6a2d2aad3201"),
    # taken before the bound summed rational bases over row p and `char avg` became one
    # product: p > q with q odd, a rational 1/z with p > q, and a base with no rational part
    (["bound", "64", "33"],
     "e1219a7e48225524d1310ab8c30a5175f175ed50738557eeb982e05e6258d862"),
    (["char", "twisted", "64", "-3/2", "3", "1-1*sqrt2"],
     "6709178b880be766df6dd874fcc3bd9720b9846d2ac47630566a662c2abf7f1e"),
    (["char", "avg", "64", "-sqrt2"],
     "f64005810ff1a7b6712461e9e939efa669df1d56db7f851a76124dff1a7a9933"),
    # taken before the count kernel walked cycle types as a tree, the conjugation checks
    # ran on S_n's two generators and three rational checks compared integers: every
    # suite at a third seed (retaken with seed 5's), and the suite holding
    # count_exact(26, 26) alone
    (["verify", "--seed", "3"],
     "59f727e89ae7bd17004fbd1c88aa86795994803d46b085e4addd6a2d2aad3201"),
    (["verify", "--suite", "bounds", "--seed", "2"],
     "e279acf5ff9687f5c34f46b0e6c5003ca1c788cb20f71fcad7b9f46011a6f511"),
    # taken before a table cell was rendered from the bound run's unreduced integers by
    # one floor of a Q(sqrt 2) quotient: the default table, a column up to p q = 4096,
    # and negative k in json
    (["table"],
     "de0bf6295c101db5df31eadb35b7c5306e0dfdcc89812f132f038f29074425fe"),
    (["table", "--p-min", "1", "--p-max", "64", "--k-min", "0", "--k-max", "0"],
     "86688abbea4f49644e28af74bc2007fccd91831e8c22af054662113f3873b01c"),
    (["table", "--p-min", "2", "--p-max", "30", "--k-min", "-1", "--k-max", "6",
      "--format", "json"],
     "836ce80b9238bff05fca736bbbac5a32cfa59ece5db678b4b5c7385aa88bbd21"),
    # taken before a table cell became 2 (2^q)^(p rising) / (A + B sqrt2): a row past
    # p = 64, where each q sums out Stirling row q, with b > 0 floors at odd q
    (["table", "--p-min", "65", "--p-max", "65", "--k-min", "-63", "--k-max", "-2",
      "--format", "csv"],
     "8d3c09fcc20e5aee2313a2dc6e7ff1080f68e6a90d5f7417012a836ccebcb8a4"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join("LONG_SURD" if x == LONG_SURD else x for x in a)
                              for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
