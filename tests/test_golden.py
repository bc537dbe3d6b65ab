"""Suite summaries pinned as literals: every check's ``trials`` JSON line at
two fixed configurations.

Trial i of a suite's operand k draws from the Philox key of numpy's
``SeedSequence(seed, spawn_key=(k,))`` at the counter offset i * ceil(L /
4), and the in-repo oracles address the trials the same way, so a drift
that moved both would pass every comparison between them.  These literals
would still fail.  The second configuration has a three-word suite seed
(2**64 + 5) and n = 3, where a PD, a sectorial and a sequence draw take 18,
21 and 6 uniforms, none a multiple of four: each trial after the first
starts at a nonzero counter offset, after its predecessor's partly used
Philox block.
"""

import pytest

from sectoria.cli import CHECKS, main

# (n, seed) -> check name -> stdout of
# ``sectoria trials NAME --n N --alpha 0.785 --trials 40 --seed SEED``.
GOLDEN = {
    (6, 0): {
        'det-superadditivity': (
            '{"name": "det-superadditivity", "trials": 40, "failures": 0, "min_slack": 0.9874198809984127, "median_slack": 0.9975471704279875, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'haynsworth': (
            '{"name": "haynsworth", "trials": 40, "failures": 0, "min_slack": 0.9480477567475494, "median_slack": 0.9851312002728346, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'hartfiel': (
            '{"name": "hartfiel", "trials": 40, "failures": 0, "min_slack": 0.8706689804199274, "median_slack": 0.9462810058999804, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'schur-pd': (
            '{"name": "schur-pd", "trials": 40, "failures": 0, "min_slack": 0.00022028582048825622, "median_slack": 0.008852386514560523, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'main1': (
            '{"name": "main1", "trials": 40, "failures": 0, "min_slack": 0.05057168456741358, "median_slack": 0.14107643256662317, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'main2': (
            '{"name": "main2", "trials": 40, "failures": 0, "min_slack": 0.999302916174656, "median_slack": 0.999778761739355, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'det-step': (
            '{"name": "det-step", "trials": 40, "failures": 0, "min_slack": 0.6200812110153018, "median_slack": 0.6492162131931932, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-4': (
            '{"name": "lemma-2-4", "trials": 40, "failures": 0, "min_slack": 1.1540263986450911e-07, "median_slack": 0.00014582145325963954, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-5': (
            '{"name": "lemma-2-5", "trials": 40, "failures": 0, "min_slack": 1.3477501438948904e-05, "median_slack": 0.0006200651116694197, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-6': (
            '{"name": "lemma-2-6", "trials": 40, "failures": 0, "min_slack": 0.4945526999764388, "median_slack": 0.7115876288941329, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'claim1': (
            '{"name": "claim1", "trials": 40, "failures": 0, "min_slack": 0.0005317957282270201, "median_slack": 0.020724380565721515, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'weak-log-major': (
            '{"name": "weak-log-major", "trials": 40, "failures": 0, "min_slack": 0.2069850364275417, "median_slack": 0.2899206001593955, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'schur-wrongsec': (
            '{"name": "schur-wrongsec", "trials": 40, "failures": 40, "min_slack": -0.48126338238685623, "median_slack": -0.12095156466110936, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'corollary-ad': (
            '{"name": "corollary-ad", "trials": 40, "failures": 0, "min_slack": 0.9961904236182105, "median_slack": 0.9976243016354117, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
        'claim2': (
            '{"name": "claim2", "trials": 40, "failures": 0, "min_slack": 0.6006743312122486, "median_slack": 0.999721111849848, "config": {"seed": 0, "n": 6, "alpha": 0.785, "partition": null}}'
        ),
    },
    (3, 18446744073709551621): {
        'det-superadditivity': (
            '{"name": "det-superadditivity", "trials": 40, "failures": 0, "min_slack": 0.7143810848705279, "median_slack": 0.9104078452874945, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'haynsworth': (
            '{"name": "haynsworth", "trials": 40, "failures": 0, "min_slack": 0.3080430246961483, "median_slack": 0.6937361748231308, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'hartfiel': (
            '{"name": "hartfiel", "trials": 40, "failures": 0, "min_slack": 0.15150816082270163, "median_slack": 0.6314745120126317, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'schur-pd': (
            '{"name": "schur-pd", "trials": 40, "failures": 0, "min_slack": -1.0686587758555568e-16, "median_slack": 0.0, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'main1': (
            '{"name": "main1", "trials": 40, "failures": 0, "min_slack": 0.034146539431891776, "median_slack": 0.14082039053351067, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'main2': (
            '{"name": "main2", "trials": 40, "failures": 0, "min_slack": 0.9101704285022222, "median_slack": 0.9613262850577367, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'det-step': (
            '{"name": "det-step", "trials": 40, "failures": 0, "min_slack": 0.6061143519858281, "median_slack": 0.6887521152480827, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-4': (
            '{"name": "lemma-2-4", "trials": 40, "failures": 0, "min_slack": 2.1079154899326458e-07, "median_slack": 0.0020455377839524473, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-5': (
            '{"name": "lemma-2-5", "trials": 40, "failures": 0, "min_slack": -4.020516428370273e-16, "median_slack": 3.2442996299582336e-19, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'lemma-2-6': (
            '{"name": "lemma-2-6", "trials": 40, "failures": 0, "min_slack": 0.08808544983035076, "median_slack": 0.380485756065875, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'claim1': (
            '{"name": "claim1", "trials": 40, "failures": 0, "min_slack": 0.0004295377461486988, "median_slack": 0.05411072819182694, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'weak-log-major': (
            '{"name": "weak-log-major", "trials": 40, "failures": 0, "min_slack": 0.06342340847196841, "median_slack": 0.25518176280396787, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'schur-wrongsec': (
            '{"name": "schur-wrongsec", "trials": 40, "failures": 40, "min_slack": -0.4843333736815755, "median_slack": -0.06026837161899498, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'corollary-ad': (
            '{"name": "corollary-ad", "trials": 40, "failures": 0, "min_slack": 0.8930511065494962, "median_slack": 0.921528346255119, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
        'claim2': (
            '{"name": "claim2", "trials": 40, "failures": 0, "min_slack": 1.706528844419205e-05, "median_slack": 0.4165806642869957, "config": {"seed": 18446744073709551621, "n": 3, "alpha": 0.785, "partition": null}}'
        ),
    },
}


@pytest.mark.parametrize("n, seed", list(GOLDEN))
@pytest.mark.parametrize("name", list(CHECKS))
def test_suite_summary_is_pinned(name, n, seed, capsys):
    argv = ["trials", name, "--n", str(n), "--alpha", "0.785", "--trials", "40", "--seed", str(seed)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN[n, seed][name] + "\n"
    assert captured.err == ""
