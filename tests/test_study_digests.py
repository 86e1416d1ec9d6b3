"""Every output file of a micro study, pinned by SHA-256.

The study runs ``analyze``, ``baseline --seeds 2``, ``train``, ``evaluate``
and ``predict`` through ``cli.main`` on the stand-in table, with all eleven
algorithms at a few trees or epochs each and two-point grids (a staged
xgb_style grid among them). ``STUDY_SHA256`` maps each file's path under
``--out`` to its digest; ``scripts/record_digests.py`` prints the set.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from heartstack.cli import main
from heartstack.pipeline import MODEL_FILE
from heartstack.synthetic import write_dataset_csv

FEW_EPOCHS = {"epochs": 10, "learning_rate": 0.5}
STUDY_CANDIDATES = [
    {"algorithm": "xgb_style", "hyperparameters": {"n_estimators": 10},
     "grid": {"n_estimators": [5, 10]}},
    {"algorithm": "extra_trees", "hyperparameters": {"n_estimators": 10},
     "grid": {"min_samples_split": [2, 8]}},
    {"algorithm": "random_forest", "hyperparameters": {"n_estimators": 10}},
    {"algorithm": "gbm", "hyperparameters": {"n_estimators": 10},
     "grid": {"learning_rate": [0.1, 0.3]}},
    {"algorithm": "cart", "grid": {"max_depth": [None, 4]}},
    {"algorithm": "mlp", "hyperparameters": {"hidden_units": 4, "epochs": 10}},
    {"algorithm": "adaboost", "hyperparameters": {"n_estimators": 10}},
    {"algorithm": "linear_svc", "hyperparameters": FEW_EPOCHS},
    {"algorithm": "sgd_logistic", "hyperparameters": FEW_EPOCHS,
     "grid": {"l2": [1e-4, 1e-2]}},
    {"algorithm": "knn", "grid": {"k": [5, 9]}},
    {"algorithm": "naive_bayes"},
]

STUDY_SHA256 = {
    "analysis/cleaning.json":
        "b0aba33354de23cd8a9f2bf9dee759b3230bce3cebf6c67d09245be7d21019a4",
    "analysis/correlation.json":
        "ec8225d4b2e184bde9f24ec58b116577dd872778480e79b628b3bf0fbd803822",
    "analysis/counts_chest_pain_type.csv":
        "92c858239bd4de323340db5d381acfab4f719dcc20cc32d1ddc352dc194a0bee",
    "analysis/counts_exercise_induced_angina.csv":
        "422863c83a1002b7f2c3bbeaad791976481a498c5561d6d87cd8bfa97b68392e",
    "analysis/counts_fasting_blood_sugar.csv":
        "ab5ccf59dfe35a3b85887d657786e6cfecdf979cabb9803eb044192b9a06608f",
    "analysis/counts_rest_ecg.csv":
        "73ca847b6c90ae7114a41c6c001f8d6babce2e2d71c9dd4be37f3d6d7c2e644c",
    "analysis/counts_sex.csv":
        "af181fd6dfb216b1cb869e9b2fed12e08f1ac6bfbf386f7336f84fc72eef8a6d",
    "analysis/counts_st_slope.csv":
        "d6e2483c16ebdbe5acaeda5917c40ff9c26bf7ac5cc7565e7c085a3a1effb627",
    "analysis/histogram_age.csv":
        "acbe49e7a1479302f3129579bf653378b68caab345185a3b8dd578534f694356",
    "analysis/histogram_cholesterol.csv":
        "8d2c69fa3fc4ee22d3a0e7efc42c12004cf463b12007ae380eb9f3aa536b5d88",
    "analysis/histogram_max_heart_rate_achieved.csv":
        "058692395f9098d93b2758a9d263bd0b362cfea56c588f30b3764fa12267822c",
    "analysis/histogram_resting_blood_pressure.csv":
        "93e227d70bad33bba53775d28ba0d3509a95e57de4ae5281f3dc0a368d97cf21",
    "analysis/histogram_st_depression.csv":
        "7c2d79bf6b078d4161f6890cb799133d572c128cc0b55beedd6ec1eada1677c5",
    "analysis/st_slope_by_age_decade.csv":
        "5e0cf2b9e94591d7ca71043fd6bb0117de60e9cc74222ca15484c780ad082585",
    "analysis/summary.json":
        "8488dd5e76c07194a361b9022c65831564412ca92984d2bbf3c666c7d2b3f082",
    "analysis/validation.json":
        "d9c9169ca72eae8a1ff8c8e975f8702897db62549e55de7a2a074d5c71cd39c5",
    "baseline/accuracy_comparison.csv":
        "e2516ee1bedc3d43a75b5300e4a709bef13a53f235438a28e5bc133bce10d370",
    "baseline/baseline_table.csv":
        "86035ead2bb41044e714ae52ed761187aacb987d228459a494fcf8dbc8ffabef",
    "baseline/grid_search_results.json":
        "082e4074db6333b2cff326462895c30c840e48aa6da8b894f8add4926e19172f",
    "baseline/seed_sweep.csv":
        "5073303277edf93e5b4a86a1d0b1518630b6c9e458ffae888c5a1d2f8d016b5e",
    "evaluation/literature_comparison.csv":
        "950815f22fd40e17458089af4811e39f99fc0e9d84a7002a50d61781d9e911bb",
    "evaluation/metrics_extra_trees.json":
        "c8a4fca39eb1b87ce5bd26f9c1ff89d428975737b18f45c6ded8c588b38685aa",
    "evaluation/metrics_knn.json":
        "fd92c93ef8eaf9aaa32a0c5ef7889cfc03484f00f212d2e7a449614b86812207",
    "evaluation/metrics_random_forest.json":
        "621665b69ea566c9c592843031dc3cc936c08b1b4876a26c9822b7d10e5e3e48",
    "evaluation/metrics_stacked.json":
        "756b20e52490e0b50eafc92d49d5025620ff43bd07fe4f6cac46a0ef4678bd35",
    "evaluation/metrics_table.csv":
        "6b83342b53025b88688ffe0d0646df1a1aee3240ab40af1a5b57f2f4b3c19b91",
    "evaluation/metrics_xgb_style.json":
        "bd6c384003ab51eb51d027243362c84db3346571eb60c03f0b6defa24ca219e3",
    "evaluation/pr_extra_trees.csv":
        "a8820925c2cff2455e942ba141f01613def81d98df97c1a966da007376a528e5",
    "evaluation/pr_knn.csv":
        "eae7553553e019d8d5f177d1538afc8ef5184ab28354431b2d0673e49ffa7f6d",
    "evaluation/pr_random_forest.csv":
        "ed6618215e0e22800c92044ae7b6b3f69c8ac110198823f0b68aa4b8df0cbd45",
    "evaluation/pr_stacked.csv":
        "1db3338cd572cca6626e62f82d0f470c8c6ec458b8844f1a95d12761ecbcc80b",
    "evaluation/pr_xgb_style.csv":
        "ce829f5aa775e391a407dc8f5ee812c8d4ba95e040b688d00fe0c4d94123508b",
    "evaluation/roc_extra_trees.csv":
        "d86b60b641b56350c433342117502b18d4d10bc2f2aa2d30ccd2a614d197d744",
    "evaluation/roc_knn.csv":
        "063bdd42e7cb6da33a5fb2602c78452c1113741bc052f9801ad749710b19dba8",
    "evaluation/roc_random_forest.csv":
        "2d28a3969288f2f2f68ac127f81f23930626c8b183a71475319495fe1a424947",
    "evaluation/roc_stacked.csv":
        "44c9fe3e8c14e16876b41e5e8150523de886625e44c9d7572df88b400b2c9a0f",
    "evaluation/roc_xgb_style.csv":
        "83c28147cf63ae16b3ee705d93d12a4baaf26ef16ab3462b54e0510fed40c1c2",
    "models/selection_report.json":
        "8c8bd8103e693e4e38b34e5ff9c7489bc27c5a921c09f5369acadef2fa83b973",
    "models/stacked.model":
        "6e53e98a84ce51c1206361ed552e4c2d8a22fa4d657897029c19f69acfbe03cf",
    "predictions.csv":
        "bada398f010b3b45d80e4d111a64c956f316ecf4012453e3b6c01be41796edb9",
}


def study_digests(root: Path) -> dict[str, str]:
    """Run the micro study under ``root`` and hash every file it writes
    under its output directory, keyed by relative path."""
    data, config, out = root / "heart.csv", root / "config.json", root / "out"
    write_dataset_csv(data)
    config.write_text(json.dumps({
        "dataset": str(data), "out_dir": str(out), "seed": 11, "folds": 3,
        "candidates": STUDY_CANDIDATES,
        "stacking": {"top_n": 4, "oof_folds": 3, "meta_hyperparameters": FEW_EPOCHS},
    }))
    given = ["--config", str(config)]
    for argv in (["analyze", *given], ["baseline", "--seeds", "2", *given], ["train", *given],
                 ["evaluate", *given],
                 ["predict", "--model", str(out / "models" / MODEL_FILE),
                  "--input", str(data), "--out", str(out)]):
        assert main(argv) == 0, argv
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_study_outputs_are_pinned(tmp_path):
    assert study_digests(tmp_path) == STUDY_SHA256
