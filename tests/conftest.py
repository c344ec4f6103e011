"""Suite-wide pytest options.

``--repro-full`` runs ``TestPaperShapes`` in
``tests/experiments/test_runners.py`` at the ``ExperimentSettings()``
defaults instead of quick scale.  It lives in the root test conftest
because pytest reads ``pytest_addoption`` only from the conftests it
loads at startup.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--repro-full",
        action="store_true",
        default=False,
        help="check the paper shapes at the ExperimentSettings() defaults "
             "(slow) instead of quick scale",
    )
