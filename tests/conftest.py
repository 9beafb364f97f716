import sys
from fractions import Fraction

import pytest

from qcharlier import QContext


@pytest.fixture(scope="session")
def ctx1():
    return QContext.from_t("9/10", ["1/2"])


@pytest.fixture(scope="session")
def ctx2():
    return QContext.from_t("9/10", ["1/2", "3/5"])


@pytest.fixture(scope="session")
def ctx3():
    return QContext.from_t("9/10", ["1/2", "3/5", "7/10"])


@pytest.fixture(scope="session")
def q2():
    return Fraction(81, 100)


@pytest.fixture
def clear_caches():
    """Clears every memo of the package: calls `cache_clear` on each
    module-level callable of qcharlier.* that has one."""

    def clear():
        for name, module in list(sys.modules.items()):
            if name == "qcharlier" or name.startswith("qcharlier."):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()

    return clear
