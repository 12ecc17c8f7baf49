"""The kernel-mode vocabulary shared by every consumer."""

import pytest

from repro.kernels import KERNEL_MODES, resolve_kernel


class TestResolveKernel:
    def test_modes(self):
        assert KERNEL_MODES == ("auto", "reference")

    def test_auto_prefers_packed(self):
        assert resolve_kernel("auto") == "packed"

    def test_reference(self):
        assert resolve_kernel("reference") == "reference"

    @pytest.mark.parametrize(
        "bad",
        ["", "fast", "numpy", "AUTO", None, "packed", "four-russians", "sparse"],
    )
    def test_unknown_raises(self, bad):
        with pytest.raises(ValueError):
            resolve_kernel(bad)
