"""R-OCuLaR: the relative-preference variant of OCuLaR (Section V).

The paper derives that maximising the BPR-style relative-preference
likelihood under the OCuLaR generative model is equivalent to the plain
OCuLaR objective with each positive-example term weighted by

    ``w_u = |{i : r_ui = 0}| / |{i : r_ui = 1}|``

so users with a short purchase history have their few positives counted more
heavily.  The implementation therefore reuses the full OCuLaR machinery with
``user_weighting="relative"`` — the paper notes it "has exactly the same
complexity".
"""

from __future__ import annotations

from repro.core.ocular import OCuLaR
from repro.exceptions import ConfigurationError


class ROCuLaR(OCuLaR):
    """Relative OCuLaR: OCuLaR with per-user positive-example weights.

    Takes every :class:`~repro.core.ocular.OCuLaR` parameter, with the same
    meaning; ``user_weighting`` is fixed to ``"relative"`` (passing that
    value, as :meth:`get_params` reports it, is accepted).
    """

    def __init__(self, *args, user_weighting: str = "relative", **kwargs) -> None:
        if user_weighting != "relative":
            raise ConfigurationError(
                f"ROCuLaR's user_weighting is fixed to 'relative', got {user_weighting!r}"
            )
        super().__init__(*args, user_weighting=user_weighting, **kwargs)
