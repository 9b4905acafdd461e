"""Ground graph machinery: models, close(M, G), unfounded sets, bottom ties."""

from repro.ground.explain import Explanation, explain, format_explanation
from repro.ground.model import FALSE, TRUE, UNDEF, Interpretation
from repro.ground.state import BottomComponent, GroundGraphState

__all__ = [
    "FALSE",
    "TRUE",
    "UNDEF",
    "BottomComponent",
    "Explanation",
    "GroundGraphState",
    "Interpretation",
    "explain",
    "format_explanation",
]
