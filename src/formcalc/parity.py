"""Orientation flavor (straight vs twisted) shared by forms and cochains."""

from __future__ import annotations

import enum


class Parity(enum.Enum):
    """Two-element orientation-flavor algebra.

    Straight * Straight = Straight, Twisted * Twisted = Straight,
    mixed products are Twisted.
    """

    STRAIGHT = "straight"
    TWISTED = "twisted"

    def __mul__(self, other: "Parity") -> "Parity":
        if not isinstance(other, Parity):
            return NotImplemented
        if self is other:
            return Parity.STRAIGHT
        return Parity.TWISTED

    def flip(self) -> "Parity":
        return Parity.TWISTED if self is Parity.STRAIGHT else Parity.STRAIGHT

    def __str__(self) -> str:
        return self.value
