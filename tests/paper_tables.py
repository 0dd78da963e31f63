"""The paper's tables of the product identities (Lemma 2.1) and of the 7th-
and 9th-order corollaries, transcribed: the oracle for the lists that
`identities` derives.

Term lists follow closed_forms: (coefficient, factor orders), with the tags
"bt" (Btilde_t) and "mt" (the time derivative of the partial mass).

The 7th-order table is the corrected reading, -2 B_xx B_4x and 21 B_x^4;
LEMMA21_7TH_PRINTED is the reading as printed, -2 B_xx^2 B_4x and 7 B_x^4,
which no breather satisfies.  At order 9 the paper leaves the last term as
the integral F9 = int_{-inf}^x -2 f9(B) B_x; LEMMA21_9TH is the rest.
"""

LEMMA21_5TH = (
    (1.0, (2, 2)),
    (-2.0, (0, "bt")),
    (2.0, ("mt",)),
    (-2.0, (0, 0, 0, 0, 0, 0)),
    (-2.0, (1, 3)),
    (-10.0, (0, 0, 1, 1)),
)

LEMMA21_7TH = (
    (1.0, (3, 3)),
    (2.0, (0, "bt")),
    (-2.0, ("mt",)),
    (5.0, (0,) * 8),
    (2.0, (1, 5)),
    (-2.0, (2, 4)),
    (28.0, (0, 0, 1, 3)),
    (-14.0, (0, 0, 2, 2)),
    (56.0, (0, 1, 1, 2)),
    (21.0, (1, 1, 1, 1)),
    (70.0, (0, 0, 0, 0, 1, 1)),
)

LEMMA21_7TH_PRINTED = tuple(
    {(2, 4): (-2.0, (2, 2, 4)), (1, 1, 1, 1): (7.0, (1, 1, 1, 1))}.get(o, (c, o))
    for c, o in LEMMA21_7TH)

LEMMA21_9TH = (
    (1.0, (4, 4)),
    (-2.0, (0, "bt")),
    (2.0, ("mt",)),
    (-2.0, (1, 7)),
    (2.0, (2, 6)),
    (-2.0, (3, 5)),
)


def corollary7(alpha: float, beta: float):
    a2, b2 = alpha**2, beta**2
    return (
        (1.0, ("bt",)),
        (-2.0 * (b2 - a2) * (a2 + b2) ** 2, (0,)),
        (4.0 * (a2**2 - 6.0 * a2 * b2 + b2**2), (0, 0, 0)),
        (4.0 * (b2 - a2), (0,) * 5),
        (-4.0, (0,) * 7),
        (3.0 * a2**2 - 10.0 * a2 * b2 + 3.0 * b2**2, (2,)),
        (4.0 * (b2 - a2), (0, 1, 1)),
        (-20.0, (0, 0, 0, 1, 1)),
        (2.0, (0, 2, 2)),
        (-4.0, (0, 1, 3)),
    )


def corollary9(alpha: float, beta: float):
    a2, b2 = alpha**2, beta**2
    a0 = -((a2 + b2) ** 2) * (3.0 * a2**2 - 10.0 * a2 * b2 + 3.0 * b2**2)
    a1 = -4.0 * (a2 - b2) * (a2**2 - 14.0 * a2 * b2 + b2**2)
    a2c = -2.0 * (a2**2 + 18.0 * a2 * b2 + b2**2)
    a3 = 2.0 * (5.0 * a2**2 - 6.0 * a2 * b2 + 5.0 * b2**2)
    a4 = -4.0 * (a2 - b2) * (a2**2 - 6.0 * a2 * b2 + b2**2)
    return (
        (1.0, ("bt",)),
        (a0, (0,)),
        (a1, (0, 0, 0)),
        (a2c, (0,) * 5),
        (16.0 * (b2 - a2), (0,) * 7),
        (-26.0, (0,) * 9),
        (a3, (1, 1, 0)),
        (32.0 * (a2 - b2), (1, 1, 0, 0, 0)),
        (-100.0, (1, 1, 0, 0, 0, 0, 0)),
        (-2.0, (1, 1, 1, 1, 0)),
        (a4, (2,)),
        (-6.0 * (a2 + b2) ** 2, (2, 0, 0)),
        (20.0 * (b2 - a2), (2, 0, 0, 0, 0)),
        (-28.0, (2, 0, 0, 0, 0, 0, 0)),
        (4.0 * (b2 - a2), (1, 1, 2)),
        (-12.0, (1, 1, 2, 0, 0)),
        (8.0 * (b2 - a2), (2, 2, 0)),
        (-4.0, (2, 2, 0, 0, 0)),
        (2.0, (2, 2, 2)),
        (8.0 * (a2 - b2), (1, 3, 0)),
        (-32.0, (1, 3, 0, 0, 0)),
        (-4.0, (1, 2, 3)),
        (-2.0, (3, 3, 0)),
    )
