"""The paper's tables of the product identities (Lemma 2.1) and of the 7th-
and 9th-order corollaries, transcribed: the oracle for the lists that
`identities` derives.  DENSITIES and FLUX_11 are the hierarchy's
transcribed tables, the oracle for what `closed_forms` derives from u: the
conserved densities M, E, E5, E7, E9, and the 28-term order-11 flux.
`quadratic_form` is the second variation of H = E5 + 2(beta^2 - alpha^2) E
+ (alpha^2 + beta^2)^2 M at u as printed, in the integrated-by-parts
layout: the oracle for the Q[z] = <z, L z> that closed_forms'
linearization L gives.

Term lists follow closed_forms: (coefficient, factor orders), with the tags
"bt" (Btilde_t) and "mt" (the time derivative of the partial mass).

The 7th-order table is the corrected reading, -2 B_xx B_4x and 21 B_x^4;
LEMMA21_7TH_PRINTED is the reading as printed, -2 B_xx^2 B_4x and 7 B_x^4,
which no breather satisfies.  At order 9 the paper leaves the last term as
the integral F9 = int_{-inf}^x -2 f9(B) B_x; LEMMA21_9TH is the rest.
"""

DENSITIES = {
    "M": ((0.5, (0, 0)),),
    "E": ((0.5, (1, 1)), (-0.5, (0, 0, 0, 0))),
    "E5": ((0.5, (2, 2)), (-5.0, (0, 0, 1, 1)), (1.0, (0,) * 6)),
    "E7": ((0.5, (3, 3)), (3.5, (1, 1, 1, 1)), (-7.0, (0, 0, 2, 2)),
           (35.0, (0, 0, 0, 0, 1, 1)), (-2.5, (0,) * 8)),
    "E9": ((0.5, (4, 4)), (-9.0, (0, 0, 3, 3)), (20.0, (0, 2, 2, 2)),
           (51.0, (1, 1, 2, 2)), (63.0, (0, 0, 0, 0, 2, 2)),
           (-133.0, (0, 0, 1, 1, 1, 1)), (-210.0, (0,) * 6 + (1, 1)),
           (7.0, (0,) * 10)),
}

FLUX_11 = (
    (22.0, (0, 0, 8)), (198.0, (0, 0, 0, 0, 6)), (924.0, (0,) * 6 + (4,)),
    (506.0, (0, 4, 4)), (3036.0, (0, 0, 0, 3, 3)), (2310.0, (0,) * 8 + (2,)),
    (8316.0, (0,) * 5 + (2, 2)), (9372.0, (0, 0, 2, 2, 2)),
    (9240.0, (0,) * 7 + (1, 1)), (26796.0, (0, 0, 0, 1, 1, 1, 1)),
    (176.0, (0, 1, 7)), (484.0, (0, 2, 6)), (462.0, (1, 1, 6)),
    (836.0, (0, 3, 5)), (2376.0, (0, 0, 0, 1, 5)), (5016.0, (0, 0, 0, 2, 4)),
    (2706.0, (2, 2, 4)), (11220.0, (0, 0, 1, 1, 4)), (3498.0, (2, 3, 3)),
    (11088.0, (0,) * 5 + (1, 3)), (21120.0, (0, 1, 1, 1, 3)),
    (54516.0, (0, 0, 0, 0, 1, 1, 2)), (44748.0, (0, 1, 1, 2, 2)),
    (13398.0, (1, 1, 1, 1, 2)), (2376.0, (1, 2, 5)), (3696.0, (1, 3, 4)),
    (39336.0, (0, 0, 1, 2, 3)), (252.0, (0,) * 11),
)

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


def quadratic_form(alpha: float, beta: float):
    """{(j, k): coefficient of z_{jx} z_{kx}}, j <= k, of the density whose
    integral is Q[z]: d^2/ds^2 of H's density at u + s z."""
    mu, c = 2.0 * (beta**2 - alpha**2), (alpha**2 + beta**2) ** 2
    return {(2, 2): ((1.0, ()),),
            (1, 1): ((mu, ()), (-10.0, (0, 0))),
            (0, 1): ((-40.0, (0, 1)),),
            (0, 0): ((c, ()), (-10.0, (1, 1)), (30.0, (0, 0, 0, 0)),
                     (-6.0 * mu, (0, 0)))}
