"""The decimal elementary functions against mpmath, an independent
reference evaluated at twice the digits."""

from decimal import Decimal, localcontext

import mpmath as mp
import pytest

from geocatch import hpmath


def decimal_arg(a: str, digits: int) -> Decimal:
    """a as a Decimal; "pi" and "-pi" are pi rounded to `digits` digits."""
    if a.endswith("pi"):
        with mp.workdps(2 * digits):
            a = a[:-2] + mp.nstr(mp.pi, digits)
    return Decimal(a)


@pytest.mark.parametrize("bits", [53, 104, 336, 1000])
@pytest.mark.parametrize("name, args, relative", [
    ("pi", (), False),
    ("atan2", ("0", "1"), False),
    ("atan2", ("0", "-1"), False),      # on the branch cut: +pi
    ("atan2", ("-0", "-1"), False),     # a negative zero too, as in mpmath
    ("atan2", ("1e-30", "-1"), False),  # just above the cut
    ("atan2", ("-1e-30", "-1"), False),  # just below it
    ("atan2", ("1", "0"), False),
    ("atan2", ("-1", "0"), False),
    ("atan2", ("0", "0"), False),
    ("atan2", ("3", "-4"), False),
    ("atan2", ("-3", "-4"), False),
    ("atan2", ("-3", "4"), False),
    ("atan2", ("1e20", "1e-20"), False),
    ("atan2", ("1e-30", "1"), True),
    ("atan2", ("-0.6350852961085884", "-0.0012"), False),
    ("asin", ("0",), False),
    ("asin", ("1e-30",), True),
    ("asin", ("0.02625",), True),
    ("asin", ("-0.5",), False),
    ("asin", ("0.99999999999999999999",), False),
    ("asin", ("1",), False),
    ("asin", ("-1",), False),
    ("sin", ("0",), False),
    ("sin", ("1e-30",), True),
    ("sin", ("0.5",), False),
    ("sin", ("-2",), False),
    ("sin", ("pi",), False),
    ("sin", ("-pi",), False),
    ("sin", ("-3.14159",), False),
    ("sin", ("7",), False),
    ("sin", ("100",), False),
    ("cos", ("0",), False),
    ("cos", ("1e-30",), False),
    ("cos", ("1.5707963267948966",), False),
    ("cos", ("pi",), False),
    ("cos", ("-pi",), False),
    ("cos", ("3.14159",), False),
    ("cos", ("-7",), False),
    ("cos", ("100",), False),
])
def test_against_mpmath(bits, name, args, relative):
    # mpmath, at twice the digits, is the reference: within 2**-bits of the
    # value, or of its size for tiny arguments
    ours = {"pi": hpmath.pi, "atan2": hpmath.atan2, "asin": hpmath.asin,
            "sin": lambda x: hpmath.sin_cos(x)[0],
            "cos": lambda x: hpmath.sin_cos(x)[1]}
    ref = {"pi": lambda: +mp.pi, "atan2": mp.atan2, "asin": mp.asin,
           "sin": mp.sin, "cos": mp.cos}
    digits = hpmath.digits(bits)
    xs = [decimal_arg(a, digits) for a in args]
    with localcontext() as c:
        c.prec = digits
        got = ours[name](*xs)
    with mp.workdps(2 * digits):
        want = ref[name](*(mp.mpf(str(x)) for x in xs))
        err = abs(mp.mpf(str(got)) - want)
        scale = abs(want) if relative else max(1, abs(want))
        assert err <= scale * mp.mpf(2) ** -bits, (got, want)
