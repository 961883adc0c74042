import pytest

from gammanoise.grid import Grid, spectral_band, upsampled_values
from gammanoise.rng import stream


@pytest.fixture
def grid1d():
    return Grid(1, 256)


@pytest.fixture
def rng():
    return stream(20250809, 0)


def random_real_field(grid, gen):
    from gammanoise.grid import forward_transform
    return forward_transform(grid, gen.standard_normal(grid.shape))


def random_complex_field(grid, gen):
    from gammanoise.grid import forward_transform
    vals = gen.standard_normal(grid.shape) + 1j * gen.standard_normal(grid.shape)
    return forward_transform(grid, vals)


def field_values(f, m, band=None):
    """Values of the field ``f`` on ``m`` points per axis, through a stack of one.

    ``band`` defaults to the field's own; the values are real when ``f`` is
    flagged real.
    """
    band = spectral_band(f.grid, f.coeffs) if band is None else band
    v = upsampled_values(f.coeffs[None], m, band)[0]
    return v.real if f.real else v


def read_csv(path) -> list:
    """Rows of a CSV written by ``output.write_csv``, numeric and boolean cells parsed."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().strip("\n").split("\n")
    return [dict(zip(header.split(","), map(_parse_cell, line.split(",")))) for line in lines]


def _parse_cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell
