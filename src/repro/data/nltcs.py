"""The NLTCS disability survey: schema, synthetic stand-in and CSV loader.

The National Long-Term Care Survey extract used by the paper (via StatLib)
has 21 576 individuals and 16 binary functional-disability indicators: six
activities of daily living (ADLs) and ten instrumental activities of daily
living (IADLs).  The domain is exactly ``2**16`` cells, which is what makes
NLTCS the standard benchmark for contingency-table release.

:func:`synthetic_nltcs` generates a seeded stand-in from a latent-class model
with monotone item probabilities — the model family routinely fitted to the
real NLTCS in the statistics literature (classes range from "healthy", where
every disability is rare, to "severely disabled", where most are common).
This yields the same qualitative structure the algorithms are sensitive to: a
very popular all-zero cell, strong positive correlations between items, and
rapidly thinning high-order cells.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.domain.attribute import Attribute
from repro.domain.dataset import Dataset
from repro.domain.schema import Schema
from repro.exceptions import DataError
from repro.utils.rng import RngLike, ensure_rng

#: Number of individuals in the original extract.
NLTCS_N_RECORDS = 21_576

#: The sixteen binary disability indicators (6 ADLs followed by 10 IADLs).
NLTCS_ATTRIBUTE_NAMES = (
    "adl_eating",
    "adl_getting_in_out_bed",
    "adl_getting_around_inside",
    "adl_dressing",
    "adl_bathing",
    "adl_toileting",
    "iadl_heavy_housework",
    "iadl_light_housework",
    "iadl_laundry",
    "iadl_cooking",
    "iadl_grocery_shopping",
    "iadl_getting_around_outside",
    "iadl_travelling",
    "iadl_managing_money",
    "iadl_taking_medicine",
    "iadl_telephoning",
)

#: The NLTCS schema: 16 binary attributes, domain size 2**16.
NLTCS_SCHEMA = Schema([Attribute(name, 2) for name in NLTCS_ATTRIBUTE_NAMES])

#: Baseline probability that each item is reported as a disability, ordered as
#: above.  ADLs are rarer than IADLs; heavy housework is the most common item.
_BASE_ITEM_PROBABILITIES = np.array(
    [
        0.07, 0.14, 0.22, 0.12, 0.20, 0.12,          # ADLs
        0.42, 0.18, 0.22, 0.20, 0.28, 0.34, 0.26, 0.16, 0.14, 0.10,  # IADLs
    ]
)

#: Latent-class severities and weights: most respondents are healthy, a small
#: group is severely disabled.  Item probability in a class is the baseline
#: raised towards 1 according to the severity.
_CLASS_SEVERITIES = np.array([0.02, 0.25, 0.55, 0.85])
_CLASS_WEIGHTS = np.array([0.58, 0.22, 0.13, 0.07])


def synthetic_nltcs(
    n_records: int = NLTCS_N_RECORDS,
    *,
    rng: RngLike = 1982,
    class_severities: Sequence[float] = tuple(_CLASS_SEVERITIES),
    class_weights: Sequence[float] = tuple(_CLASS_WEIGHTS),
) -> Dataset:
    """Seeded synthetic stand-in for the NLTCS extract.

    Parameters
    ----------
    n_records:
        Number of individuals to generate (defaults to the original 21 576).
    rng:
        Seed or generator (defaults to a fixed seed for reproducibility).
    class_severities / class_weights:
        The latent-class model: each class has a severity in ``[0, 1]`` and a
        population share; item ``i`` in class ``c`` is reported with
        probability ``base_i + severity_c * (1 - base_i)``.
    """
    if n_records <= 0:
        raise DataError(f"n_records must be positive, got {n_records}")
    severities = np.asarray(class_severities, dtype=np.float64)
    weights = np.asarray(class_weights, dtype=np.float64)
    if severities.ndim != 1 or weights.shape != severities.shape:
        raise DataError("class_severities and class_weights must have the same length")
    if np.any((severities < 0) | (severities > 1)):
        raise DataError("class severities must lie in [0, 1]")
    if not np.isclose(weights.sum(), 1.0) or np.any(weights < 0):
        raise DataError("class weights must form a probability distribution")

    generator = ensure_rng(rng)
    class_of_record = generator.choice(severities.shape[0], size=n_records, p=weights)
    # Item probability per class: interpolate the baseline towards certainty.
    item_probabilities = (
        _BASE_ITEM_PROBABILITIES[None, :]
        + severities[:, None] * (1.0 - _BASE_ITEM_PROBABILITIES[None, :])
    ) * np.where(severities[:, None] < 0.05, 0.35, 1.0)
    item_probabilities = np.clip(item_probabilities, 0.0, 1.0)

    uniforms = generator.random((n_records, len(NLTCS_ATTRIBUTE_NAMES)))
    records = (uniforms < item_probabilities[class_of_record]).astype(np.int64)
    return Dataset(NLTCS_SCHEMA, records, name="nltcs-synthetic")


def load_nltcs_csv(path: Union[str, Path]) -> Dataset:
    """Load a real NLTCS file (one row per respondent, 16 binary columns).

    Accepts either 16 separate 0/1 columns or a single column holding the
    16-character binary pattern per respondent (both encodings circulate).
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"NLTCS file not found at {file_path}")
    records = []
    with file_path.open(newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            cells = [cell.strip() for cell in row if cell.strip() != ""]
            if not cells:
                continue
            if len(cells) == 1 and len(cells[0]) == len(NLTCS_ATTRIBUTE_NAMES):
                bits = [int(ch) for ch in cells[0]]
            elif len(cells) >= len(NLTCS_ATTRIBUTE_NAMES):
                bits = [int(float(cell)) for cell in cells[: len(NLTCS_ATTRIBUTE_NAMES)]]
            else:
                continue
            if any(bit not in (0, 1) for bit in bits):
                continue
            records.append(bits)
    if not records:
        raise DataError(f"no usable records found in {file_path}")
    return Dataset(NLTCS_SCHEMA, np.asarray(records, dtype=np.int64), name="nltcs")
