"""Golden digests: the refactor gate for the pipeline's output bytes.

Each case runs ``run_pipeline`` on the 120-zone synthetic region and
hashes the sorted file names with each file's sha256. A change that
moves an output byte on purpose re-records these digests together with
``perfbench/reference.json``; any other change must leave them alone.
"""

import hashlib

import pytest

from geoaccess import RunConfig, generate_synthetic_region, run_pipeline
from test_pipeline import with_squares

GOLDEN = {
    ("fixed_band", 1, None): "64c6bd56827ee29767e5652e67cb13816b4bc63cfdbef2cef556d9e6ce1157af",
    ("fixed_band", 2, None): "834934eec7f234769ac5e33c1d558813bec6fe26290097a711b76db82e712136",
    ("fixed_band", 3, None): "66d9459a03ec2d73e24614ff49ed928e2b48b4b244cbd3ceee5c07532f1ad350",
    ("knn", 1, None): "8f4ad42ba0276ab9f99acfe9faa066fa0a920842329cf706ceae3853ccd72149",
    ("knn", 2, None): "4b92fa75385927e4b5078d2ecbf23cac43f49d1544c9442b8cbe1a711a371591",
    ("knn", 3, None): "f7ad06f1a294999d38136ebfc19eea2ce5f77db89c6931e68f30e8b5a50f4e42",
    ("fixed_band", 2, 0.01): "cb720c04aa0b071772991a583e0ba1dfc6430e01bcd63ee45c65d5ec654d2024",
}


def file_digests(out_dir) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def run_digest(digests: dict) -> str:
    text = "".join(f"{name}\n{digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scheme, seed, half", sorted(GOLDEN, key=str))
def test_pipeline_bytes_match_the_recorded_digest(tmp_path, scheme, seed, half):
    zones, facilities, counties = generate_synthetic_region(seed)
    if half is not None:
        zones = with_squares(zones, half)
    run_pipeline(zones, facilities, counties, tmp_path / "out", RunConfig(weights_scheme=scheme))
    digests = file_digests(tmp_path / "out")
    listing = "\n".join(f"  {name} {digest}" for name, digest in digests.items())
    assert run_digest(digests) == GOLDEN[scheme, seed, half], f"file digests:\n{listing}"
