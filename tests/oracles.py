"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas, separate
from the package code paths it checks. Values frozen into tests were
produced by these same routines (or scipy) before the build.
"""

import csv
import io
import json
import math
import re

import numpy as np

from geoaccess import CountyOutcome, DemandZone, Facility, GeoPoint
from geoaccess.errors import ValidationError
from geoaccess.ingest import COUNTY_COLUMNS, FACILITY_COLUMNS, ZONE_COLUMNS

R_MILES = 3958.7613


def ref_haversine(lat1, lon1, lat2, lon2):
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    s = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return 2 * R_MILES * math.asin(min(1.0, math.sqrt(s)))


def ref_haversine_libm(a, b):
    """Great-circle miles between GeoPoints ``a`` and ``b``, one libm call at a time.

    The package's scalar formula as it stood before distances moved to
    pair arrays; :meth:`SpatialIndex.pairs_within` must match it bit for bit.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * R_MILES * math.asin(min(1.0, math.sqrt(s)))


def ref_decay(d, d0):
    """Truncated Gaussian decay weight of one distance by the scalar libm formula.

    The package's scalar formula as it stood before weights moved to
    arrays; ``decay_weight`` must match it bit for bit.
    """
    if d > d0:
        return 0.0
    return math.exp(-0.5 * (d / d0) ** 2) - math.exp(-0.5)


def ref_direct_accessibility(zones, facilities, d0):
    """Single-pass evaluation of the combined accessibility formula.

    zones: list of (zone_id, lat, lon, patients); facilities: list of
    (facility_id, lat, lon, beds). No intermediate ratio table.
    """
    denominators = {}
    for fid, flat, flon, _ in facilities:
        total = 0.0
        for _, zlat, zlon, patients in zones:
            d = ref_haversine(flat, flon, zlat, zlon)
            if d <= d0:
                total += patients * ref_decay(d, d0)
        denominators[fid] = total
    scores = {}
    for zid, zlat, zlon, _ in zones:
        acc = 0.0
        for fid, flat, flon, beds in facilities:
            if denominators[fid] == 0.0:
                continue
            d = ref_haversine(flat, flon, zlat, zlon)
            if d <= d0:
                acc += beds * ref_decay(d, d0) / denominators[fid]
        scores[zid] = acc
    return scores


def ref_gini_pairwise(values):
    x = np.asarray(values, dtype=float)
    n = x.size
    if x.sum() == 0:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def ref_gi_star(values, neighbor_lists):
    """Direct evaluation of the hot-spot z formula with binary weights,
    one neighbourhood gather and sum per feature.

    S and the numerator S1 - mean * W both come from the deviations
    x - mean: the numerator is the neighbourhood sum of the deviations,
    and S their root mean square (zero for a constant field).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    d = x - x.mean()
    s = 0.0 if x.min() == x.max() else math.sqrt(float((d * d).mean()))
    zs = []
    for nbrs in neighbor_lists:
        w = float(len(nbrs))
        bracket = (n * w - w * w) / (n - 1.0)
        if s == 0.0 or bracket <= 0.0:
            zs.append(0.0)
            continue
        zs.append(float(d[list(nbrs)].sum()) / (s * math.sqrt(bracket)))
    return np.array(zs)


def ref_bh_reject(pvals, alpha):
    p = np.asarray(pvals, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    ok = p[order] <= alpha * np.arange(1, m + 1) / m
    out = np.zeros(m, dtype=bool)
    if ok.any():
        out[order[: int(np.max(np.nonzero(ok)[0])) + 1]] = True
    return out


def ref_pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return None
    return float(xc @ yc) / denom


def ref_local_bivariate(x, y, neighbor_lists, permutations, seed, min_neighbors, alpha=0.05):
    """Local bivariate association by a gather per zone and a loop per permutation.

    neighbor_lists: per zone its neighbour indices; the zone itself is
    added when absent. r is the centred Pearson correlation over the
    neighbourhood, clipped to [-1, 1]. Permutation m reorders y by
    ``default_rng([seed, m]).permutation(n)``, and a replicate whose y is
    constant over the neighbourhood counts as r = 0. Returns (local_r,
    pseudo_p, category); an Undefined zone has r NaN and p 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    hoods = [np.array(sorted(set(map(int, nbrs)) | {i})) for i, nbrs in enumerate(neighbor_lists)]

    def r_at(yv, hood):
        r = ref_pearson(x[hood], yv[hood])
        return None if r is None else min(1.0, max(-1.0, r))

    observed = [r_at(y, hood) for hood in hoods]
    exceed = [0] * n
    for m in range(permutations):
        permuted = y[np.random.default_rng([seed, m]).permutation(n)]
        for i, hood in enumerate(hoods):
            if observed[i] is not None:
                r = r_at(permuted, hood)
                exceed[i] += abs(0.0 if r is None else r) >= abs(observed[i])
    local_r, pseudo_p, category = [], [], []
    for i, hood in enumerate(hoods):
        r = observed[i]
        if hood.size < min_neighbors or r is None:
            local_r.append(math.nan)
            pseudo_p.append(1.0)
            category.append("Undefined")
            continue
        p = (exceed[i] + 1.0) / (permutations + 1.0)
        local_r.append(r)
        pseudo_p.append(p)
        if p <= alpha and r > 0:
            category.append("PositiveSignificant")
        elif p <= alpha and r < 0:
            category.append("NegativeSignificant")
        else:
            category.append("NotSignificant")
    return np.array(local_r), np.array(pseudo_p), category


def ref_pairwise_miles(lats, lons):
    """Full n x n haversine matrix in miles, one numpy expression."""
    phi = np.radians(np.asarray(lats, dtype=float))
    lam = np.radians(np.asarray(lons, dtype=float))
    dphi = 0.5 * (phi[:, None] - phi[None, :])
    dlam = 0.5 * (lam[:, None] - lam[None, :])
    s = np.sin(dphi) ** 2 + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlam) ** 2
    return 2.0 * R_MILES * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def ref_weights(points, scheme, k=None, band=None):
    """Brute-force neighbour lists over the full distance matrix.

    points: list of (id, GeoPoint). Returns (neighbors, isolated): per
    feature the ascending neighbour indices, the feature's own among them,
    and for "fixed_band" whether the feature has no neighbour besides
    itself. "knn" ranks the other features by (distance, id).
    """
    ids = [pid for pid, _ in points]
    dist = ref_pairwise_miles([p.lat for _, p in points], [p.lon for _, p in points])
    n = len(ids)
    neighbors, isolated = [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if scheme == "knn":
            chosen = sorted(others, key=lambda j: (dist[i, j], ids[j]))[:k]
        else:
            chosen = [j for j in others if dist[i, j] <= band]
        isolated.append(not chosen)
        neighbors.append(sorted(chosen + [i]))
    return neighbors, isolated


def ref_2sfca(zones, facilities, d0, demand="patients"):
    """Two-step floating catchment by a sequential scan over every pair.

    zones: DemandZone list; facilities: Facility list. Distances and
    weights come one pair at a time from ref_haversine_libm and
    ref_decay, so this pins the libm results, the pairing and the
    summation order (each sum runs in ascending id order from 0.0) bit
    for bit. Returns (facility_ratios, zone_scores, skipped_facilities)
    as the package reports them.
    """
    zones = sorted(zones, key=lambda z: z.zone_id)
    facilities = sorted(facilities, key=lambda f: f.facility_id)

    def need(z):
        return z.adrd_patients if demand == "patients" else z.population

    ratios, skipped = {}, []
    for f in facilities:
        in_range = [(z, ref_haversine_libm(f.location, z.centroid)) for z in zones]
        in_range = [(z, d) for z, d in in_range if d <= d0]
        if not in_range:
            skipped.append((f.facility_id, "no demand zone within catchment"))
            continue
        denom = 0.0
        for z, d in in_range:
            denom += need(z) * ref_decay(d, d0)
        if denom == 0.0:
            skipped.append((f.facility_id, "zero weighted demand within catchment"))
            continue
        ratios[f.facility_id] = f.beds / denom
    scores = {}
    for z in zones:
        total = 0.0
        for f in facilities:
            if f.facility_id in ratios:
                d = ref_haversine_libm(z.centroid, f.location)
                if d <= d0:
                    total += ratios[f.facility_id] * ref_decay(d, d0)
        scores[z.zone_id] = total
    return ratios, scores, skipped


def _ref_format(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def ref_write_csv(path, header, rows):
    """CSV with every cell formatted on its own, one writerow per row. Each
    row is spelled with "\r\n" line ends, with which the csv module quotes a
    field holding a lone CR on every CPython, and written ending in "\n"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in [header, *([_ref_format(v) for v in row] for row in rows)]:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")


def ref_write_geojson(path, zones, attributes_by_zone):
    """The whole FeatureCollection built as one document and dumped once;
    a geometry given as JSON text is decoded first."""
    features = []
    for zone in sorted(zones, key=lambda z: z.zone_id):
        if zone.geometry is None:
            continue
        properties = {"zone_id": zone.zone_id}
        for name, value in attributes_by_zone.get(zone.zone_id, {}).items():
            properties[name] = float(f"{float(value):.9g}") if isinstance(value, float) else value
        geometry = json.loads(zone.geometry) if isinstance(zone.geometry, str) else zone.geometry
        features.append({"type": "Feature", "geometry": geometry, "properties": properties})
    doc = {"type": "FeatureCollection", "features": features}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _ref_read_rows(path, required, extras_allowed):
    """Header checks, then (extra column names, [(line number, row dict)],
    the error of a row with a wrong field count or None). Reading stops at
    that row, so the loaders report a fault on an earlier row first."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected header {','.join(required)}")
        if header[: len(required)] != required:
            raise ValidationError(
                f"{path}: header must start with {','.join(required)}, got {','.join(header)}"
            )
        extra = header[len(required):]
        if extra and not extras_allowed:
            raise ValidationError(f"{path}: unexpected extra columns {extra}")
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: duplicate column names in header")
        rows = []
        while True:
            lineno = reader.line_num + 1  # the physical line the next row starts on
            raw = next(reader, None)
            if raw is None:
                break
            if not raw:
                continue
            if len(raw) != len(header):
                return extra, rows, ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            rows.append((lineno, dict(zip(header, raw))))
    return extra, rows, None


# The spellings ingest reads, by their grammar: ASCII digits, no "_", and
# the ASCII whitespace int() and float() strip on either side.
_REF_SPACE = r"[ \t\n\r\f\v]*"
_REF_INTEGER = re.compile(rf"{_REF_SPACE}[+-]?[0-9]+{_REF_SPACE}")
_REF_NUMBER = re.compile(
    rf"{_REF_SPACE}[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    rf"|(?i:inf|infinity|nan)){_REF_SPACE}")
_REF_FLAG = re.compile(rf"{_REF_SPACE}(1|true|0|false){_REF_SPACE}", re.ASCII | re.IGNORECASE)


def _ref_number(path, lineno, name, text):
    if _REF_NUMBER.fullmatch(text) is None:
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not a number: {text!r}")
    return float(text)


def _ref_float(path, lineno, name, text):
    value = _ref_number(path, lineno, name, text)
    if not math.isfinite(value):
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not finite")
    return value


def _ref_count(path, lineno, name, text):
    if _REF_INTEGER.fullmatch(text) is None:
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not an integer: {text!r}")
    return int(text)


def _ref_flag(path, lineno, name, text):
    match = _REF_FLAG.fullmatch(text)
    if match is not None:
        return match[1].lower() in ("1", "true")
    raise ValidationError(f"{path}:{lineno}: column {name!r} is not a boolean: {text!r}")


def _ref_record(path, lineno, kind, *values):
    """``kind(*values)``; a value the record rejects is reported at the row."""
    try:
        return kind(*values)
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}")


def _ref_point(path, lineno, row):
    return _ref_record(path, lineno, GeoPoint, _ref_number(path, lineno, "lat", row["lat"]),
                       _ref_number(path, lineno, "lon", row["lon"]))


def ref_load_zones(path):
    """Zones read and parsed one row at a time (no geometry join), then
    built one row at a time: a zone's counts are judged after every row
    parses."""
    attr_cols, rows, width_error = _ref_read_rows(path, ZONE_COLUMNS, extras_allowed=True)
    parsed = []
    seen = {}
    for lineno, row in rows:
        zid = row["zone_id"]
        if zid in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate zone_id {zid!r} (first seen at line {seen[zid]})"
            )
        seen[zid] = lineno
        attributes = {name: _ref_float(path, lineno, name, row[name]) for name in attr_cols}
        parsed.append((lineno, zid, _ref_point(path, lineno, row),
                       _ref_count(path, lineno, "population", row["population"]),
                       _ref_count(path, lineno, "adrd_patients", row["adrd_patients"]),
                       _ref_flag(path, lineno, "urban", row["urban"]), attributes))
    if width_error is not None:
        raise width_error
    return [_ref_record(path, lineno, DemandZone, *values) for lineno, *values in parsed]


def ref_load_facilities(path):
    """Facilities read and checked one row at a time."""
    _, rows, width_error = _ref_read_rows(path, FACILITY_COLUMNS, extras_allowed=False)
    facilities = []
    seen = {}
    for lineno, row in rows:
        fid = row["facility_id"]
        if fid in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate facility_id {fid!r} (first seen at line {seen[fid]})"
            )
        seen[fid] = lineno
        beds = _ref_count(path, lineno, "beds", row["beds"])
        facilities.append(_ref_record(path, lineno, Facility, fid, _ref_point(path, lineno, row),
                                      beds))
    if width_error is not None:
        raise width_error
    return facilities


def ref_load_counties(path):
    """County-year records read and checked one row at a time."""
    _, rows, width_error = _ref_read_rows(path, COUNTY_COLUMNS, extras_allowed=False)
    records = []
    seen = {}
    for lineno, row in rows:
        year = _ref_count(path, lineno, "year", row["year"])
        key = (row["county_id"], year)
        if key in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate county-year {key!r} (first seen at line {seen[key]})"
            )
        seen[key] = lineno
        counts = [_ref_count(path, lineno, name, row[name])
                  for name in ("adrd_deaths", "adrd_patients", "population_50plus")]
        records.append(_ref_record(path, lineno, CountyOutcome, row["county_id"], year, *counts))
    if width_error is not None:
        raise width_error
    return records


def ref_service_status(records, years):
    """Service status rows from README's rules, one county at a time.

    Each county's counts are averaged over its records with a year in
    ``years`` (None: every year), and the ratios are taken from those
    means; a ratio with a zero denominator is undefined. Counties with no
    record in range are left out. Every state mean, and the sample
    standard deviation, runs over one set: the counties whose three
    ratios are all defined; every other county is InsufficientData.
    Underserved: deaths per patient above its state mean and diagnosis
    rate below it; Overserved: the mirror image; otherwise Typical.
    Elevated: deaths per population 50+ above the mean plus one sample
    standard deviation of that set's such rates, for a county of that set
    only (an InsufficientData county is never elevated). Every mean and sum of
    squares is ``math.fsum``, the correctly rounded sum, over the count.
    Returns the rows as tuples in the fields' order, sorted by county
    id, or None where fewer than two counties have all three ratios,
    which the package rejects.
    """
    rows = []
    for cid in sorted({r.county_id for r in records}):
        mine = [r for r in records if r.county_id == cid and (years is None or r.year in years)]
        if not mine:
            continue
        deaths = math.fsum(r.adrd_deaths for r in mine) / len(mine)
        patients = math.fsum(r.adrd_patients for r in mine) / len(mine)
        pop = math.fsum(r.population_50plus for r in mine) / len(mine)
        rows.append([cid, len(mine), deaths, patients, pop,
                     deaths / patients if patients != 0 else None,
                     deaths / pop if pop != 0 else None,
                     patients / pop if pop != 0 else None])
    defined = [row for row in rows if None not in row[5:8]]
    if len(defined) < 2:
        return None
    mortality_mean = math.fsum(row[5] for row in defined) / len(defined)
    diagnosis_mean = math.fsum(row[7] for row in defined) / len(defined)
    rates = [row[6] for row in defined]
    rate_mean = math.fsum(rates) / len(rates)
    sample_sd = math.sqrt(math.fsum((v - rate_mean) ** 2 for v in rates) / (len(rates) - 1))
    out = []
    for row in rows:
        per_patient, per_pop, diagnosis = row[5], row[6], row[7]
        if per_patient is None or diagnosis is None:
            label = "InsufficientData"
        elif per_patient > mortality_mean and diagnosis < diagnosis_mean:
            label = "Underserved"
        elif per_patient < mortality_mean and diagnosis > diagnosis_mean:
            label = "Overserved"
        else:
            label = "Typical"
        out.append((*row, label, label != "InsufficientData" and per_pop > rate_mean + sample_sd))
    return out


_FPMIN = 1e-300
_EPS = 1e-15
_MAX_ITER = 500


def _beta_continued_fraction(a, b, x):
    """Continued fraction for the incomplete beta, by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValidationError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a, b, x, y=None):
    """I_x(a, b) for a, b > 0 and x in [0, 1], by the Lentz continued fraction.

    ``y`` is 1 - x. Near x = 1, ``1 - x`` keeps few digits or none, so a
    caller that can form y another way passes it.
    """
    if not (a > 0 and b > 0):
        raise ValidationError(f"beta parameters must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"beta argument must be in [0, 1], got {x!r}")
    if y is None:
        y = 1.0 - x
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
    front = math.exp(log_front)
    # Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the side where the
    # continued fraction converges fastest.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def student_t_two_sided_p(t, df):
    """Two-sided Student-t tail: I_x(df/2, 1/2) with x = df / (df + t**2)."""
    if not df > 0:
        raise ValidationError(f"degrees of freedom must be > 0, got {df!r}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(0.5 * df, 0.5, x, t * t / (df + t * t))
    return min(1.0, max(0.0, p))


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=100):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until every off-diagonal magnitude drops below ``tol``.
    Returns (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    a = np.array(matrix, dtype=float, copy=True)
    p = a.shape[0]
    if a.shape != (p, p):
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValidationError("jacobi_eigh requires a symmetric matrix")
    v = np.eye(p)
    if p == 1:
        return np.array([a[0, 0]]), v
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off < tol:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                aij = a[i, j]
                if aij == 0.0:
                    continue
                theta = (a[j, j] - a[i, i]) / (2.0 * aij)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_i = a[:, i].copy()
                col_j = a[:, j].copy()
                a[:, i] = c * col_i - s * col_j
                a[:, j] = s * col_i + c * col_j
                row_i = a[i, :].copy()
                row_j = a[j, :].copy()
                a[i, :] = c * row_i - s * row_j
                a[j, :] = s * row_i + c * row_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
    else:
        raise ValidationError("jacobi_eigh failed to converge")
    return np.diag(a).copy(), v


def ref_pca(standardized):
    """Correlation-matrix PCA by Jacobi: descending eigenvalues clipped at 0,
    each eigenvector's largest-magnitude entry made >= 0, the first of the
    entries within 1e-12 relative of it deciding."""
    z = np.asarray(standardized, dtype=float)
    corr = (z.T @ z) / (z.shape[0] - 1.0)
    # Rotations stop once every off-diagonal entry is below tol, which leaves
    # an eigenvector error of up to about tol / (eigenvalue gap): at 1e-12
    # and a 1e-3 gap that exceeds the 1e-10 the tests compare loadings to.
    evals, vecs = jacobi_eigh(0.5 * (corr + corr.T), tol=1e-14)
    evals = np.maximum(evals, 0.0)
    order = np.argsort(-evals, kind="stable")
    evals, vecs = evals[order], vecs[:, order]
    for c in range(vecs.shape[1]):
        magnitude = np.abs(vecs[:, c])
        lead = next(i for i, m in enumerate(magnitude) if m >= (1.0 - 1e-12) * magnitude.max())
        if vecs[lead, c] < 0.0:
            vecs[:, c] = -vecs[:, c]
    return evals, vecs
